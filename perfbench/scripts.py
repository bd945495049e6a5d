"""Seeded inputs for the benchmark's co-editing session cases.

A session script is plain data: which hosts join, what each member
does and when.  It is generated here from a case seed with Python's
own ``random.Random``, so the program under test receives only the
generated inputs and never the seed's derivation.

The editing traffic is experiment E1's
(``benchmarks/bench_e1_response_notification.py``): four editors, 15
edits each, exponential think times of mean 2 s, 20 ms per WAN
hop.  The rest is coverage, not observed traffic: it makes the
session and group mechanisms that E1 leaves idle do their work.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List

# Taken from E1.
EDITORS = 4
EDITS_PER_EDITOR = 15
THINK_MEAN = 2.0
#: One WAN hop: E1 runs its platform at NET_LATENCY / 2 = 0.04 s / 2.
SITE_LATENCY = 0.02

# Coverage choices.  E1 puts each editor on a site of its own; here two
# hosts share each site, so two editors can share one.  Copies of one
# broadcast then queue on the same WAN link, and a reply sent by
# another route can overtake the second copy: causal hold-back works.
SITES = 3
HOSTS_PER_SITE = 2
#: Per editor: causal broadcasts, total-order notes and floor turns.
SAYS = (3, 5)
NOTES = (2, 4)
TURNS = (2, 4)
#: Share of causal broadcasts that carry an attachment, and its bytes.
ATTACHED = 0.2
ATTACHMENT = (50_000, 250_000)
#: Turns the chair grants each member; each asks for 2-4 (TURNS).
QUOTA = 2
WORDS = ("odp", "cscw", "floor", "lock", "view", "group", "trader",
         "binding", "session", "replica")


def case_seed(seed: int, stream: str, index: int) -> int:
    """A 31-bit case seed derived from the run seed, a stream and an index."""
    text = "{}:{}:{}".format(seed, stream, index).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def session_script(seed: int) -> Dict[str, Any]:
    """One co-editing session: members, per-member actions, replies.

    Each member walks its own action list; an action is
    ``[delay_s, kind, args]``.  Kinds: ``edit`` (an OT insert or delete
    at a fractional position), ``say`` (a causal broadcast of some size
    that others may reply to), ``note`` (a total-order broadcast) and
    ``turn`` (a floor request held for ``args`` seconds if granted).
    """
    rng = random.Random(seed)
    members = sorted(rng.sample(range(SITES * HOSTS_PER_SITE), EDITORS))
    actions: List[List[List[Any]]] = []
    replies: Dict[str, List[List[Any]]] = {}
    for index in range(EDITORS):
        plan: List[List[Any]] = []
        kinds = (["edit"] * EDITS_PER_EDITOR + ["say"] * rng.randint(*SAYS)
                 + ["note"] * rng.randint(*NOTES)
                 + ["turn"] * rng.randint(*TURNS))
        rng.shuffle(kinds)
        said = 0
        for kind in kinds:
            delay = round(rng.expovariate(1.0 / THINK_MEAN), 3)
            if kind == "edit":
                # Positions are fractions in [0, 1) of the text length.
                frac = rng.randrange(10000) / 10000
                if rng.random() < 0.7:
                    args: Any = ["ins", frac,
                                 rng.choice(WORDS)[:rng.randint(1, 4)]]
                else:
                    args = ["del", frac, rng.randint(1, 3)]
            elif kind == "say":
                said += 1
                mid = "m{}-{}".format(index, said)
                args = [mid, rng.randint(*ATTACHMENT)
                        if rng.random() < ATTACHED else 96]
                responders = [[other, round(rng.uniform(0.005, 0.1), 3)]
                              for other in range(EDITORS)
                              if other != index and rng.random() < 0.4]
                if responders:
                    replies[mid] = responders
            elif kind == "turn":
                args = round(rng.uniform(0.3, 1.5), 3)
            else:
                args = None
            plan.append([delay, kind, args])
        actions.append(plan)
    return {
        "seed": seed,
        "sites": SITES,
        "hosts_per_site": HOSTS_PER_SITE,
        "site_latency": SITE_LATENCY,
        "members": members,
        "initial": " ".join(rng.choice(WORDS) for _ in range(6)),
        "floor_quota": QUOTA,
        "actions": actions,
        "replies": replies,
    }
