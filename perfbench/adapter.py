"""The benchmark's one adapter onto the program under test.

Every call the benchmark makes into ``repro`` lives in this module, so
the surface a refactor must keep is exactly :data:`ENTRY_POINTS`.  It
runs three kinds of case:

* a registered workload, as shipped (``run_isolated``: fresh metrics
  registry and conflict sanitizer, as the replay checker runs it);
* a registered workload under the leave-it-on observability set-up: a
  recording :class:`Tracer` with no sampler and a span ring smaller
  than one case's span count, plus a digests-only
  :class:`FlightRecorder`, both fresh per case;
* a co-editing session on a :class:`CooperativePlatform`, driven by a
  script from :mod:`scripts`.

It also names the public functions the traced run wraps and reads the
per-layer counts from the public attributes of the objects a case made.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.analysis import workloads as registry
from repro.analysis.replay import run_isolated, trace_digest
from repro.concurrency.locks import LockTable
from repro.concurrency.ot import OTClientSite
from repro.core.platform import CooperativePlatform
from repro.errors import FloorControlError
from repro.groups.group import GroupEndpoint, ProcessGroup
from repro.net.network import Network
from repro.net.topology import Topology
from repro.net.transport import ReliableChannel, RpcEndpoint
from repro.node.runtime import Nucleus
from repro.obs import demo
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.sessions import floor as floors

#: The program surface this benchmark uses, one line per entry point.
ENTRY_POINTS = (
    "repro.analysis.workloads: the registry (by name, via run_isolated), "
    "WRITERS, ROUNDS",
    "repro.analysis.replay.run_isolated(name, seed)",
    "repro.analysis.replay.trace_digest(result)",
    "repro.obs.demo.CLIENTS, REQUESTS, TL_CLIENTS, TL_REQUESTS",
    "repro.obs.tracer.Tracer(max_spans=), use_tracer, Tracer.start_span",
    "repro.obs.flight.FlightRecorder(ring=), use_flight, .finish()",
    "repro.obs.metrics.MetricsRegistry(), use_metrics",
    "repro.core.platform.CooperativePlatform(sites=, hosts_per_site=, "
    "site_latency=, seed=), .create_session, .host_names, .run, "
    ".network, .env",
    "CooperativeSession.broadcast, .shared_document, .group, .session",
    "SharedDocument.client, .converged, .server; OTClientSite.insert, "
    ".delete, .edit, .text",
    "ChairedFloor.request, .release, .decide, .holder, .turns, "
    ".turn_counts, .counters",
    "GroupEndpoint.on_deliver, .broadcast, .delivered_log",
    "Network.counters, .drop_stats; Topology.path, .invalidate_routes",
    "Nucleus.invoke; RpcEndpoint.call; ReliableChannel.send, .retries, "
    ".gave_up; LockTable.acquire, .counters",
    "Environment.process, .timeout, .stats",
)

CHAOS = ("partition-recovery", "flaky-links", "fuzz-probe")
TRACED = ("traced-rpc", "timeline-demo", "slo-burn", "partition-recovery")
LOCKS = ("locks-hard", "locks-soft", "locks-tickle", "locks-notification")

#: Span ring of the leave-it-on tracer: below every traced case's span
#: count, so ring eviction runs on every case.
SPAN_RING = 128
#: A digests-only flight recorder keeps almost nothing in its ring.
FLIGHT_RING = 16


def digest(result: Dict[str, Any]) -> str:
    """sha256 of a case result's canonical JSON, as replay computes it."""
    return trace_digest(result)


# -- registered workloads ---------------------------------------------------


def run_registered(name: str, seed: int) -> Dict[str, Any]:
    """A registered workload as shipped."""
    return run_isolated(name, seed)


def run_leave_on(name: str, seed: int) -> Dict[str, Any]:
    """A registered workload with tracing and flight digests left on."""
    tracer = Tracer(max_spans=SPAN_RING)
    flight = FlightRecorder(ring=FLIGHT_RING)
    with use_tracer(tracer), use_flight(flight):
        result = run_isolated(name, seed)
    flight.finish()
    return result


def _total(counts: Dict[str, int], bad: Callable[[str], bool]
           ) -> Tuple[int, int]:
    return (sum(counts.values()),
            sum(n for key, n in counts.items() if bad(key)))


def registered_operations(name: str, result: Dict[str, Any]
                          ) -> Tuple[int, int]:
    """(attempted, failed) simulated operations, from the result alone."""
    if name == "partition-recovery":
        windows = result["qos_windows"]
        return windows["ok"] + windows["violated"], windows["violated"]
    if name == "flaky-links":
        attempted, failed = _total(result["outcomes"], lambda k: k != "ok")
        return (attempted + result["chan_sent"],
                failed + result["chan_gave_up"])
    if name == "fuzz-probe":
        attempted = failed = 0
        for outcomes in result["outcomes"].values():
            a, f = _total(outcomes, lambda k: k != "ok")
            attempted += a
            failed += f
        return (attempted + result["chan_sent"],
                failed + result["chan_gave_up"])
    if name == "traced-rpc":
        planned = demo.CLIENTS * demo.REQUESTS
        return planned, planned - sum(result["completed"].values())
    if name == "timeline-demo":
        planned = sum(max(2, demo.TL_REQUESTS // (i + 1))
                      for i in range(demo.TL_CLIENTS))
        return planned, planned - sum(result["board"].values())
    if name == "slo-burn":
        return _total(result["requests"], lambda k: "outcome=err" in k)
    if name in LOCKS:
        # Lock requests, plus writer rounds against the rounds planned;
        # a request never granted or a grant revoked by a takeover failed.
        counters = result["lock_counters"]
        rounds = registry.WRITERS * registry.ROUNDS
        attempted = counters.get("requests", 0) + rounds
        failed = (counters.get("requests", 0) - counters.get("grants", 0)
                  + counters.get("takeovers", 0)
                  + rounds - result["completed"])
        return attempted, failed
    raise KeyError("no operation accounting for workload " + name)


def env_problems(result: Dict[str, Any]) -> List[str]:
    """The kernel's books must balance at the end of a case."""
    env = result["env"]
    if env["events_scheduled"] != env["events_processed"] + env["queue_depth"]:
        return ["events_scheduled {} != events_processed {} + queue_depth {}"
                .format(env["events_scheduled"], env["events_processed"],
                        env["queue_depth"])]
    return []


# -- co-editing sessions ----------------------------------------------------


def run_session(script: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], Tuple[int, int], List[str]]:
    """One scripted co-editing session.

    Members on a small WAN edit one OT document, send causal
    broadcasts (some answered by replies) and total-order notes, and
    take turns on a chaired floor whose chair refuses members over
    their turn quota.  Returns the case result, (attempted, failed)
    operations and the invariant violations found.
    """
    with use_metrics(MetricsRegistry()):
        return _session(script)


def _session(script):
    platform = CooperativePlatform(
        sites=script["sites"], hosts_per_site=script["hosts_per_site"],
        site_latency=script["site_latency"], seed=script["seed"])
    env = platform.env
    hosts = platform.host_names()
    members = [hosts[i] for i in script["members"]]
    draft = platform.create_session("draft", members, floor="chaired",
                                    ordering="causal")
    agenda = platform.create_session("agenda", members, floor=None,
                                     ordering="total")
    doc = draft.shared_document("doc", initial=script["initial"])
    floor = draft.session.floor
    quota = script["floor_quota"]
    floor.decide = lambda member: floor.turn_counts().get(member, 0) < quota

    ops = {"attempted": 0, "refused": 0}
    sent = {"draft": 0, "agenda": 0}
    holders: List[str] = []
    problems: List[str] = []
    replies = script["replies"]

    def reply(member, original, think):
        yield env.timeout(think)
        ops["attempted"] += 1
        sent["draft"] += 1
        draft.broadcast(member, {"id": original + "/" + member,
                                 "re": original}, size=96)

    def listener(index, member):
        def on_deliver(message):
            payload = message.payload
            if payload["re"] is not None or message.sender == member:
                return
            for responder, think in replies.get(payload["id"], ()):
                if responder == index:
                    env.process(reply(member, payload["id"], think))
        return on_deliver

    def take_turn(member, hold):
        ops["attempted"] += 1
        try:
            yield floor.request(member)
        except FloorControlError:
            ops["refused"] += 1
            return
        if holders or floor.holder != member:
            problems.append("floor granted to {} at {} while held by {}"
                            .format(member, env.now, holders))
        holders.append(member)
        yield env.timeout(hold)
        holders.remove(member)
        floor.release(member)

    def member_proc(member, plan):
        client = doc.client(member)
        notes = 0
        for delay, kind, args in plan:
            yield env.timeout(delay)
            if kind == "turn":
                yield env.process(take_turn(member, args))
                continue
            ops["attempted"] += 1
            if kind == "edit":
                op, frac, arg = args
                text = client.text
                if op == "del" and len(text) > arg:
                    client.delete(int(frac * (len(text) - arg)), arg)
                else:
                    client.insert(int(frac * (len(text) + 1)),
                                  arg if op == "ins" else "x")
            elif kind == "say":
                sent["draft"] += 1
                mid, size = args
                draft.broadcast(member, {"id": mid, "re": None}, size=size)
            else:
                notes += 1
                sent["agenda"] += 1
                agenda.broadcast(member, {"id": "{}#{}".format(
                    member, notes)}, size=64)

    for index, member in enumerate(members):
        draft.group.endpoint(member).on_deliver(listener(index, member))
        env.process(member_proc(member, script["actions"][index]),
                    name=member)
    platform.run()

    draft_logs = {m: [msg.payload["id"] for msg in
                      draft.group.endpoint(m).delivered_log]
                  for m in members}
    agenda_logs = {m: [msg.payload["id"] for msg in
                       agenda.group.endpoint(m).delivered_log]
                   for m in members}
    problems.extend(_session_problems(doc, draft_logs, agenda_logs, sent))
    result = {
        "workload": "session",
        "seed": script["seed"],
        "members": members,
        "text": doc.server.core.text,
        "revision": doc.server.core.revision,
        "draft": draft_logs,
        "agenda": agenda_logs[members[0]],
        "turns": floor.turns,
        "floor": floor.counters.as_dict(),
        "net": platform.network.counters.as_dict(),
        "drops": platform.network.drop_stats(),
        "env": env.stats(),
    }
    problems.extend(env_problems(result))
    return result, (ops["attempted"], ops["refused"]), problems


def _session_problems(doc, draft_logs, agenda_logs, sent) -> List[str]:
    problems = []
    if not doc.converged:
        problems.append("shared document did not converge: {}"
                        .format(doc.texts()))
    for member, log in draft_logs.items():
        if len(set(log)) != sent["draft"] or len(log) != sent["draft"]:
            problems.append("{} delivered {} of {} causal broadcasts once"
                            .format(member, len(set(log)), sent["draft"]))
        seen = set()
        for mid in log:
            original, _, _ = mid.partition("/")
            if original != mid and original not in seen:
                problems.append("{} delivered reply {} before {}".format(
                    member, mid, original))
            seen.add(mid)
    sequence = next(iter(agenda_logs.values()))
    for member, log in agenda_logs.items():
        if len(log) != sent["agenda"]:
            problems.append("{} delivered {} of {} total-order notes".format(
                member, len(log), sent["agenda"]))
        if log != sequence:
            problems.append("total order differs at {}".format(member))
    return problems


# -- what the traced run wraps and counts -----------------------------------

#: (owner, method, boundary name, mode).  ``span`` calls finish before
#: they return, so they get a span and host time; ``time`` calls are
#: per-packet, so they get host time but no span; ``count`` calls
#: return an event whose work runs later inside the kernel, so they
#: are only counted.
WRAPPED = (
    (Topology, "path", "net.path", "time"),
    (Topology, "invalidate_routes", "faults.route_invalidation", "count"),
    (Tracer, "start_span", "obs.start_span", "span"),
    (OTClientSite, "edit", "concurrency.ot_edit", "span"),
    (GroupEndpoint, "broadcast", "groups.broadcast", "span"),
    (Nucleus, "invoke", "node.invoke", "count"),
    (RpcEndpoint, "call", "net.transport.rpc_call", "count"),
    (ReliableChannel, "send", "net.transport.chan_send", "count"),
    (LockTable, "acquire", "concurrency.lock_acquire", "count"),
) + tuple((cls, "request", "sessions.floor_request", "count")
          for cls in (floors.FreeFloor, floors.FcfsFloor,
                      floors.RoundRobinFloor, floors.ChairedFloor,
                      floors.NegotiatedFloor))

#: Classes whose instances a traced case collects (by wrapping
#: ``__init__``) to read their public counters afterwards.
COLLECTED = (Network, ReliableChannel, LockTable, floors.FloorPolicy,
             ProcessGroup, Tracer, FlightRecorder)


def instance_counts(objects: Iterable[Any]) -> Dict[str, float]:
    """Per-layer counts from the public attributes of collected objects."""
    counts = dict.fromkeys((
        "net.packets_sent", "net.packets_delivered", "net.drops",
        "net.transport.retries", "net.transport.gave_up",
        "concurrency.lock_revocations", "sessions.floor_grants",
        "groups.delivered", "obs.spans_started", "obs.spans_evicted",
        "obs.flight_records", "obs.flight_epochs"), 0)
    for obj in objects:
        if isinstance(obj, Network):
            books = obj.counters
            counts["net.packets_sent"] += books["sent"]
            counts["net.packets_delivered"] += books["delivered"]
            counts["net.drops"] += sum(obj.drop_stats().values())
        elif isinstance(obj, ReliableChannel):
            counts["net.transport.retries"] += obj.retries
            counts["net.transport.gave_up"] += obj.gave_up
        elif isinstance(obj, LockTable):
            counts["concurrency.lock_revocations"] += \
                obj.counters["takeovers"]
        elif isinstance(obj, floors.FloorPolicy):
            counts["sessions.floor_grants"] += obj.counters["grants"]
        elif isinstance(obj, ProcessGroup):
            counts["groups.delivered"] += sum(
                len(end.delivered_log) for end in obj.endpoints.values())
        elif isinstance(obj, Tracer):
            counts["obs.spans_started"] += (len(obj.spans) + obj.evicted
                                            + obj.sampled_out)
            counts["obs.spans_evicted"] += obj.evicted
        elif isinstance(obj, FlightRecorder):
            counts["obs.flight_records"] += obj.recorded
            counts["obs.flight_epochs"] += len(obj.epoch_digests)
    return counts


def result_counts(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer counts a case result states itself."""
    counts = {"sim.events": result["env"]["events_processed"],
              "faults.injected": len(result.get("faults", ())),
              "concurrency.lock_wait_sim_s": 0.0}
    wait = result.get("wait")
    if wait and wait.get("count"):
        counts["concurrency.lock_wait_sim_s"] = wait["count"] * wait["mean"]
    return counts


def wrap(owner: type, method: str,
         make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``owner.method`` by ``make(original)``; returns an undo."""
    original = owner.__dict__[method]
    setattr(owner, method, functools.wraps(original)(make(original)))
    return lambda: setattr(owner, method, original)
