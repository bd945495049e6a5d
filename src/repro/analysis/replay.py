"""Replay checker: "the sim is deterministic" as a testable property.

Runs a named workload twice with the same seed — each run under a fresh
metrics registry and a fresh conflict sanitizer — and compares SHA-256
digests of the full result: domain outcome, event-loop counters, the
sanitizer's ordered access trace and the conflict counts.  Any hidden
wall-clock read, foreign RNG or hash-order dependence shows up as a
digest mismatch::

    PYTHONPATH=src python -m repro.analysis.replay locks-soft
    PYTHONPATH=src python -m repro.analysis.replay --list

Exit status is 0 when the digests match, 1 when they differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict, Tuple

from repro.analysis.hb import ConflictSanitizer, use_sanitizer
from repro.analysis.workloads import WORKLOADS, run_workload
from repro.obs.metrics import MetricsRegistry, use_metrics


def trace_digest(result: Any) -> str:
    """A canonical SHA-256 over a JSON-serialisable run result."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_isolated(name: str, seed: int = 31) -> Dict[str, Any]:
    """One workload run under a fresh sanitizer and metrics registry."""
    with use_metrics(MetricsRegistry()):
        with use_sanitizer(ConflictSanitizer()):
            return run_workload(name, seed=seed)


def replay(name: str, seed: int = 31) -> Tuple[str, str, bool]:
    """Run ``name`` twice with ``seed``; returns (digest1, digest2, ok)."""
    first = trace_digest(run_isolated(name, seed))
    second = trace_digest(run_isolated(name, seed))
    return first, second, first == second


def _diff(name: str, seed: int, out) -> None:
    """Print the keys whose values differ between two runs."""
    first = run_isolated(name, seed)
    second = run_isolated(name, seed)
    for key in sorted(set(first) | set(second)):
        a, b = first.get(key), second.get(key)
        if a != b:
            out.write("  {}: {!r} != {!r}\n".format(key, a, b))


def _localize(name: str, seed: int, out) -> None:
    """Name the first divergent flight epoch and point at the localizer.

    Two more runs under the flight recorder (imported lazily — the
    happy path never touches it) compare chained per-epoch digests of
    kernel decisions; ``python -m repro.obs diverge`` can then re-journal
    just that epoch and print the first mismatched record with causal
    context.
    """
    from repro.obs.divergence import compare_digests

    report = compare_digests(name, seed)
    if report["diverged"]:
        out.write("first divergent flight epoch: {} (of {} / {})\n"
                  .format(report["epoch"], *report["epochs"]))
        out.write("localize it: PYTHONPATH=src python -m "
                  "repro.obs diverge {} --seed {}\n".format(name, seed))
    else:
        out.write("flight digests agree ({} epoch(s)): the divergence "
                  "is outside the journalled channels (dispatch/rng/"
                  "net/locks/actors)\n".format(report["epochs"][0]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.replay",
        description="Run a workload twice with one seed and diff the "
                    "event-trace digests.")
    parser.add_argument("workload", nargs="?",
                        help="workload name (see --list)")
    parser.add_argument("--seed", type=int, default=31,
                        help="experiment seed (default 31)")
    parser.add_argument("--list", action="store_true",
                        help="list known workloads and exit")
    options = parser.parse_args(argv)
    if options.list:
        for name in sorted(WORKLOADS):
            print(name)
        return 0
    if options.workload is None:
        parser.error("a workload name is required (see --list)")
    try:
        first, second, ok = replay(options.workload, seed=options.seed)
    except KeyError as error:
        print("error: {}".format(error.args[0]), file=sys.stderr)
        return 2
    print("run 1: {}".format(first))
    print("run 2: {}".format(second))
    if ok:
        print("REPLAY OK: {} (seed {}) is deterministic".format(
            options.workload, options.seed))
        return 0
    print("REPLAY MISMATCH: {} (seed {}) diverged between runs".format(
        options.workload, options.seed))
    _diff(options.workload, options.seed, sys.stdout)
    _localize(options.workload, options.seed, sys.stdout)
    return 1


if __name__ == "__main__":
    sys.exit(main())
