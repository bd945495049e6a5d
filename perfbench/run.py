#!/usr/bin/env python3
"""Case-sweep benchmark of the simulator, end to end and per layer.

A case is one fresh simulated scenario at one seed.  A workload is a
rotation of case kinds over a fixed set of case seeds derived from
``--seed``; cases run one after another in a closed loop, in this one
process, with no threads.  Run from the repository root::

    python3 perfbench/run.py --workload chaos --seed 1 --seconds 30
    python3 perfbench/run.py --workload traced --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

Every invocation warms up on one rotation, then loops over the cases
for ``--seconds``, covering every distinct case at least once; each
case is checked and its digest compared with its first run's.
``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` then runs each distinct case once more under the
profiler and the boundary wrappers and reports the per-layer metrics.
The last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit status is 1 when any check fails.
Outputs go to ``perfbench/out/`` only.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Seed for day-to-day runs, and the held-out seed for confirming a
#: claim on inputs its change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("chaos", "traced", "coedit")
#: Distinct case seeds per case kind in each workload.
DISTINCT = {"chaos": 24, "traced": 24, "coedit": 48}
#: Cases in one rotation of each workload (see build_cases).
ROTATION = {"chaos": 3, "traced": 4, "coedit": 6}
#: Length of the measured pass: ``run_seconds`` in BENCHMARK.json.
SECONDS = 30
#: Fresh interpreters timed for ``setup_s``, spread over the measured
#: pass; the median is reported.
SETUP_PROBES = 21
#: Share of ``--seconds`` spent on the untraced pass of a traced run.
TRACE_TIMED_SHARE = 0.35
#: Cases slower than the reported tail value.
TAIL_BEYOND = 10


def _bytecode_in_out() -> None:
    # Compiled bytecode goes to the output directory, never beside the
    # sources, and every process reuses it.
    sys.pycache_prefix = os.path.join(OUT, "pycache")
    sys.dont_write_bytecode = False


class Case(NamedTuple):
    key: str
    run: Callable[[], Tuple[Dict[str, Any], Tuple[int, int], List[str]]]


class CaseError(Exception):
    """Nothing can be measured: no program, or a set-up probe failed."""


def load_adapter():
    """Import the adapter (and with it ``repro``) from this checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise CaseError("no program to measure: {} is missing".format(
            os.path.join("src", "repro")))
    sys.path[:0] = [SRC, HERE]
    import adapter
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise CaseError("repro was imported from outside this checkout")
    return adapter


def build_cases(adapter, workload: str, seed: int) -> List[Case]:
    """The workload's distinct cases, in rotation order."""
    from scripts import case_seed, session_script

    def registered(name: str, case: int, leave_on: bool) -> Case:
        run_one = adapter.run_leave_on if leave_on else adapter.run_registered

        def run():
            result = run_one(name, case)
            return (result, adapter.registered_operations(name, result),
                    adapter.env_problems(result))
        prefix = "traced:" if leave_on else ""
        return Case("{}{}@{}".format(prefix, name, case), run)

    def session(case: int) -> Case:
        script = session_script(case)
        return Case("session@{}".format(case),
                    lambda: adapter.run_session(script))

    cases: List[Case] = []
    for index in range(DISTINCT[workload]):
        if workload == "chaos":
            cases += [registered(name, case_seed(seed, name, index), False)
                      for name in adapter.CHAOS]
        elif workload == "traced":
            cases += [registered(name, case_seed(seed, "traced:" + name,
                                                 index), True)
                      for name in adapter.TRACED]
        else:
            hard, soft, tickle, notification = (
                registered(name, case_seed(seed, name, index), False)
                for name in adapter.LOCKS)
            cases += [hard, session(case_seed(seed, "session", 2 * index)),
                      soft, tickle,
                      session(case_seed(seed, "session", 2 * index + 1)),
                      notification]
    return cases


class Books:
    """Correctness state shared by every pass of one invocation."""

    def __init__(self, adapter) -> None:
        self.adapter = adapter
        self.reference: Dict[str, str] = {}
        self.operations: Dict[str, Tuple[int, int]] = {}
        self.cases = 0
        self.failed_cases: Dict[str, str] = {}

    def run(self, case: Case, clock: Optional[List[float]] = None) -> Any:
        """Run one case, check it; appends its host seconds to ``clock``.

        A case's time includes collecting its own cyclic garbage, so no
        case pays for an earlier one's.
        """
        self.cases += 1
        start = time.perf_counter()
        try:
            result, ops, problems = case.run()
            digest = self.adapter.digest(result)
        except Exception as error:  # a case that raises is a failed case
            self._fail(case, "raised {!r}".format(error))
            return None
        finally:
            gc.collect()
            if clock is not None:
                clock.append(time.perf_counter() - start)
        expected = self.reference.setdefault(case.key, digest)
        if digest != expected:
            problems = problems + ["digest {} != first run's {}".format(
                digest[:12], expected[:12])]
        self.operations.setdefault(case.key, ops)
        if problems:
            self._fail(case, "; ".join(problems))
        return result

    def _fail(self, case: Case, why: str) -> None:
        if case.key not in self.failed_cases:
            print("FAILED {}: {}".format(case.key, why), file=sys.stderr)
        self.failed_cases[case.key] = why

    def failed_ratio(self) -> float:
        attempted = failed = 0
        for key, (a, f) in self.operations.items():
            if key in self.failed_cases:
                f = a = max(a, 1)
            attempted += a
            failed += f
        for key in self.failed_cases:
            if key not in self.operations:
                attempted += 1
                failed += 1
        return failed / attempted if attempted else 1.0

    def outcome_digest(self) -> str:
        return self.adapter.digest(sorted(self.reference.items()))


def closed_loop(books: Books, cases: List[Case], per_rotation: int,
                seconds: float, probe: Optional[Callable[[], float]] = None,
                probes: int = 0) -> Tuple[List[float], float, int,
                                          List[float]]:
    """Cases back to back until ``seconds`` pass, ending on a rotation.

    The loop runs every distinct case at least once, so the operation
    accounting and the outcome digest never depend on speed.  With a
    ``probe``, it is called ``probes`` times between rotations, evenly
    over the pass, so its samples see the same host speed as the
    cases; its own time is left out of the loop's.  Returns per-case
    host seconds, the loop's wall time, the number of cases run and
    the probe samples.
    """
    times: List[float] = []
    samples: List[float] = []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        books.run(cases[index % len(cases)], times)
        index += 1
        if index % per_rotation:
            continue
        now = time.perf_counter()
        elapsed = now - start - paused
        if len(samples) < probes \
                and elapsed >= seconds * len(samples) / probes:
            samples.append(probe())
            paused += time.perf_counter() - now
        elif index >= len(cases) and elapsed >= seconds:
            break
    return times, time.perf_counter() - start - paused, index, samples


def case_medians(times: List[float], distinct: int) -> List[float]:
    """Each distinct case's median time, from a loop's per-case times."""
    return [statistics.median(times[i::distinct]) for i in range(distinct)]


def probe_setup(workload: str, seed: int) -> float:
    """Host seconds from a fresh interpreter's start to its first case."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != b"ready":
        raise CaseError("setup probe failed (exit {})".format(
            child.returncode))
    return elapsed


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def timed_run(adapter, books: Books, cases: List[Case], workload: str,
              seed: int, seconds: float) -> Dict[str, Any]:
    """The end-to-end metrics, tracing off."""
    times, wall, count, setups = closed_loop(
        books, cases, ROTATION[workload], seconds,
        lambda: probe_setup(workload, seed), SETUP_PROBES)
    # A case's time is the median of its repeats; the percentiles are
    # over the distinct cases, which the loop runs equally often.
    ordered = sorted(case_medians(times, len(cases)))
    tail = ordered[-TAIL_BEYOND - 1]
    percentile = 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)
    print("{}: {} timed cases in {:.2f} s; case_tail_ms is p{:.2f} of "
          "{} distinct cases' median times ({} cases beyond it)".format(
              workload, count, wall, percentile, len(ordered),
              TAIL_BEYOND))
    return {
        "cases_per_s": metric(count / wall, "1/s"),
        "case_p50_ms": metric(statistics.median(ordered) * 1e3, "ms"),
        "case_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "failed_ratio": metric(books.failed_ratio(), "ratio"),
    }


def traced_run(adapter, books: Books, cases: List[Case], workload: str,
               seed: int, seconds: float) -> Dict[str, Any]:
    """The per-layer metrics over one cycle of the distinct cases.

    An untraced loop first times every case (median of its repeats);
    then each distinct case runs once more under the profiler and the
    boundary wrappers.  Counts and self times are therefore per cycle
    of distinct cases, the same work on every commit.
    """
    import tracing

    times, _, _, _ = closed_loop(books, cases, ROTATION[workload],
                                 seconds * TRACE_TIMED_SHARE)
    untraced = sum(case_medians(times, len(cases)))

    boundary = tracing.Boundary()
    undo = [adapter.wrap(owner, method, boundary.factory(name, mode))
            for owner, method, name, mode in adapter.WRAPPED]
    undo += [adapter.wrap(cls, "__init__", boundary.collector)
             for cls in adapter.COLLECTED]
    counts: Dict[str, float] = {}
    profiler = cProfile.Profile()
    traced: List[float] = []
    try:
        with tracing.GcClock() as gc_clock:
            for case in cases:
                profiler.enable()
                result = boundary.case(case.key,
                                       lambda: books.run(case, traced))
                profiler.disable()
                found = adapter.instance_counts(boundary.take_instances())
                if result is not None:
                    found.update(adapter.result_counts(result))
                for name, value in found.items():
                    counts[name] = counts.get(name, 0) + value
    finally:
        for restore in reversed(undo):
            restore()
    traced_wall = sum(traced)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-{}-seed{}.jsonl".format(
        workload, seed))
    kept = boundary.dump(spans_path)
    print("{}: {} cases traced in {:.2f} s ({:.2f} s untraced); {} of {} "
          "boundary spans written to {}".format(
              workload, len(cases), traced_wall, untraced, kept,
              boundary.started,
              os.path.relpath(spans_path, ROOT)))

    peak = 0
    for case in cases[:ROTATION[workload]]:
        tracemalloc.start()
        books.run(case)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    layers = tracing.layer_self_times(profiler, os.path.join(SRC, "repro"))
    calls, host = boundary.calls, boundary.seconds
    sent = counts["net.packets_sent"]
    values = {
        "sim.self_s": layers["sim"],
        "sim.events": counts["sim.events"],
        "sim.events_per_s": counts["sim.events"] / untraced,
        "net.self_s": layers["net"],
        "net.packets_sent": sent,
        "net.packets_delivered": counts["net.packets_delivered"],
        "net.delivered_ratio":
            counts["net.packets_delivered"] / sent if sent else 1.0,
        "net.drops": counts["net.drops"],
        "net.path_calls": calls["net.path"],
        "net.path_s": host["net.path"],
        "net.transport.self_s": layers["net.transport"],
        "net.transport.rpc_calls": calls["net.transport.rpc_call"],
        "net.transport.retries": counts["net.transport.retries"],
        "net.transport.gave_up": counts["net.transport.gave_up"],
        "node.self_s": layers["node"],
        "node.invocations": calls["node.invoke"],
        "concurrency.self_s": layers["concurrency"],
        "concurrency.lock_acquires": calls["concurrency.lock_acquire"],
        "concurrency.lock_revocations":
            counts["concurrency.lock_revocations"],
        "concurrency.ot_edits": calls["concurrency.ot_edit"],
        "concurrency.lock_wait_sim_s": counts["concurrency.lock_wait_sim_s"],
        "sessions.self_s": layers["sessions"],
        "sessions.floor_grants": counts["sessions.floor_grants"],
        "groups.self_s": layers["groups"],
        "groups.delivered": counts["groups.delivered"],
        "obs.self_s": layers["obs"],
        "obs.spans_started": counts["obs.spans_started"],
        "obs.spans_evicted": counts["obs.spans_evicted"],
        "obs.start_span_calls": calls["obs.start_span"],
        "obs.start_span_s": host["obs.start_span"],
        "obs.flight_records": counts["obs.flight_records"],
        "obs.flight_epochs": counts["obs.flight_epochs"],
        "faults.self_s": layers["faults"],
        "faults.injected": counts["faults.injected"],
        "faults.route_invalidations": calls["faults.route_invalidation"],
        "analysis.self_s": layers["analysis"],
        "misc.self_s": layers[tracing.MISC],
        "host.gc_s": gc_clock.seconds,
        "host.gc_collections": gc_clock.collections,
        "host.alloc_peak_mb": peak / 2.0 ** 20,
        "host.other_self_s": layers[tracing.OTHER],
        "trace.overhead_ratio": traced_wall / untraced,
    }
    profiled = sum(layers.values())
    print("{}: layer shares of profiled self time ({:.2f} s): {}".format(
        workload, profiled, ", ".join(
            "{} {:.1%}".format(name, share) for name, share in sorted(
                ((n, s / profiled) for n, s in layers.items()),
                key=lambda item: -item[1]))))
    return {name: metric(value, _unit(name)) for name, value in
            values.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(options) -> int:
    try:
        adapter = load_adapter()
        cases = build_cases(adapter, options.workload, options.seed)
        if options.setup_probe:
            print("ready", flush=True)
            return 0
        books = Books(adapter)
        for case in cases[:ROTATION[options.workload]]:
            books.run(case)
        # Warm: what is alive now belongs to the benchmark, not to any
        # case, and later collections need not scan it.
        gc.collect()
        gc.freeze()
        measure = traced_run if options.trace else timed_run
        metrics = measure(adapter, books, cases, options.workload,
                          options.seed, options.seconds)
    except CaseError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    outcome = books.outcome_digest()
    print("{}: outcome_digest {} over {} distinct cases".format(
        options.workload, outcome, len(cases)))
    for name, entry in metrics.items():
        print("  {:32s} {:>16.6g} {}".format(name, entry["value"],
                                            entry["unit"]))
    report = {"correct": not books.failed_cases, "attempted": books.cases,
              "failed": len(books.failed_cases), "metrics": metrics}
    _save(options, dict(report, outcome_digest=outcome,
                        failures=books.failed_cases))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def _save(options, report: Dict[str, Any]) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "{}-seed{}-trace{}.json".format(
        options.workload, options.seed, int(options.trace)))
    with open(path, "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)


def run_all(options) -> int:
    """Every workload, each in its own fresh process, one after another."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(options.seed),
                 "--seconds", str(options.seconds),
                 "--trace", str(int(options.trace))],
                stdout=subprocess.PIPE, cwd=ROOT, text=True) as child:
            lines = child.stdout.read().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("error: {} printed no result (exit {})".format(
                workload, child.returncode), file=sys.stderr)
            return 2
        status = max(status, child.returncode)
        combined["correct"] = combined["correct"] and report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for name, entry in report["metrics"].items():
            combined["metrics"]["{}.{}".format(workload, name)] = entry
    if options.trace:
        for claim, holds in rationale(combined["metrics"]):
            print("rationale {}: {}".format(
                "holds" if holds else "DOES NOT HOLD", claim))
    print(json.dumps(combined))
    return status


def rationale(metrics: Dict[str, Any]) -> List[Tuple[str, bool]]:
    """Check each workload's stated reason against its layer split."""
    share: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOADS:
        own = {name[len(workload) + 1:-len(".self_s")]: entry["value"]
               for name, entry in metrics.items()
               if name.startswith(workload + ".")
               and name.endswith(".self_s")}
        total = sum(own.values())
        share[workload] = {layer: value / total
                           for layer, value in own.items()}
    traced, chaos, coedit = share["traced"], share["chaos"], share["coedit"]
    claims = [("obs is the largest layer on traced",
               max(traced, key=traced.get) == "obs"),
              ("sim, net, net.transport and faults are the majority on "
               "chaos", sum(chaos[layer] for layer in
                            ("sim", "net", "net.transport", "faults")) > 0.5)]
    for layer in ("concurrency", "groups", "sessions"):
        claims.append(("{} is higher on coedit than elsewhere".format(layer),
                       coedit[layer] > max(chaos[layer], traced[layer])))
    return claims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Case-sweep benchmark: chaos, traced and coedit "
                    "workloads, end to end (--trace 0) or per layer "
                    "(--trace 1).")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default {}; held-out seed "
                             "for confirming claims: {})".format(
                                 DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="length of the measured pass (default {}, "
                             "BENCHMARK.json's run_seconds)".format(
                                 SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    _bytecode_in_out()
    if options.workload == "all":
        return run_all(options)
    return run_workload(options)


if __name__ == "__main__":
    sys.exit(main())
