"""Divergence localizer: find *where* two runs forked, not just that they did.

``python -m repro.analysis.replay`` proves or refutes determinism;
``python -m repro.obs diverge`` turns a refutation into a location.
Two runs of a registered workload are journalled by the flight
recorder (:mod:`repro.obs.flight`) into chained per-epoch digests; because
digest ``e`` covers the whole run prefix up to epoch ``e``, the first
divergent epoch is found by binary search over the digest lists.  Both
runs are then re-executed with full journaling *only* for that epoch
(``keep_epochs``), and the first mismatched record is printed with its
causal context: the owning span/trace (via the ambient
:class:`~repro.obs.tracer.Tracer`) and the K records preceding the
mismatch in each run.

Usage::

    PYTHONPATH=src python -m repro.obs diverge locks-hard --seed 31
    PYTHONPATH=src python -m repro.obs diverge locks-hard \\
        --seed 31 --seed2 32
    PYTHONPATH=src python -m repro.obs diverge a.jsonl b.jsonl

The first form self-compares one seed (the determinism check, with
localization when it fails); ``--seed2`` compares two different seeds
— a guaranteed fork, which is how the tests drive the localizer end to
end.  Two dumps are compared offline from their flight records.

Exit status: 0 when the runs agree, 1 when a divergence was localized,
2 on usage errors or unusable dumps.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.flight import (
    DEFAULT_EPOCH_EVENTS,
    FlightRecorder,
    canonical,
    use_flight,
)

#: Ring size for the full-journal re-run: must hold every record of the
#: divergent epoch (dispatches plus their rng/net/lock records).
JOURNAL_RING = 1 << 16


def first_divergent_epoch(a: Sequence[str], b: Sequence[str]
                          ) -> Optional[int]:
    """The first epoch whose chained digests differ, or ``None``.

    Chaining gives the prefix property — ``a[e] == b[e]`` implies the
    runs agree on *every* epoch up to ``e`` — so the first mismatch is
    found by binary search rather than a linear scan.  When one run has
    fewer epochs but agrees on the shared prefix, the divergence is the
    first epoch the shorter run never closed.
    """
    limit = min(len(a), len(b))
    if limit == 0 or a[limit - 1] == b[limit - 1]:
        return limit if len(a) != len(b) else None
    lo, hi = 0, limit - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _run(name: str, seed: int, recorder: FlightRecorder,
         traced: bool) -> str:
    """One isolated workload run under ``recorder``; its result digest.

    ``traced`` installs a recording tracer so journal records carry
    owning-span side metadata; side fields are excluded from digests,
    so traced and untraced runs journal identically.
    """
    # Function-level imports: repro.analysis.replay lazily imports this
    # module on digest mismatch, and the workload registry pulls in the
    # whole net/node stack.
    from repro.analysis.replay import run_isolated, trace_digest
    from repro.obs.tracer import Tracer, use_tracer

    with use_flight(recorder):
        if traced:
            with use_tracer(Tracer()):
                result = run_isolated(name, seed)
        else:
            result = run_isolated(name, seed)
    recorder.finish()
    return trace_digest(result)


def compare_digests(name: str, seed: int, seed2: Optional[int] = None,
                    epoch_events: int = DEFAULT_EPOCH_EVENTS
                    ) -> Dict[str, Any]:
    """The cheap pass: two digest-only runs and their first divergence."""
    second_seed = seed if seed2 is None else seed2
    run_a = FlightRecorder(ring=16, epoch_events=epoch_events)
    run_b = FlightRecorder(ring=16, epoch_events=epoch_events)
    digest_a = _run(name, seed, run_a, traced=False)
    digest_b = _run(name, second_seed, run_b, traced=False)
    epoch = first_divergent_epoch(run_a.epoch_digests, run_b.epoch_digests)
    return {
        "workload": name,
        "seed": seed,
        "seed2": second_seed,
        "epoch_events": epoch_events,
        "epochs": [len(run_a.epoch_digests), len(run_b.epoch_digests)],
        "result_digests": [digest_a, digest_b],
        "diverged": epoch is not None,
        "epoch": epoch,
    }


def _first_mismatch(records_a: List[Dict[str, Any]],
                    records_b: List[Dict[str, Any]]) -> Optional[int]:
    """Index of the first record pair whose canonical forms differ."""
    for index, (record_a, record_b) in enumerate(zip(records_a,
                                                     records_b)):
        if canonical(record_a) != canonical(record_b):
            return index
    if len(records_a) != len(records_b):
        return min(len(records_a), len(records_b))
    return None


def localize(name: str, seed: int, seed2: Optional[int] = None,
             epoch_events: int = DEFAULT_EPOCH_EVENTS,
             context: int = 8) -> Dict[str, Any]:
    """Full localization: digest pass, bisection, epoch-only re-journal."""
    report = compare_digests(name, seed, seed2,
                             epoch_events=epoch_events)
    report["context"] = context
    if not report["diverged"]:
        return report
    epoch = report["epoch"]
    journal_a = FlightRecorder(ring=JOURNAL_RING,
                               epoch_events=epoch_events,
                               keep_epochs=(epoch, epoch),
                               context=context)
    journal_b = FlightRecorder(ring=JOURNAL_RING,
                               epoch_events=epoch_events,
                               keep_epochs=(epoch, epoch),
                               context=context)
    _run(name, seed, journal_a, traced=True)
    _run(name, report["seed2"], journal_b, traced=True)
    records_a = list(journal_a.ring)
    records_b = list(journal_b.ring)
    index = _first_mismatch(records_a, records_b)
    report["epoch_records"] = [len(records_a), len(records_b)]
    report["record_index"] = index
    if index is None:
        # Digests disagreed but the retained records do not — the fork
        # is in a journal channel the re-run disabled, or past the ring.
        return report
    preceding_a = (list(journal_a.context) + records_a[:index])[-context:]
    preceding_b = (list(journal_b.context) + records_b[:index])[-context:]
    report["record_a"] = records_a[index] if index < len(records_a) \
        else None
    report["record_b"] = records_b[index] if index < len(records_b) \
        else None
    report["context_a"] = preceding_a
    report["context_b"] = preceding_b
    return report


# -- dump-vs-dump mode -----------------------------------------------------


def _flight(records: List[Dict[str, Any]]
            ) -> Tuple[List[str], List[Dict[str, Any]]]:
    """(epoch digests in index order, flight records) of a dump."""
    digests = {r["index"]: r["digest"] for r in records
               if r.get("kind") == "flight-epoch"
               and "index" in r and "digest" in r}
    flight = [r for r in records
              if r.get("kind") in ("dispatch", "rng", "hop", "drop",
                                   "lock", "spawn", "exit")]
    return [digests[index] for index in sorted(digests)], flight


def compare_dumps(dump_a: List[Dict[str, Any]],
                  dump_b: List[Dict[str, Any]], context: int = 8,
                  labels: Sequence[str] = ("A", "B")) -> Dict[str, Any]:
    """Offline comparison of two flight-bearing dumps' records.

    ``labels`` name the dumps in the report and in the ``ValueError``
    raised when one of them carries no flight-epoch records.
    """
    digests_a, records_a = _flight(dump_a)
    digests_b, records_b = _flight(dump_b)
    for label, digests in zip(labels, (digests_a, digests_b)):
        if not digests:
            raise ValueError("{} carries no flight-epoch records"
                             .format(label))
    epoch = first_divergent_epoch(digests_a, digests_b)
    report: Dict[str, Any] = {
        "dumps": list(labels),
        "epochs": [len(digests_a), len(digests_b)],
        "diverged": epoch is not None,
        "epoch": epoch,
        "context": context,
    }
    if epoch is None:
        return report
    epoch_a = [r for r in records_a if r.get("epoch") == epoch]
    epoch_b = [r for r in records_b if r.get("epoch") == epoch]
    report["epoch_records"] = [len(epoch_a), len(epoch_b)]
    if not epoch_a or not epoch_b:
        # The dumps' rings did not retain the divergent epoch; the
        # digests still name it.
        report["record_index"] = None
        return report
    index = _first_mismatch(epoch_a, epoch_b)
    report["record_index"] = index
    if index is not None:
        report["record_a"] = epoch_a[index] if index < len(epoch_a) \
            else None
        report["record_b"] = epoch_b[index] if index < len(epoch_b) \
            else None
        report["context_a"] = epoch_a[max(0, index - context):index]
        report["context_b"] = epoch_b[max(0, index - context):index]
    return report


# -- rendering -------------------------------------------------------------


def _span_line(record: Optional[Dict[str, Any]]) -> Optional[str]:
    if not record or "_trace" not in record:
        return None
    return "{} ({}, trace {})".format(
        record.get("_op", "?"), record.get("_span", "?"),
        record["_trace"])


def render(report: Dict[str, Any], out=None) -> None:
    """Human-readable localization transcript."""
    out = out if out is not None else sys.stdout
    if "workload" in report:
        versus = "seed {} vs seed {}".format(report["seed"],
                                             report["seed2"]) \
            if report["seed"] != report["seed2"] \
            else "seed {} self-compare".format(report["seed"])
        out.write("workload {}: {} (epoch = {} events)\n".format(
            report["workload"], versus, report["epoch_events"]))
    else:
        out.write("dumps: {} vs {}\n".format(*report["dumps"]))
    out.write("epochs: run A = {}, run B = {}\n".format(
        *report["epochs"]))
    if not report["diverged"]:
        out.write("no divergence: all {} epoch digest(s) identical\n"
                  .format(report["epochs"][0]))
        return
    out.write("first divergent epoch: {}\n".format(report["epoch"]))
    index = report.get("record_index")
    if index is None:
        out.write("(the divergent epoch's records were not retained; "
                  "re-run with the workload form to journal it)\n")
        return
    record_a = report.get("record_a")
    record_b = report.get("record_b")
    out.write("first mismatched record (epoch {}, record {}):\n".format(
        report["epoch"], index))
    out.write("  A: {}\n".format(
        canonical(record_a) if record_a else "<run ended>"))
    out.write("  B: {}\n".format(
        canonical(record_b) if record_b else "<run ended>"))
    for label, record in (("A", record_a), ("B", record_b)):
        span = _span_line(record)
        if span:
            out.write("  owning span ({}): {}\n".format(label, span))
    for label, key in (("A", "context_a"), ("B", "context_b")):
        preceding = report.get(key) or []
        if preceding:
            out.write("context {} — {} record(s) before the "
                      "mismatch:\n".format(label, len(preceding)))
            for record in preceding:
                out.write("  {}| {}\n".format(label, canonical(record)))
