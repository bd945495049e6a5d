"""Report: latency and traffic tables from observability records.

Usage::

    PYTHONPATH=src python -m repro.obs report run.jsonl
    PYTHONPATH=src python -m repro.obs report run.jsonl --format json

Reads the spans and metrics written by
:func:`repro.obs.export.dump_jsonl` (or recorded from a workload run)
and prints per-operation, per-node and per-object latency tables plus
a traffic/drop summary — the "pattern of use" view §4.2.1 of the paper
asks management functions to maintain.  ``--format json`` emits the
same tables as one machine-readable document (sorted keys, stable
across runs) for scripts and CI assertions.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List

from repro.obs._cli import describe_meta, extract_meta, render_table
from repro.sim.monitor import Tally


def _durations(spans: Iterable[Dict[str, Any]], group_attr: str = None,
               ) -> Dict[str, Tally]:
    """Group finished spans into duration tallies.

    ``group_attr`` of ``None`` groups by span name; otherwise by that
    attribute (spans lacking it are skipped).
    """
    groups: Dict[str, Tally] = {}
    for span in spans:
        if span.get("end") is None:
            continue
        if group_attr is None:
            key = span["name"]
        else:
            key = span.get("attributes", {}).get(group_attr)
            if key is None:
                continue
            key = str(key)
        groups.setdefault(key, Tally(key)).record(
            span["end"] - span["start"])
    return groups


def report_data(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The report as one JSON-safe dict (the ``--format json`` payload).

    Every table the text renderer prints, keyed by table, with rows in
    the same sorted order — so digests over the document are as stable
    as the dump itself.
    """
    meta = extract_meta(records)
    spans = [r for r in records if r.get("kind") == "span"]
    metrics = [r for r in records if r.get("kind") == "metric"]
    traces = {s["trace_id"] for s in spans}

    def rows(groups: Dict[str, Tally], *stats: str) -> Dict[str, Any]:
        return {key: {stat: getattr(tally, stat) for stat in stats}
                for key, tally in sorted(groups.items())}

    invokes = [s for s in spans if s["name"] in
               ("node.invoke", "rpc.serve")]
    traffic: Dict[str, List[float]] = {}
    for span in spans:
        if span["name"] != "net.transmit":
            continue
        attrs = span.get("attributes", {})
        src = str(attrs.get("src", "?"))
        row = traffic.setdefault(src, [0, 0, 0])
        row[0] += 1
        row[1] += attrs.get("bytes", 0)
        if str(span.get("status", "ok")).startswith("dropped"):
            row[2] += 1
    return {
        "meta": meta,
        "spans": len(spans),
        "traces": len(traces),
        "metric_records": len(metrics),
        "by_operation": rows(_durations(spans),
                             "count", "mean", "p95", "maximum"),
        "invocation_by_node": rows(_durations(invokes, "node"),
                                   "count", "mean", "p95"),
        "invocation_by_object": rows(_durations(invokes, "oid"),
                                     "count", "mean", "p95"),
        "traffic_by_source": {
            src: {"packets": int(c), "bytes": int(b), "dropped": int(d)}
            for src, (c, b, d) in sorted(traffic.items())},
        "counters": [
            {"name": m["name"], "labels": dict(sorted(m["labels"].items())),
             "value": m["value"]}
            for m in metrics if m.get("type") == "counter"],
        "histograms": [
            {"name": m["name"], "labels": dict(sorted(m["labels"].items())),
             "count": int(m["summary"]["count"]),
             "mean": m["summary"]["mean"], "p95": m["summary"]["p95"]}
            for m in metrics if m.get("type") == "histogram"],
    }


def _labels_cell(labels: Dict[str, str]) -> str:
    return ",".join("{}={}".format(k, v)
                    for k, v in sorted(labels.items())) or "-"


def render_report(records: List[Dict[str, Any]], out=None,
                  top: int = None) -> None:
    """Print every table the dump supports to ``out`` (default stdout).

    ``top`` clips each table to its first N rows (tables are sorted, so
    this is deterministic) — the knob that keeps reports of large dumps
    readable.
    """
    out = out if out is not None else sys.stdout
    data = report_data(records)
    meta_line = describe_meta(data["meta"])
    if meta_line is not None:
        out.write(meta_line + "\n")
    out.write("{} spans in {} traces, {} metric records\n".format(
        data["spans"], data["traces"], data["metric_records"]))

    render_table("spans by operation",
                 ["operation", "count", "mean (s)", "p95 (s)", "max (s)"],
                 [(name, row["count"], row["mean"], row["p95"],
                   row["maximum"])
                  for name, row in data["by_operation"].items()],
                 out=out, top=top)

    if data["invocation_by_node"]:
        render_table("invocation latency by node",
                     ["node", "count", "mean (s)", "p95 (s)"],
                     [(node, row["count"], row["mean"], row["p95"])
                      for node, row in data["invocation_by_node"].items()],
                     out=out, top=top)
    if data["invocation_by_object"]:
        render_table("invocation latency by object",
                     ["object", "count", "mean (s)", "p95 (s)"],
                     [(oid, row["count"], row["mean"], row["p95"])
                      for oid, row
                      in data["invocation_by_object"].items()],
                     out=out, top=top)

    if data["traffic_by_source"]:
        render_table("traffic by source node",
                     ["node", "packets", "bytes", "dropped"],
                     [(src, row["packets"], row["bytes"], row["dropped"])
                      for src, row in data["traffic_by_source"].items()],
                     out=out, top=top)

    if data["counters"]:
        render_table("counters", ["name", "labels", "value"],
                     [(m["name"], _labels_cell(m["labels"]), m["value"])
                      for m in data["counters"]], out=out, top=top)
    if data["histograms"]:
        render_table("histograms",
                     ["name", "labels", "count", "mean", "p95"],
                     [(m["name"], _labels_cell(m["labels"]), m["count"],
                       m["mean"], m["p95"]) for m in data["histograms"]],
                     out=out, top=top)
