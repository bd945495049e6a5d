"""Dashboard: timeline, hot-spot tables and critical paths, one view.

Usage::

    PYTHONPATH=src python -m repro.obs dashboard run.jsonl
    PYTHONPATH=src python -m repro.obs dashboard timeline-demo \\
        --seed 31 --tables node,op --critical-path

The source is either a **JSONL dump** mixing ``{"kind": "span"}``,
``{"kind": "metric"}`` and ``{"kind": "window"}`` records — e.g. one
written by :func:`repro.obs.export.dump_jsonl` with a ``timeline=``
recorder — or a registered workload, whose result carries its timeline
windows (``timeline-demo`` returns them; workloads without windows
still get span-based tables and critical paths).

Output is deterministic end to end — sorted rows, deterministic span
ids, sim-time windows — so same-seed invocations are byte-identical.
``--format json`` emits the same content as one sorted-keys document.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs._cli import describe_meta, render_table
from repro.obs.critical import critical_summary, render_critical
from repro.obs.tables import all_tables, render_dimension_table

DEFAULT_TABLES = "node,link,actor,op"


def dashboard_data(windows: List[Dict[str, Any]],
                   spans: List[Dict[str, Any]],
                   dims: Sequence[str],
                   critical: bool = False,
                   meta: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """The dashboard as one JSON-safe document."""
    duration = windows[-1]["end"] - windows[0]["start"] if windows else 0.0
    return {
        "meta": meta,
        "windows": len(windows),
        "duration": duration,
        "spans": len(spans),
        "tables": all_tables(windows, spans, dims),
        "critical_path": critical_summary(spans) if critical else None,
    }


def render_dashboard(data: Dict[str, Any],
                     windows: List[Dict[str, Any]],
                     out=None, top: Optional[int] = None,
                     timeline: bool = False,
                     per_trace: bool = False) -> None:
    out = out if out is not None else sys.stdout
    meta_line = describe_meta(data.get("meta"))
    if meta_line is not None:
        out.write(meta_line + "\n")
    out.write("{} window(s) covering {:.4g}s, {} span(s)\n".format(
        data["windows"], data["duration"], data["spans"]))
    if timeline and windows:
        render_table(
            "timeline",
            ["window", "start (s)", "end (s)", "counters", "delta",
             "histograms"],
            [(("{}*".format(w["index"]) if w.get("partial")
               else w["index"]),
              w["start"], w["end"], len(w["counters"]),
              sum(w["counters"].values()), len(w["histograms"]))
             for w in windows],
            out=out, top=top)
    for dim in data["tables"]:
        render_dimension_table(data["tables"][dim], out=out, top=top)
    if data["critical_path"] is not None:
        render_critical(data["critical_path"], out=out, top=top,
                        per_trace=per_trace)
