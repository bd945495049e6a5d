"""``python -m repro.obs``: one command line for every observability view.

Usage::

    PYTHONPATH=src python -m repro.obs report run.jsonl --top 10
    PYTHONPATH=src python -m repro.obs dashboard timeline-demo \\
        --tables node,link --critical-path
    PYTHONPATH=src python -m repro.obs profile traced-rpc --folded run.folded
    PYTHONPATH=src python -m repro.obs diff base.folded new.folded
    PYTHONPATH=src python -m repro.obs diverge locks-hard --seed2 32

Every ``SOURCE`` is resolved the same way: an existing file is a JSONL
dump (:func:`repro.obs.export.dump_jsonl`; malformed lines are skipped
with a note), and anything else must name a registered workload
(:mod:`repro.analysis.workloads`), which runs once at ``--seed`` under a
recording tracer.  ``diverge`` compares two dumps, or two runs of one
workload that differ only in ``--seed2``.

Exit status: 0 on success, 1 when ``diverge`` localized a fork, 2 on a
usage error or unusable input.  Output is written in one piece once the
command has finished, so a reader that closes the pipe early (``|
head``) leaves no traceback and the exit status unchanged.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.obs._cli import describe_meta, extract_meta
from repro.obs.dashboard import (
    DEFAULT_TABLES,
    dashboard_data,
    render_dashboard,
)
from repro.obs.divergence import compare_dumps, localize, render
from repro.obs.export import load_jsonl_tolerant, span_record
from repro.obs.flight import DEFAULT_EPOCH_EVENTS
from repro.obs.profile import (
    SpanProfile,
    diff_folded,
    parse_folded,
    render_diff,
    render_profile,
)
from repro.obs.report import render_report, report_data
from repro.obs.tables import DIMENSIONS
from repro.obs.timeline import load_windows
from repro.obs.tracer import Tracer, use_tracer


class Unusable(Exception):
    """Input a command cannot use: :func:`main` prints it and exits 2."""


class Source(NamedTuple):
    """A resolved ``SOURCE``: its records and where they came from."""

    records: List[Dict[str, Any]]
    meta: Optional[Dict[str, Any]]
    #: The workload that was run, or ``None`` for a dump.
    workload: Optional[str]


def positive(text: str) -> int:
    """An ``argparse`` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, not {}".format(value))
    return value


# -- SOURCE resolution -----------------------------------------------------


def load_dump(path: str) -> List[Dict[str, Any]]:
    """The records of a JSONL dump; :class:`Unusable` if it has none."""
    try:
        records, skipped = load_jsonl_tolerant(path)
    except OSError as exc:
        raise Unusable("cannot read {}: {}".format(path, exc))
    if skipped:
        sys.stderr.write("note: skipped {} malformed JSONL line(s) "
                         "(truncated dump?)\n".format(skipped))
    if not records:
        raise Unusable("{} contains no parseable records".format(path))
    return records


def workload(name: str) -> str:
    """``name`` if it is a registered workload, else :class:`Unusable`."""
    # Imported here: the registry pulls in most of the library, which
    # reading a dump does not need.
    from repro.analysis.workloads import WORKLOADS

    if name not in WORKLOADS:
        raise Unusable("cannot read {!r}: no such dump file, and unknown "
                       "workload; known workloads: {}".format(
                           name, ", ".join(sorted(WORKLOADS))))
    return name


def resolve(source: str, seed: int) -> Source:
    """Load ``source`` as a dump, or run it once as a workload."""
    if os.path.isfile(source):
        records = load_dump(source)
        return Source(records, extract_meta(records), None)
    from repro.analysis.replay import run_isolated

    name = workload(source)
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_isolated(name, seed)
    records = [span_record(span) for span in tracer.spans]
    records.extend(result.get("windows") or [])
    return Source(records, {"workload": name, "seed": seed}, name)


# -- subcommands -----------------------------------------------------------


def _json(document: Dict[str, Any], out) -> None:
    out.write(json.dumps(document, sort_keys=True, indent=2) + "\n")


def _report(options, out) -> int:
    records = resolve(options.source, options.seed).records
    if options.format == "json":
        _json(report_data(records), out)
    else:
        render_report(records, out=out, top=options.top)
    return 0


def _dashboard(options, out) -> int:
    dims = [dim.strip() for dim in options.tables.split(",")
            if dim.strip()]
    unknown = [dim for dim in dims if dim not in DIMENSIONS]
    if unknown:
        raise Unusable("unknown table dimension(s): {} (have: {})".format(
            ", ".join(unknown), ", ".join(sorted(DIMENSIONS))))
    source = resolve(options.source, options.seed)
    windows = load_windows(source.records)
    spans = [r for r in source.records if r.get("kind") == "span"]
    data = dashboard_data(windows, spans, dims,
                          critical=options.critical_path,
                          meta=source.meta)
    if options.format == "json":
        _json(data, out)
    else:
        render_dashboard(data, windows, out=out, top=options.top,
                         timeline=options.timeline,
                         per_trace=options.per_trace)
    return 0


def _profile(options, out) -> int:
    source = resolve(options.source, options.seed)
    profile = SpanProfile.from_records(source.records)
    if source.workload is None:
        meta_line = describe_meta(source.meta)
        if meta_line is not None:
            out.write(meta_line + "\n")
    elif not len(profile):
        sys.stderr.write("note: workload {!r} emitted no finished "
                         "spans\n".format(source.workload))
    render_profile(profile, out=out, top=options.top)
    if options.folded:
        lines = profile.dump_folded(options.folded)
        out.write("\nwrote {} folded stack(s) to {}\n".format(
            lines, options.folded))
    return 0


def _diff(options, out) -> int:
    old, new = options.folded
    try:
        rows = diff_folded(parse_folded(old), parse_folded(new))
    except (OSError, ValueError) as exc:
        raise Unusable(str(exc))
    render_diff(rows, out=out)
    return 0


def _diverge(options, out) -> int:
    if os.path.isfile(options.source):
        if options.source2 is None:
            raise Unusable("a dump is compared against a second dump: "
                           "diverge A.jsonl B.jsonl")
        try:
            report = compare_dumps(
                load_dump(options.source), load_dump(options.source2),
                context=options.context,
                labels=(options.source, options.source2))
        except ValueError as exc:
            raise Unusable(str(exc))
    else:
        name = workload(options.source)
        if options.source2 is not None:
            raise Unusable("a workload is compared against itself at "
                           "--seed2, not against {!r}".format(
                               options.source2))
        report = localize(name, options.seed, options.seed2,
                          epoch_events=options.epoch_events,
                          context=options.context)
    if options.format == "json":
        _json(report, out)
    else:
        render(report, out=out)
    return 1 if report["diverged"] else 0


# -- the parser ------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability views over a JSONL dump or a "
                    "registered workload.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("source", metavar="SOURCE",
                        help="a dump_jsonl() file, or the name of a "
                             "registered workload to run")
    source.add_argument("--seed", type=int, default=31,
                        help="workload seed (default 31)")
    top = argparse.ArgumentParser(add_help=False)
    top.add_argument("--top", type=positive, default=None, metavar="N",
                     help="show at most N rows per table")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="text (default) or one JSON document")

    report = commands.add_parser(
        "report", parents=[source, top, fmt],
        help="latency and traffic tables")
    report.set_defaults(run=_report)

    dashboard = commands.add_parser(
        "dashboard", parents=[source, top, fmt],
        help="timeline, hot-spot and critical-path tables")
    dashboard.add_argument("--tables", default=DEFAULT_TABLES,
                           metavar="DIMS",
                           help="comma-separated dimensions to roll up "
                                "(default {})".format(DEFAULT_TABLES))
    dashboard.add_argument("--critical-path", action="store_true",
                           help="aggregate span critical paths into a "
                                "bottleneck table")
    dashboard.add_argument("--per-trace", action="store_true",
                           help="with --critical-path, also print each "
                                "trace's own path")
    dashboard.add_argument("--timeline", action="store_true",
                           help="print the per-window activity table")
    dashboard.set_defaults(run=_dashboard)

    profile = commands.add_parser(
        "profile", parents=[source, top],
        help="simulated time by operation, node and actor")
    profile.add_argument("--folded", metavar="PATH",
                         help="also write folded stacks (flamegraph.pl / "
                              "speedscope input) to PATH")
    profile.set_defaults(run=_profile)

    diff = commands.add_parser(
        "diff", help="per-operation sim-time deltas between two folded "
                     "dumps; all zero proves two runs spent simulated "
                     "time identically")
    diff.add_argument("folded", nargs=2, metavar="FOLDED",
                      help="the old, then the new folded-stack dump")
    diff.set_defaults(run=_diff)

    diverge = commands.add_parser(
        "diverge", parents=[source, fmt],
        help="localize the first divergent flight epoch of two runs "
             "or two dumps")
    diverge.add_argument("source2", metavar="SOURCE2", nargs="?",
                         help="the second dump, when SOURCE is a dump")
    diverge.add_argument("--seed2", type=int, default=None,
                         help="second run's seed (default: --seed, a "
                              "determinism self-compare)")
    diverge.add_argument("--epoch-events", type=positive,
                         default=DEFAULT_EPOCH_EVENTS, metavar="N",
                         help="events per digest epoch (default {})"
                         .format(DEFAULT_EPOCH_EVENTS))
    diverge.add_argument("--context", type=positive, default=8,
                         metavar="K",
                         help="preceding records to show per run "
                              "(default 8)")
    diverge.set_defaults(run=_diverge)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = _parser().parse_args(argv)
    out = io.StringIO()
    try:
        status = options.run(options, out)
    except Unusable as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader (e.g. ``| head``) closed the pipe early: not an
        # error, and the status stands.
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
