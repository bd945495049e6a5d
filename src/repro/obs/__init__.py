"""Observability: causal tracing, the metrics registry and exporters.

The paper's management requirement (§4.2.1) — *"management functions
must be aware of the pattern of use of objects"* — needs a measurement
substrate.  This package provides it for every layer of the middleware:

* **Tracing** — :class:`Tracer` / :class:`Span` build causal trees across
  nucleus invocation, packet transit and remote execution, with contexts
  propagated through packet headers (:mod:`repro.obs.propagation`).  A
  run built outside every tracer scope binds the zero-cost
  :class:`NoopTracer`; build it inside :func:`use_tracer` to collect.
* **Metrics** — :class:`MetricsRegistry` unifies counters, histograms and
  gauges behind named, labelled instruments with one :meth:`snapshot()
  <MetricsRegistry.snapshot>`; ``bind_counter``/``bind_histogram``/
  ``bind_gauge`` return the instrument itself for hot paths, and
  :class:`NullRegistry` makes metrics-off runs pay ~zero.
* **Sampling** — :class:`Sampler` makes a deterministic keep/drop
  decision per trace (same seed + rate ⇒ same traces, run after run);
  the decision rides in packet headers so sampled traces stay complete
  across nuclei, and ``max_spans`` bounds retention with a ring buffer.
* **Profiling** — :class:`SpanProfile` turns span enter/exit into
  per-operation / per-node / per-actor simulated-time accounting and
  folded flame-graph stacks; ``python -m repro.obs profile`` runs it
  over any registered workload or dump.
* **SLOs** — :mod:`repro.obs.slo` evaluates declarative objectives over
  the registry with multi-window burn rates and records alert events.
* **Export** — :func:`dump_jsonl` (machine-readable) and
  :func:`dump_chrome_trace` (opens in ``about:tracing`` / Perfetto), plus
  ``python -m repro.obs report`` for latency/traffic tables.
* **Timeline** — :class:`TimelineRecorder` snapshots instrument deltas
  at fixed sim-time windows (zero extra events, so replay digests are
  unaffected); :func:`dimension_table` rolls windows + spans into
  per-node/link/actor/op hot-spot tables with Zipf-skew coefficients;
  :func:`critical_summary` extracts per-trace critical paths.
  ``python -m repro.obs dashboard`` fronts all three.
* **Flight recorder** — :class:`FlightRecorder` journals kernel-level
  decisions (dispatch, RNG draws, packet hops/drops, lock transitions,
  actor lifecycles) into a bounded ring with chained per-epoch digests;
  ``python -m repro.obs diverge`` binary-searches two runs' digests
  to the first divergent epoch and prints the first mismatched record
  with causal context.  :class:`BlackBox` dumps the last flight
  records, metrics and open spans when a workload raises or an SLO
  burn alert fires.

Every instrument is installed by a scope (:func:`use_tracer`,
:func:`use_metrics`, :func:`use_flight`) and bound by each environment
built inside it as ``env.ctx.tracer``, ``env.ctx.metrics`` and
``env.ctx.flight`` (:mod:`repro.sim.context`); an environment built
outside a metrics scope gets its own fresh registry.

Quick start::

    from repro import obs

    sampler = obs.Sampler(rate=0.1, seed=31)
    with obs.use_tracer(obs.Tracer(sampler=sampler)) as tracer:
        ... build and run any simulation ...
    obs.dump_jsonl("run.jsonl", tracer=tracer)
    obs.dump_chrome_trace("run.trace.json", tracer=tracer)
"""

from repro.obs.export import (
    META_SCHEMA,
    chrome_trace,
    dump_chrome_trace,
    dump_jsonl,
    load_jsonl,
    load_jsonl_tolerant,
    meta_record,
)
from repro.obs.flight import (
    NOOP_FLIGHT,
    BlackBox,
    FlightRecorder,
    NoopFlightRecorder,
    use_flight,
)
from repro.obs.metrics import (
    CounterInstrument,
    GaugeInstrument,
    HistogramInstrument,
    MetricsRegistry,
    NullRegistry,
    use_metrics,
)
from repro.obs.critical import critical_path, critical_summary
from repro.obs.profile import SpanProfile, render_profile
from repro.obs.propagation import TRACE_HEADER, extract, inject
from repro.obs.sampling import Sampler
from repro.obs.span import NOOP_SPAN, NoopSpan, Span, SpanContext
from repro.obs.tables import dimension_table, zipf_skew
from repro.obs.timeline import TimelineRecorder, load_windows
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    use_tracer,
)

__all__ = [
    "BlackBox",
    "CounterInstrument",
    "FlightRecorder",
    "GaugeInstrument",
    "HistogramInstrument",
    "META_SCHEMA",
    "MetricsRegistry",
    "NOOP_FLIGHT",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopFlightRecorder",
    "NoopSpan",
    "NoopTracer",
    "NullRegistry",
    "Sampler",
    "Span",
    "SpanContext",
    "SpanProfile",
    "TRACE_HEADER",
    "TimelineRecorder",
    "Tracer",
    "chrome_trace",
    "critical_path",
    "critical_summary",
    "dimension_table",
    "dump_chrome_trace",
    "dump_jsonl",
    "extract",
    "inject",
    "load_jsonl",
    "load_jsonl_tolerant",
    "load_windows",
    "meta_record",
    "render_profile",
    "use_flight",
    "use_metrics",
    "use_tracer",
    "zipf_skew",
]
