"""The metrics registry: named, labelled instruments with one snapshot.

Unifies the ad-hoc probes (:class:`~repro.sim.monitor.Tally`,
:class:`~repro.sim.monitor.Counter`, :class:`~repro.sim.monitor.TimeSeries`)
behind named instruments with labels::

    metrics = env.ctx.metrics
    metrics.counter("net.drops", reason="loss").add()
    metrics.histogram("rpc.latency", node="host1").record(0.012)
    metrics.snapshot()   # one dict for benchmark tables / JSONL export

Instruments are created on first use and cached by ``(name, labels)``.
Recording never touches the simulation clock or RNG streams, so enabling
metrics cannot change experiment output.

Batched flushing (PR 10): hot paths that cannot afford an instrument
call per record accumulate into local cells and register a *flush hook*
(:meth:`MetricsRegistry.add_flush_hook`).  Every read path — the keyed
factories, ``counters()``/``snapshot()``/``records()``, the
``*_items()`` iteration the timeline recorder uses at window boundaries,
and the SLO aggregations — runs the hooks first, so readers always see
fresh values while writers schedule zero flush events and pay one int
add per record.  Hooks must be idempotent when their cells are empty.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.context import scope
from repro.sim.monitor import Tally, TimeSeries

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    return "{}{{{}}}".format(
        name, ",".join("{}={}".format(k, v) for k, v in labels))


class CounterInstrument:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return "<Counter {}={}>".format(self.name, self.value)


class HistogramInstrument:
    """A distribution of observations (backed by a Tally)."""

    __slots__ = ("name", "labels", "tally", "_below")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.tally = Tally(name)
        # threshold -> running count of observations <= threshold; a
        # threshold registers on its first count_below() query, so the SLO
        # layer's repeated window evals are O(1) instead of a full rescan.
        self._below: Dict[float, int] = {}

    def record(self, value: float) -> None:
        self.tally.record(value)
        for threshold in self._below:
            if value <= threshold:
                self._below[threshold] += 1

    @property
    def count(self) -> int:
        return self.tally.count

    @property
    def mean(self) -> float:
        return self.tally.mean

    def count_below(self, threshold: float) -> int:
        """Observations ``<= threshold`` (the SLO "good event" count).

        The first query for a threshold scans the recorded values once and
        registers it; later records keep the count incrementally.
        """
        cached = self._below.get(threshold)
        if cached is None:
            cached = sum(1 for value in self.tally.values
                         if value <= threshold)
            self._below[threshold] = cached
        return cached

    def summary(self) -> Dict[str, float]:
        return self.tally.summary()

    def __repr__(self) -> str:
        return "<Histogram {} n={}>".format(self.name, self.tally.count)


class GaugeInstrument:
    """A sampled value over simulated time (backed by a TimeSeries)."""

    __slots__ = ("name", "labels", "series")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]
                 ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.series = TimeSeries(name)

    def set(self, value: float, at: float) -> None:
        self.series.record(at, value)

    @property
    def last(self) -> float:
        return self.series.samples[-1][1] if self.series.samples else 0.0

    def __repr__(self) -> str:
        return "<Gauge {}={}>".format(self.name, self.last)


class MetricsRegistry:
    """All instruments for one collection scope, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[LabelKey, CounterInstrument] = {}
        self._histograms: Dict[LabelKey, HistogramInstrument] = {}
        self._gauges: Dict[LabelKey, GaugeInstrument] = {}
        # Deferred-write hooks (see module docstring).  _flushing guards
        # against recursion: a hook folding its cells goes through the
        # keyed factories, which flush on entry.
        self._flush_hooks: List[Any] = []
        self._flushing = False

    # -- batched flushing --------------------------------------------------

    def add_flush_hook(self, hook) -> None:
        """Register a zero-arg callable run before every read.

        The contract for batching writers: accumulate locally, register
        one hook, fold everything pending into the real instruments when
        called.  Hooks run in registration order and must be no-ops when
        nothing is pending.
        """
        self._flush_hooks.append(hook)

    def _flush(self) -> None:
        if not self._flush_hooks or self._flushing:
            return
        self._flushing = True
        try:
            for hook in self._flush_hooks:
                hook()
        finally:
            self._flushing = False

    # -- instrument factories (create-on-first-use, cached) ----------------

    def counter(self, name: str, **labels: Any) -> CounterInstrument:
        if self._flush_hooks:
            self._flush()
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = CounterInstrument(
                name, key[1])
        return instrument

    def histogram(self, name: str, **labels: Any) -> HistogramInstrument:
        if self._flush_hooks:
            self._flush()
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = HistogramInstrument(
                name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> GaugeInstrument:
        if self._flush_hooks:
            self._flush()
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = GaugeInstrument(name, key[1])
        return instrument

    # -- bound handles (the hot-path API) ----------------------------------
    #
    # ``counter()`` re-keys (tuple(sorted(...)) + str()) on every call; the
    # bind_* methods are the documented way to pay that once and keep the
    # instrument, e.g. ``sent = registry.bind_counter("net.sent")`` at
    # construction, ``sent.add()`` per packet.  They return the same cached
    # instrument the keyed API would, so reads via ``counter()``/queries
    # see every bound update.

    def bind_counter(self, name: str, **labels: Any) -> CounterInstrument:
        return self.counter(name, **labels)

    def bind_histogram(self, name: str, **labels: Any) -> HistogramInstrument:
        return self.histogram(name, **labels)

    def bind_gauge(self, name: str, **labels: Any) -> GaugeInstrument:
        return self.gauge(name, **labels)

    # -- querying ----------------------------------------------------------

    def counters(self, name: Optional[str] = None
                 ) -> Dict[str, int]:
        """Counter values, optionally restricted to one instrument name.

        Keys are sorted (name, then label tuples), never insertion- or
        hash-ordered, so digests over the result are stable across
        ``PYTHONHASHSEED`` — the same guarantee :meth:`snapshot`,
        :meth:`histograms`, :meth:`gauges` and :meth:`records` make.
        """
        self._flush()
        return {_render(key): instrument.value
                for key, instrument in sorted(self._counters.items())
                if name is None or key[0] == name}

    def histograms(self, name: Optional[str] = None
                   ) -> Dict[str, Dict[str, float]]:
        """Histogram summaries, optionally restricted to one name
        (sorted keys; see :meth:`counters`)."""
        self._flush()
        return {_render(key): instrument.summary()
                for key, instrument in sorted(self._histograms.items())
                if name is None or key[0] == name}

    def gauges(self, name: Optional[str] = None) -> Dict[str, float]:
        """Last gauge values, optionally restricted to one name
        (sorted keys; see :meth:`counters`)."""
        self._flush()
        return {_render(key): instrument.last
                for key, instrument in sorted(self._gauges.items())
                if name is None or key[0] == name}

    # -- instrument iteration (the timeline recorder's read path) ----------
    #
    # Sorted ``(rendered_key, instrument)`` pairs.  Handing out the
    # instrument objects themselves lets a sampler difference live values
    # in O(instruments) per window — no per-label keyed lookups — which
    # is the same trick the bind_* hot-path API uses for writes.

    def counter_items(self) -> List[Tuple[str, CounterInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._counters.items())]

    def histogram_items(self) -> List[Tuple[str, HistogramInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._histograms.items())]

    def gauge_items(self) -> List[Tuple[str, GaugeInstrument]]:
        self._flush()
        return [(_render(key), inst)
                for key, inst in sorted(self._gauges.items())]

    # -- aggregation across label sets (the SLO layer's read path) ---------

    @staticmethod
    def _matches(key: LabelKey, name: str, labels: Dict[str, Any]) -> bool:
        """Does an instrument key match ``name`` + a label *subset*?"""
        if key[0] != name:
            return False
        have = dict(key[1])
        return all(have.get(k) == str(v) for k, v in labels.items())

    def counter_total(self, name: str, **labels: Any) -> int:
        """Sum of every counter named ``name`` whose labels ⊇ ``labels``."""
        self._flush()
        return sum(inst.value for key, inst in sorted(self._counters.items())
                   if self._matches(key, name, labels))

    def histogram_count(self, name: str, **labels: Any) -> int:
        """Total observations across matching histograms."""
        self._flush()
        return sum(inst.count
                   for key, inst in sorted(self._histograms.items())
                   if self._matches(key, name, labels))

    def histogram_count_below(self, name: str, threshold: float,
                              **labels: Any) -> int:
        """Observations ``<= threshold`` across matching histograms."""
        self._flush()
        return sum(inst.count_below(threshold)
                   for key, inst in sorted(self._histograms.items())
                   if self._matches(key, name, labels))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as one nested dict for tables and assertions."""
        self._flush()
        return {
            "counters": {_render(key): inst.value
                         for key, inst in sorted(self._counters.items())},
            "histograms": {_render(key): inst.summary()
                           for key, inst in
                           sorted(self._histograms.items())},
            "gauges": {_render(key): inst.last
                       for key, inst in sorted(self._gauges.items())},
        }

    def records(self) -> Iterator[Dict[str, Any]]:
        """Flat metric records for the JSONL exporter."""
        self._flush()
        for key, counter in sorted(self._counters.items()):
            yield {"kind": "metric", "type": "counter", "name": key[0],
                   "labels": dict(key[1]), "value": counter.value}
        for key, hist in sorted(self._histograms.items()):
            yield {"kind": "metric", "type": "histogram", "name": key[0],
                   "labels": dict(key[1]), "summary": hist.summary()}
        for key, gauge in sorted(self._gauges.items()):
            yield {"kind": "metric", "type": "gauge", "name": key[0],
                   "labels": dict(key[1]), "value": gauge.last,
                   "samples": len(gauge.series.samples)}

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._gauges.clear()
        # Hooks go too: a batching writer holds bound handles into the
        # cleared instrument dicts, so replaying its cells would resurrect
        # orphaned instruments with partial counts.
        self._flush_hooks.clear()

    def __repr__(self) -> str:
        return "<MetricsRegistry counters={} histograms={} gauges={}>".format(
            len(self._counters), len(self._histograms), len(self._gauges))


class _NullCounter:
    """Shared no-op counter; reads as permanently zero."""

    __slots__ = ()
    name = ""
    labels: Dict[str, str] = {}
    value = 0

    def add(self, amount: int = 1) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullCounter>"


class _NullHistogram:
    """Shared no-op histogram; reads as permanently empty."""

    __slots__ = ()
    name = ""
    labels: Dict[str, str] = {}
    count = 0
    mean = 0.0

    def record(self, value: float) -> None:
        pass

    def count_below(self, threshold: float) -> int:
        return 0

    def summary(self) -> Dict[str, float]:
        return {"count": 0}

    def __repr__(self) -> str:
        return "<NullHistogram>"


class _NullGauge:
    """Shared no-op gauge; reads as permanently zero."""

    __slots__ = ()
    name = ""
    labels: Dict[str, str] = {}
    last = 0.0

    def set(self, value: float, at: float) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullGauge>"


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()
NULL_GAUGE = _NullGauge()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are shared no-op singletons.

    Install it (``use_metrics(NullRegistry())``) to make every
    instrumentation site pay ~zero: no keying, no instrument
    creation, no storage.  All queries read as empty/zero, and gauges
    ignore their timestamps, so a NullRegistry can be shared across runs.
    """

    def counter(self, name: str, **labels: Any) -> CounterInstrument:
        return NULL_COUNTER  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> HistogramInstrument:
        return NULL_HISTOGRAM  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> GaugeInstrument:
        return NULL_GAUGE  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "<NullRegistry>"


class BoundCounterCache:
    """Bound counters of ``registry`` for one instrument whose last label
    varies.

    For hot sites like per-destination retry counters: the keyed lookup
    (``registry.counter(name, node=..., dst=...)``) is paid once per
    label value instead of per call::

        self._retries = BoundCounterCache(env.ctx.metrics, "chan.retries",
                                          "dst", node=name)
        ...
        self._retries.get(dst).add()
    """

    __slots__ = ("registry", "name", "label", "static", "_bound")

    def __init__(self, registry: MetricsRegistry, name: str, label: str,
                 **static: Any) -> None:
        self.registry = registry
        self.name = name
        self.label = label
        self.static = static
        self._bound: Dict[str, CounterInstrument] = {}

    def get(self, value: str) -> CounterInstrument:
        counter = self._bound.get(value)
        if counter is None:
            labels = dict(self.static)
            labels[self.label] = value
            counter = self._bound[value] = self.registry.bind_counter(
                self.name, **labels)
        return counter


def use_metrics(registry: MetricsRegistry):
    """Scope ``registry``: environments built inside the ``with`` bind it
    as ``env.ctx.metrics`` (see :mod:`repro.sim.context`)."""
    return scope("metrics", registry)
