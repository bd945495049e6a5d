"""The run context: the instruments one simulation run reports to.

An :class:`~repro.sim.Environment` binds one :class:`RunContext` when
it is constructed (``env.ctx``), and every instrumentation site that can
reach the environment reads its tracer, metrics registry, flight
recorder, happens-before sanitizer and fault-schedule override from
there.  Two environments in one process therefore share an instrument
only when one scope installed it for both.

Instruments are installed with the scoped ``use_*`` helpers —
:func:`repro.obs.use_tracer`, :func:`repro.obs.use_metrics`,
:func:`repro.obs.use_flight`, :func:`repro.analysis.use_sanitizer` and
:func:`repro.faults.use_schedule_override` — each a one-line
:func:`scope` over the single ambient slot that :func:`current` reads::

    with use_tracer(Tracer()) as tracer, use_metrics(MetricsRegistry()):
        env = Environment()        # env.ctx.tracer is tracer
        ...
    env.run()                      # still reports to the same tracer

A field no enclosing scope installed gets its default: the no-op
tracer, flight recorder and sanitizer, no override, and a fresh
:class:`~repro.obs.metrics.MetricsRegistry` per context.

The module is stdlib-only at import time.  The defaults are imported
when a context is built, because :mod:`repro.obs` and
:mod:`repro.analysis` themselves import the kernel.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Tuple

#: ``(field, instrument)`` pairs installed by the enclosing ``use_*``
#: scopes, outermost first (a later pair overrides an earlier one).
_installed: Tuple[Tuple[str, Any], ...] = ()


class RunContext:
    """The tracer, metrics, flight recorder, sanitizer and schedule
    override of one run; ``None`` selects a field's default."""

    __slots__ = ("tracer", "metrics", "flight", "sanitizer",
                 "schedule_override")

    def __init__(self, tracer: Any = None, metrics: Any = None,
                 flight: Any = None, sanitizer: Any = None,
                 schedule_override: Any = None) -> None:
        from repro.analysis.hb import NOOP_SANITIZER
        from repro.obs.flight import NOOP_FLIGHT
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import NOOP_TRACER
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.flight = NOOP_FLIGHT if flight is None else flight
        self.sanitizer = NOOP_SANITIZER if sanitizer is None else sanitizer
        #: ``factory(network, schedule) -> schedule`` consulted by every
        #: :class:`~repro.faults.schedule.FaultInjector` (the fuzzer's
        #: injection point), or ``None``.
        self.schedule_override = schedule_override


def current() -> RunContext:
    """A new context holding what the enclosing scopes installed.

    Only code that builds a run calls this: :class:`Environment`
    construction, workload prologues and objects that bind instruments
    without an environment.  Everything else reads ``env.ctx``.
    """
    return RunContext(**dict(_installed))


@contextlib.contextmanager
def scope(field: str, instrument: Any) -> Iterator[Any]:
    """Install ``instrument`` as ``field`` for contexts built inside the
    ``with`` block; yields the instrument and restores on exit."""
    # Scopes nest, so a workload can install a fresh registry inside a
    # caller's tracer scope; exit restores the outer installation even
    # when the block raises.
    # repro: allow-RPR005 (the one ambient slot, read only by current())
    global _installed
    previous = _installed
    _installed = previous + ((field, instrument),)
    try:
        yield instrument
    finally:
        _installed = previous
