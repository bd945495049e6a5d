"""The simulation environment: clock, event queue and run loop.

The event queue is a *ladder/calendar queue*: the next events live in
one sorted "current run" list drained from the tail by ``list.pop()``,
and future events are binned into unsorted buckets that are sorted (C
timsort) only when they become the current run.  Enqueue and dequeue
are O(1) amortised, while the bucket width re-anchors automatically
from the observed event density, so Zipf-skewed delay distributions
keep near-target run lengths.  Events dispatch in the total order
``(time, priority, eid)``.  Every enqueue goes through
:meth:`Environment._push`, so no code outside this module knows how the
queue stores its entries.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.context import current
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    Process,
    Timeout,
)

Infinity = float("inf")

# Pre-bound allocator for Environment.timeout's fast path.
_new_timeout = Timeout.__new__

# Queue keys pack (priority, eid) into one int: priority in the high
# bits, the schedule-order tiebreaker below — priority dominates, then
# insertion order.  The queue stores *negated* entries
# ``(-time, -key, event)`` so the current run sorts ascending yet pops
# the earliest event from the tail (an O(1) C ``list.pop()``, with no
# consumed prefix for in-run insorts to trip over).
_PRIORITY_SHIFT = 48
_NORMAL_BASE = NORMAL << _PRIORITY_SHIFT
_EID_MASK = (1 << _PRIORITY_SHIFT) - 1

# Calendar-queue tuning.  A promoted bucket near _RUN_TARGET entries
# keeps in-run insorts cheap (short memmoves) while amortising one C
# sort per ~target events; a bucket past _RUN_MAX with a nonzero time
# span is re-anchored with a finer width instead (Zipf bursts), and the
# bucket count is capped so sparse epochs never allocate huge arrays.
_RUN_TARGET = 64
_RUN_MAX = 2048
_BUCKET_CAP = 4096


def dispatch_parts(key: int) -> Tuple[int, int]:
    """Split a packed queue key into ``(priority, eid)``.

    The accessor for dispatch journaling: consumers (the flight
    recorder, tests) receive unpacked values and never depend on how
    the queue stores its keys.
    """
    return key >> _PRIORITY_SHIFT, key & _EID_MASK


class EmptySchedule(SimulationError):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to end :meth:`Environment.run` when its until-event fires."""


class Environment:
    """A discrete-event simulation environment.

    All simulated activity in the repro library — network packets, user
    think-times, stream frames, lock waits — is driven by one environment.
    Time is a float in seconds and only advances through :meth:`run`.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Ladder/calendar queue state.  ``_qrun`` holds negated entries
        # sorted ascending (earliest event last); ``_qbuckets[j]`` holds
        # unsorted entries with int((t - _qstart) * _qinvw) == j for
        # j >= _qcursor (buckets below the cursor are always empty —
        # their window is the current run, reached via insort); and
        # ``_qover`` collects everything beyond the bucketed horizon,
        # re-anchored wholesale when the cursor exhausts the buckets.
        # The unanchored bootstrap (no buckets, _qinvw 0.0) routes every
        # push to the overflow until the first promote.
        self._qrun: List[Tuple[float, int, Event]] = []
        self._qbuckets: List[List[Tuple[float, int, Event]]] = []
        self._qcursor = 0
        self._qstart = 0.0
        self._qinvw = 0.0
        self._qover: List[Tuple[float, int, Event]] = []
        # Event-loop counter: a plain int so the hot path stays cheap.
        # (events_scheduled is derived from the schedule-order tiebreaker
        # ``_eid``, which advances in lockstep with it by construction.)
        self.events_processed = 0
        # Window-boundary hook (see set_window_hook): fired from inside
        # the event loop when the clock reaches each boundary, without
        # scheduling any events — so the scheduling counters the replay
        # digests cover are identical with or without a hook installed.
        # With no hook, ``_window_next`` is infinity and the loop pays
        # one float compare per event.
        self._window_hook: Optional[Any] = None
        self._window_interval = 0.0
        self._window_anchor = 0.0
        self._window_index = 0
        self._window_next = Infinity
        #: The instruments this run reports to (see repro.sim.context):
        #: whatever the enclosing use_* scopes installed when the
        #: environment was built, else the no-op defaults and a fresh
        #: metrics registry of its own.
        self.ctx = current()
        # The flight recorder's dispatch hook, hoisted for the run loop:
        # with no recorder it is None and the loop pays one identity
        # check per event, mirroring the window hook.
        flight = self.ctx.flight
        self._flight_dispatch: Optional[Any] = \
            flight.on_dispatch if flight.enabled else None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events ever queued.

        The schedule-order tiebreaker ``_eid`` increments exactly once
        per queued event, so it doubles as this counter — one less
        attribute store on every schedule.
        """
        return self._eid

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced, if any."""
        return self._active_process

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    # repro: fast-path — the kernel's hottest allocation site; no
    # blocking claims here (repro.analysis.protocol enforces RPR204).
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        This is the kernel's hottest allocation site (one per packet hop,
        think-gap and retry timer), so the event is built field-by-field
        — observably identical to ``Timeout(...)``, including the
        scheduling counters the replay digests cover.
        """
        if delay < 0:
            raise SimulationError("negative delay: {!r}".format(delay))
        event = _new_timeout(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._exception = None
        event._ok = True
        event.defused = False
        event.delay = delay
        self._eid += 1
        self._push(self._now + delay, _NORMAL_BASE + self._eid, event)
        return event

    def process(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator.

        ``name`` optionally labels the process as an *actor* for the
        sim-time profiler (:mod:`repro.obs.profile`): while a recording
        tracer is installed, the process's whole lifetime is wrapped in
        an ``actor.run`` span (exposed as ``process.span``), so per-actor
        simulated-time accounting — and parenting of the actor's own
        spans via ``env.active_process.span`` — comes for free.  Unnamed
        processes and runs without a tracer are completely unaffected.
        """
        process = Process(self, generator)
        if name is not None:
            tracer = self.ctx.tracer
            if tracer.enabled:
                span = tracer.start_span("actor.run", at=self._now,
                                         actor=name)
                process.span = span
                process.callbacks.append(
                    lambda _event: span.finish(at=self._now))
            flight = self.ctx.flight
            if flight.journal_actors:
                flight.record_spawn(name)
                process.callbacks.append(
                    lambda event: flight.record_exit(name, event._ok))
        return process

    def all_of(self, events) -> AllOf:
        """An event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` to fire ``delay`` seconds from now."""
        self._eid += 1
        self._push(self._now + delay,
                   (priority << _PRIORITY_SHIFT) + self._eid, event)

    # repro: fast-path — the one ladder enqueue: every queued event in
    # sim/ and net/ goes through here.
    def _push(self, time: float, key: int, event: Event) -> None:
        """Queue ``event`` at ``time`` under the packed ``key``.

        The one enqueue, so the entry format and the ``_q*`` fields stay
        private to this class; callers that account eids themselves
        (fused grants, store dispatch) pass the key they allocated.
        Preserves the exact ``(time, key)`` order.

        The bucket index is computed *only* from ``int((time - start) *
        invw)`` — never from a separately-derived boundary — so two
        entries with the same time can never be routed inconsistently by
        float rounding.  Entries mapping below the cursor belong to the
        current run's window (or, for ``j < 0``, precede the anchor
        entirely) and are insorted into the sorted run; entries beyond
        the bucketed horizon collect in the overflow until a re-anchor.
        ``time`` at or beyond ~1e308 (or infinity) would overflow the
        index arithmetic; those park in the overflow, whose re-anchor
        degenerates to a single sorted run.
        """
        entry = (-time, -key, event)
        try:
            j = int((time - self._qstart) * self._qinvw)
        except (OverflowError, ValueError):
            self._qover.append(entry)
            return
        if j < self._qcursor:
            insort(self._qrun, entry)
        else:
            buckets = self._qbuckets
            if j < len(buckets):
                buckets[j].append(entry)
            else:
                self._qover.append(entry)

    def _promote(self) -> bool:
        """Make the current run non-empty; False when the queue is dry.

        Advances the bucket cursor to the next non-empty bucket and
        sorts it into place as the run (one C sort per ~_RUN_TARGET
        events).  Oversized buckets with a nonzero time span re-anchor
        at a finer width — remaining buckets demote to the overflow
        first, so one dense window cannot starve the epoch.  When the
        buckets are exhausted the overflow re-anchors wholesale with a
        width chosen from its own density (span * target / count):
        sparse epochs widen, dense epochs narrow, no manual tuning.
        """
        while True:
            if self._qrun:
                return True
            buckets = self._qbuckets
            j = self._qcursor
            n = len(buckets)
            while j < n and not buckets[j]:
                j += 1
            if j < n:
                bucket = buckets[j]
                buckets[j] = []
                self._qcursor = j + 1
                if len(bucket) > _RUN_MAX:
                    times = [entry[0] for entry in bucket]
                    lo, hi = -max(times), -min(times)
                    if lo < hi < Infinity:
                        over = self._qover
                        for rest in buckets[self._qcursor:]:
                            if rest:
                                over.extend(rest)
                        self._reanchor(bucket, lo, hi)
                        continue
                    # Zero span (a dense same-time burst): no width can
                    # split it; sort once and serve it as one run.
                bucket.sort()
                self._qrun = bucket
                return True
            over = self._qover
            if not over:
                # Fully drained: back to the unanchored bootstrap so
                # later pushes can't index stale windows.
                self._qbuckets = []
                self._qcursor = 0
                self._qstart = 0.0
                self._qinvw = 0.0
                return False
            self._qover = []
            times = [entry[0] for entry in over]
            lo, hi = -max(times), -min(times)
            if -Infinity < lo < hi < Infinity:
                self._reanchor(over, lo, hi)
                continue
            # Single-instant or non-finite epoch: serve it as one
            # sorted run; cursor 1 + zero inverse width routes every
            # push (j == 0 < 1) into the run until it drains.
            over.sort()
            self._qrun = over
            self._qbuckets = []
            self._qcursor = 1
            self._qstart = 0.0
            self._qinvw = 0.0
            return True

    def _reanchor(self, entries: List[Tuple[float, int, Event]],
                  lo: float, hi: float) -> None:
        """Rebuild the buckets over ``entries`` spanning [lo, hi].

        Width targets ~_RUN_TARGET entries per bucket at the observed
        density; the bucket count is capped so a sparse far-future tail
        cannot allocate unbounded arrays (the tail simply lands in the
        last bucket and re-splits on its own promote).
        """
        count = len(entries)
        span = hi - lo
        width = span * _RUN_TARGET / count
        buckets_needed = int(span / width) + 2
        if buckets_needed > _BUCKET_CAP:
            buckets_needed = _BUCKET_CAP
            width = span / (buckets_needed - 1)
        try:
            invw = 1.0 / width
        except ZeroDivisionError:
            invw = Infinity
        if not 0.0 < invw < Infinity:
            # Degenerate width (subnormal span or overflow): same
            # single-sorted-run fallback as a zero-span epoch.
            entries.sort()
            self._qrun = entries
            self._qbuckets = []
            self._qcursor = 1
            self._qstart = 0.0
            self._qinvw = 0.0
            return
        buckets: List[List[Tuple[float, int, Event]]] = \
            [[] for _ in range(buckets_needed)]
        last = buckets_needed - 1
        for entry in entries:
            j = int((-entry[0] - lo) * invw)
            if j > last:
                j = last
            elif j < 0:
                j = 0
            buckets[j].append(entry)
        self._qbuckets = buckets
        self._qcursor = 0
        self._qstart = lo
        self._qinvw = invw

    def _queue_depth(self) -> int:
        """Pending events across run, buckets and overflow."""
        return len(self._qrun) + sum(map(len, self._qbuckets)) \
            + len(self._qover)

    # -- window-boundary hook ----------------------------------------------

    def set_window_hook(self, interval: float, callback,
                        start: Optional[float] = None) -> None:
        """Call ``callback(boundary_time)`` at fixed sim-time boundaries.

        Boundaries are ``start + k*interval`` for ``k = 1, 2, ...``
        (``start`` defaults to the current time).  The hook fires from
        inside the event loop, *before* the callbacks of the event that
        reached the boundary run, so a flush at boundary ``B`` observes
        exactly the effects of events with ``t < B`` — a deterministic
        cut of the timeline.  No events are scheduled on its behalf:
        ``events_scheduled`` / ``events_processed`` are identical with
        or without a hook, which is what keeps timeline recording
        invisible to replay digests.  The callback must not advance the
        clock; scheduling new events from it is allowed but defeats
        that invisibility.

        Only one hook may be installed at a time (the timeline recorder
        owns it); installing over an existing one raises.
        """
        if interval <= 0:
            raise SimulationError(
                "window interval must be positive: {!r}".format(interval))
        if self._window_hook is not None:
            raise SimulationError("a window hook is already installed")
        self._window_hook = callback
        self._window_interval = float(interval)
        self._window_anchor = self._now if start is None else float(start)
        self._window_index = 1
        self._window_next = self._window_anchor + self._window_interval

    def clear_window_hook(self) -> None:
        """Uninstall the window hook (idempotent)."""
        self._window_hook = None
        self._window_interval = 0.0
        self._window_anchor = 0.0
        self._window_index = 0
        self._window_next = Infinity

    def _fire_window_hook(self) -> None:
        """Fire the hook for every boundary the clock has reached.

        Boundaries are computed as ``anchor + index*interval`` (not by
        repeated addition), so long runs do not accumulate float drift.
        """
        hook = self._window_hook
        while self._now >= self._window_next:
            boundary = self._window_next
            self._window_index += 1
            self._window_next = self._window_anchor \
                + self._window_index * self._window_interval
            hook(boundary)

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        if not self._qrun and not self._promote():
            return Infinity
        return -self._qrun[-1][0]

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        if not self._qrun and not self._promote():
            raise EmptySchedule("no more events")
        neg_time, neg_key, event = self._qrun.pop()
        self._now = -neg_time
        key = -neg_key
        if self._flight_dispatch is not None:
            self._flight_dispatch(self._now, key >> _PRIORITY_SHIFT,
                                  key & _EID_MASK)
        if self._now >= self._window_next:
            self._fire_window_hook()
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            raise event._exception

    # repro: fast-path — the drain loop below is step() inlined; no
    # blocking claims here (repro.analysis.protocol enforces RPR204).
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue is empty), a number
        (run until that simulated time) or an :class:`Event` (run until it
        fires, returning its value).
        """
        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise SimulationError(
                        "until ({}) is in the past (now={})".format(
                            at, self._now))
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                self.schedule(until_event, priority=0, delay=at - self._now)
            if until_event.callbacks is None:
                # The event has already been processed; nothing to run.
                return until_event.value if until_event.ok else None
            until_event.callbacks.append(_stop_simulation)
        # The drain loop is step() inlined: at hundreds of thousands of
        # events per run the per-call overhead of dispatching to step()
        # is itself a measurable slice of wall time.  Behaviour
        # (counters, exception escalation, StopSimulation) is identical.
        #
        # The flight dispatch hook is hoisted into a local like the
        # queue: it journals (time, priority, eid) per event and drives
        # the recorder's epoch clock, scheduling zero events — replay
        # digests are identical with or without it (the O2 bench
        # asserts this).  None (the default) costs one check per event.
        #
        # The processed count is batched in a local and flushed once on
        # the way out (including via exceptions): nothing observes
        # ``events_processed`` while run() is on the stack — stats() is
        # only read between runs — and the attribute store per event is
        # measurable at storm scale.
        flight_dispatch = self._flight_dispatch
        processed = 0
        try:
            # Drain: pop the earliest entry off the tail of the sorted
            # run (O(1), physically removed — in-run insorts from
            # callbacks always land among *pending* entries), promoting
            # the next bucket whenever the run empties.  ``while run``
            # re-checks after every event because callbacks may insort
            # into the very list being drained.  The loop body comes in
            # a with-flight and a without-flight variant so the common
            # (no recorder) case skips even the per-event None check,
            # and single-callback events — the overwhelming majority:
            # one waiter per timeout/claim — dispatch without the
            # for-loop setup.
            run = self._qrun
            pop = run.pop
            while True:
                if flight_dispatch is None:
                    while run:
                        neg_time, neg_key, event = pop()
                        self._now = now = -neg_time
                        if now >= self._window_next:
                            self._fire_window_hook()
                        processed += 1
                        callbacks, event.callbacks = event.callbacks, None
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                        if event._ok is False and not event.defused:
                            raise event._exception
                else:
                    while run:
                        neg_time, neg_key, event = pop()
                        self._now = now = -neg_time
                        key = -neg_key
                        flight_dispatch(now, key >> _PRIORITY_SHIFT,
                                        key & _EID_MASK)
                        if now >= self._window_next:
                            self._fire_window_hook()
                        processed += 1
                        callbacks, event.callbacks = event.callbacks, None
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                        if event._ok is False and not event.defused:
                            raise event._exception
                if not self._promote():
                    raise EmptySchedule("no more events")
                run = self._qrun
                pop = run.pop
        except StopSimulation as stop:
            return stop.args[0].value if stop.args[0]._ok else None
        except EmptySchedule:
            if until_event is not None and not until_event.triggered:
                raise SimulationError(
                    "simulation ran out of events before 'until' fired")
            return None
        finally:
            self.events_processed += processed

    # -- convenience -------------------------------------------------------

    def stats(self) -> dict:
        """Event-loop counters (for the observability snapshot)."""
        return {
            "now": self._now,
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "queue_depth": self._queue_depth(),
        }

    def run_all(self, limit: float = 1e9) -> None:
        """Drain the queue, guarding against runaway simulations."""
        while True:
            head = self.peek()
            if head > limit or head == Infinity:
                return
            self.step()


def _stop_simulation(event: Event) -> None:
    raise StopSimulation(event)


def drive(root_factory, until: Any = None) -> Any:
    """Run a fresh environment around a single root process.

    ``root_factory`` is called with the new environment and must return a
    generator, which becomes the root process.  Returns that process's
    return value (or ``None`` if ``until`` cut the run short).
    """
    env = Environment()
    proc = env.process(root_factory(env))
    env.run(proc if until is None else until)
    return proc.value if proc.triggered and proc.ok else None
