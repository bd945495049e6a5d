"""Transports above the raw datagram service: reliable delivery and RPC.

:class:`ReliableChannel` gives per-destination FIFO, exactly-once delivery
via acknowledgements, retransmission and sequence-number deduplication.
:class:`RpcEndpoint` layers request/response invocation (the computational-
viewpoint *operational interface* of ODP) on top of it.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.faults.policies import (
    CircuitOpenError,
    FaultPolicies,
    RetryPolicy,
    fixed_retry,
)
from repro.net.network import Host
from repro.net.packet import Packet
from repro.obs.metrics import BoundCounterCache
from repro.obs.propagation import extract, inject
from repro.sim import Event, Store


class ReliableChannel:
    """Acknowledged, deduplicated, per-sender FIFO delivery on one port.

    Retransmission timing comes from a
    :class:`~repro.faults.policies.RetryPolicy`.  The default —
    ``fixed_retry(ack_timeout, max_retries)`` — reproduces the classic
    constant-interval behaviour exactly; pass ``backoff`` for
    exponential backoff with deterministic jitter under loss.
    """

    def __init__(self, host: Host, port: int = 1,
                 ack_timeout: float = 0.2, max_retries: int = 8,
                 backoff: Optional[RetryPolicy] = None) -> None:
        if max_retries < 0:
            raise TransportError("max_retries must be non-negative")
        self.host = host
        self.env = host.env
        self.port = port
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries if backoff is None \
            else backoff.max_retries
        self.backoff = backoff if backoff is not None \
            else fixed_retry(ack_timeout, max_retries)
        # Sequence numbers are per destination: the receiver reorders by
        # (sender, seq), so a shared counter would leave permanent gaps
        # for receivers that only see part of the stream.
        self._seq: Dict[str, "itertools.count"] = {}
        self._pending_acks: Dict[Tuple[str, int], Event] = {}
        self._expected: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Packet]] = {}
        self._app_inbox = Store(self.env)
        self.retransmissions = 0
        #: Retries performed (== retransmissions; mirrored in the
        #: metrics registry as ``chan.retries``).
        self.retries = 0
        #: Sends abandoned after exhausting every retry
        #: (``chan.gave_up`` in the registry).
        self.gave_up = 0
        #: Sends started but not yet acked or abandoned — the liveness
        #: oracle's view of operations that never resolved (mirrored as
        #: the ``chan.inflight`` gauge).
        self._inflight = 0
        metrics = self.env.ctx.metrics
        self._retry_counters = BoundCounterCache(
            metrics, "chan.retries", "dst", node=host.name)
        self._gave_up_counters = BoundCounterCache(
            metrics, "chan.gave_up", "dst", node=host.name)
        host.on_packet(port, self._on_packet)

    def send(self, dst: str, payload: Any = None, size: int = 0,
             parent=None) -> Event:
        """Send reliably; the event fires on ack or fails TransportError.

        ``parent`` optionally names the caller's span (or span context);
        the send's trace context then rides every data packet so the
        per-link transit spans (and any retransmissions) parent under
        one ``chan.send`` span.
        """
        done = self.env.event()
        self.env.process(self._send_proc(dst, payload, size, done, parent))
        return done

    def receive(self):
        """An event yielding the next in-order packet from any sender."""
        return self._app_inbox.get()

    def inflight(self) -> int:
        """Sends still awaiting an ack (not yet succeeded or given up).

        A send mid-backoff counts: the operation is unresolved even
        though no retransmission is currently on the wire.  After a
        drained run (all faults lifted, senders stopped) this must be
        zero — the liveness property the fuzzer's oracle checks.
        """
        return self._inflight

    def _track(self, delta: int) -> None:
        self._inflight += delta
        self.env.ctx.metrics.gauge("chan.inflight", node=self.host.name) \
            .set(self._inflight, at=self.env.now)

    # -- internals ---------------------------------------------------------

    def _send_proc(self, dst: str, payload: Any, size: int, done: Event,
                   parent=None):
        if dst not in self._seq:
            self._seq[dst] = itertools.count(1)
        seq = next(self._seq[dst])
        self._track(+1)
        span = self.env.ctx.tracer.start_span(
            "chan.send", at=self.env.now, parent=parent,
            node=self.host.name, dst=dst, seq=seq)
        attempts = 0
        while attempts <= self.max_retries:
            ack = self.env.event()
            self._pending_acks[(dst, seq)] = ack
            self.host.send(dst, payload=payload, size=size, port=self.port,
                           headers=inject(span, {"type": "data",
                                                 "seq": seq}))
            if attempts > 0:
                self.retransmissions += 1
                self.retries += 1
                self._retry_counters.get(dst).add()
                span.add_event("retransmit", at=self.env.now,
                               attempt=attempts)
            # The ack wait for attempt N is the backoff delay before
            # retry N — the default fixed_retry policy makes every wait
            # ``ack_timeout``, the channel's historical behaviour.
            result = yield self.env.any_of(
                [ack, self.env.timeout(self.backoff.delay(attempts))])
            if ack in result:
                self._pending_acks.pop((dst, seq), None)
                self._track(-1)
                span.finish(at=self.env.now)
                done.succeed(seq)
                return
            attempts += 1
        self._pending_acks.pop((dst, seq), None)
        self._track(-1)
        self.gave_up += 1
        self._gave_up_counters.get(dst).add()
        span.set_status("error")
        span.set_attribute("error", "no-ack")
        span.finish(at=self.env.now)
        done.fail(TransportError(
            "no ack from {} after {} attempts".format(
                dst, self.max_retries + 1)))

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "ack":
            ack = self._pending_acks.get(
                (packet.src, packet.headers["seq"]))
            if ack is not None and not ack.triggered:
                ack.succeed()
            return
        if kind != "data":
            return
        seq = packet.headers["seq"]
        # Always (re-)acknowledge, even duplicates.
        self.host.send(packet.src, size=0, port=self.port,
                       headers={"type": "ack", "seq": seq})
        # Per-sender sequences start at 1; a later seq arriving first
        # (its predecessor lost, awaiting retransmission) must be held,
        # not adopted as the baseline.
        expected = self._expected.get(packet.src, 1)
        if seq < expected:
            return  # duplicate
        buffer = self._reorder.setdefault(packet.src, {})
        buffer[seq] = packet
        while expected in buffer:
            self._app_inbox.put(buffer.pop(expected))
            expected += 1
        self._expected[packet.src] = expected


class RpcError(TransportError):
    """An RPC failed (timeout or remote exception)."""


class RemoteException(RpcError):
    """The remote handler raised; carries the remote error message."""


class RpcEndpoint:
    """Request/response invocation between hosts.

    Handlers are registered by method name.  A handler may be a plain
    function (runs instantaneously in simulated time) or a generator
    function taking ``(caller, args)`` and yielding simulation events, in
    which case its return value is the RPC result.
    """

    def __init__(self, host: Host, port: int = 2,
                 default_timeout: float = 5.0,
                 request_size: int = 256, response_size: int = 256,
                 policies: Optional[FaultPolicies] = None) -> None:
        self.host = host
        self.env = host.env
        self.port = port
        self.default_timeout = default_timeout
        self.request_size = request_size
        self.response_size = response_size
        #: Optional recovery policies (retry/deadline/circuit-breaker)
        #: applied to outgoing calls.  ``None`` — the default — leaves
        #: the single-attempt behaviour byte-identical.
        self.policies = policies
        self._handlers: Dict[str, Callable] = {}
        self._calls: Dict[int, Event] = {}
        self._call_ids = itertools.count(1)
        self.calls_served = 0
        #: Logical calls started but not yet resolved (succeeded or
        #: failed) — includes calls waiting out a retry backoff, when
        #: nothing is on the wire.  Mirrored as the ``rpc.inflight``
        #: gauge for the dashboard and the fuzzer's liveness oracle.
        self._inflight = 0
        self._retry_counters = BoundCounterCache(
            self.env.ctx.metrics, "rpc.retries", "dst", node=host.name)
        host.on_packet(port, self._on_packet)

    def register(self, method: str, handler: Callable) -> None:
        """Expose ``handler`` under ``method``."""
        self._handlers[method] = handler

    def call(self, dst: str, method: str, args: Any = None,
             timeout: Optional[float] = None, parent=None) -> Event:
        """Invoke ``method`` at ``dst``; the event fires with the result.

        ``parent`` optionally names the caller's span (or span context);
        the call's trace context then rides the request packet so the
        remote side and every link hop join the same trace tree.
        """
        done = self.env.event()
        self.env.process(self._call_proc(
            dst, method, args,
            self.default_timeout if timeout is None else timeout, done,
            parent))
        return done

    def inflight(self) -> int:
        """Calls started but not yet resolved (see ``rpc.inflight``)."""
        return self._inflight

    def _track(self, delta: int) -> None:
        self._inflight += delta
        self.env.ctx.metrics.gauge("rpc.inflight", node=self.host.name) \
            .set(self._inflight, at=self.env.now)

    # -- internals ---------------------------------------------------------

    def _call_proc(self, dst: str, method: str, args: Any,
                   timeout: float, done: Event, parent=None):
        policies = self.policies
        retry = policies.retry if policies is not None else None
        breaker = policies.breaker if policies is not None else None
        budget = policies.budget(self.env) if policies is not None else None
        span = self.env.ctx.tracer.start_span(
            "rpc.call", at=self.env.now, parent=parent,
            node=self.host.name, dst=dst, method=method)
        self._track(+1)
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow(dst):
                span.set_status("error")
                span.set_attribute("error", "circuit-open")
                span.finish(at=self.env.now)
                self._track(-1)
                done.fail(CircuitOpenError(
                    "circuit to {} is open; {} not attempted".format(
                        dst, method)))
                return
            call_id = next(self._call_ids)
            reply = self.env.event()
            self._calls[call_id] = reply
            # The happens-before sanitizer rides the same headers as the
            # trace context: the serving host becomes causally ordered
            # after the caller's history (and vice versa on the response).
            self.host.send(dst, payload={"method": method, "args": args},
                           size=self.request_size, port=self.port,
                           headers=self.env.ctx.sanitizer.inject_clock(
                               inject(span, {"type": "request",
                                             "call": call_id}),
                               self.host.name))
            result = yield self.env.any_of(
                [reply, self.env.timeout(timeout)])
            self._calls.pop(call_id, None)
            if reply in result:
                ok, value = reply.value
                if breaker is not None:
                    # Any response — even a remote exception — proves
                    # the destination reachable; only transport-level
                    # timeouts accrue toward opening the circuit.
                    breaker.record_success(dst)
                span.finish(at=self.env.now)
                self._track(-1)
                if ok:
                    done.succeed(value)
                else:
                    span.set_status("error")
                    done.fail(RemoteException(value))
                return
            # Timed out: maybe retry (within policy and budget).
            if breaker is not None:
                breaker.record_failure(dst)
            delay = None
            if retry is not None and attempt < retry.max_retries:
                delay = retry.delay(attempt)
                if budget is not None and not budget.allows(delay):
                    delay = None
            if delay is None:
                span.set_status("error")
                span.set_attribute("error", "timeout")
                span.finish(at=self.env.now)
                self._track(-1)
                done.fail(RpcError(
                    "call {} to {} timed out after {:g}s".format(
                        method, dst, timeout)))
                return
            self._retry_counters.get(dst).add()
            span.add_event("rpc-retry", at=self.env.now,
                           attempt=attempt, delay=delay)
            yield self.env.timeout(delay)
            attempt += 1

    def _on_packet(self, packet: Packet) -> None:
        kind = packet.headers.get("type")
        if kind == "request":
            self.env.process(self._serve(packet))
        elif kind == "response":
            reply = self._calls.get(packet.headers["call"])
            if reply is not None and not reply.triggered:
                self.env.ctx.sanitizer.extract_clock(packet.headers,
                                                     self.host.name)
                reply.succeed(packet.payload)

    def _serve(self, packet: Packet):
        method = packet.payload["method"]
        args = packet.payload["args"]
        self.env.ctx.sanitizer.extract_clock(packet.headers, self.host.name)
        # The serving span parents under the caller's rpc.call context
        # carried by the request packet; its duration is the remote
        # execution time.
        span = self.env.ctx.tracer.start_span(
            "rpc.serve", at=self.env.now, parent=extract(packet.headers),
            node=self.host.name, caller=packet.src, method=method)
        handler = self._handlers.get(method)
        if handler is None:
            outcome = (False, "no such method: {}".format(method))
        else:
            try:
                result = handler(packet.src, args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    result = yield self.env.process(result)
                outcome = (True, result)
            except Exception as error:  # noqa: BLE001 - forwarded to caller
                outcome = (False, "{}: {}".format(
                    type(error).__name__, error))
        self.calls_served += 1
        if not outcome[0]:
            span.set_status("error")
        span.finish(at=self.env.now)
        self.host.send(packet.src, payload=outcome,
                       size=self.response_size, port=self.port,
                       headers=self.env.ctx.sanitizer.inject_clock(
                           inject(span, {
                               "type": "response",
                               "call": packet.headers["call"]}),
                           self.host.name))
