"""The network: hosts, packet delivery and per-hop simulation.

A :class:`Network` wraps a :class:`~repro.net.topology.Topology` and moves
:class:`~repro.net.packet.Packet` objects between :class:`Host` objects.
Each packet is driven by its own simulation process: per link it serialises
on the directional channel (transmission delay), then waits the propagation
delay, and may be dropped by the link's loss model.

The carry fuses each hop's channel claim with its transmission wait
into *one* queued event (the grant is virtually accounted — see
:class:`~repro.sim.resources.Request`), elides the accepted-put event on
inbox delivery and the carrier's own no-op end event, and accumulates
the per-packet/per-hop instruments into local cells flushed at
registry-read/window boundaries instead of per packet.  Every elided
event still consumes its eid and processed count at the instant it
would have fired, so scheduling counters, RNG draw order and delivery
times match the unfused one-event-per-step shape exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, RoutingError
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagation import extract
from repro.obs.span import NOOP_SPAN
from repro.sim import Counter, Environment, Process, Store, Tally
from repro.sim.resources import PriorityRequest

_new_process = Process.__new__


class _SyncStart:
    """Pre-fired stub fed to ``Process._resume`` for synchronous starts.

    Stands in for the Initialize event a queued start would have popped:
    permanently ok with a None value, which is exactly what a fresh
    generator's first ``send`` expects.
    """

    __slots__ = ()
    _ok = True
    _value = None


_SYNC_START = _SyncStart()

#: Default packet priority; QoS-reserved flows use lower (better) values.
BEST_EFFORT_PRIORITY = 10
RESERVED_PRIORITY = 0

class _NetMetricCells:
    """Local accumulation cells for the per-packet/per-hop instruments.

    The batched-metrics layer: the hot path pays one int add (or one
    dict get/set for labelled counts) per record instead of a bound-
    instrument method call, and the cells fold into the real registry
    instruments only when somebody reads — every
    :class:`~repro.obs.metrics.MetricsRegistry` read path runs its
    flush hooks first, so the timeline recorder's window-boundary reads
    (riding ``set_window_hook``) and the SLO evaluators always see
    fresh values while the storm itself schedules zero flush events.
    Flush order is sorted, so snapshots stay hash-seed stable.
    """

    __slots__ = ("registry", "network", "sent", "delivered", "latencies",
                 "node_sent", "node_delivered", "link_bytes",
                 "drops", "link_drops",
                 "_sent_inst", "_delivered_inst", "_latency_inst")

    def __init__(self, network: "Network",
                 registry: MetricsRegistry) -> None:
        self.registry = registry
        self.network = network
        self._sent_inst = registry.bind_counter("net.sent")
        self._delivered_inst = registry.bind_counter("net.delivered")
        self._latency_inst = registry.bind_histogram("net.delivery_latency")
        self.sent = 0
        self.delivered = 0
        #: delivery latencies in record order (tally order is observable
        #: through Tally.values, so the flush preserves it).
        self.latencies: List[float] = []
        #: source node -> pending ``net.node.sent`` adds.
        self.node_sent: Dict[str, int] = {}
        #: destination node -> pending ``net.node.delivered`` adds.
        self.node_delivered: Dict[str, int] = {}
        #: link label -> pending ``net.bytes`` adds.
        self.link_bytes: Dict[str, int] = {}
        #: reason -> pending ``net.drops`` adds.  Going through the
        #: keyed factory per drop would flush every cell mid-storm
        #: (factories flush so reads stay fresh) — a chaos schedule's
        #: drop burst must not pay that.
        self.drops: Dict[str, int] = {}
        #: (link label, reason) -> pending ``net.link.drops`` adds.
        self.link_drops: Dict[Tuple[str, str], int] = {}
        registry.add_flush_hook(self.flush)

    def flush(self) -> None:
        """Fold every pending cell into the registry instruments."""
        count = self.sent
        if count:
            self.sent = 0
            self._sent_inst.add(count)
            counts = self.network._counters._counts
            counts["sent"] = counts.get("sent", 0) + count
        count = self.delivered
        if count:
            self.delivered = 0
            self._delivered_inst.add(count)
            counts = self.network._counters._counts
            counts["delivered"] = counts.get("delivered", 0) + count
        registry = self.registry
        if self.node_sent:
            for node, count in sorted(self.node_sent.items()):
                registry.counter("net.node.sent", node=node).add(count)
            self.node_sent.clear()
        if self.node_delivered:
            for node, count in sorted(self.node_delivered.items()):
                registry.counter("net.node.delivered",
                                 node=node).add(count)
            self.node_delivered.clear()
        if self.link_bytes:
            for label, count in sorted(self.link_bytes.items()):
                registry.counter("net.bytes", link=label).add(count)
            self.link_bytes.clear()
        if self.drops:
            for reason, count in sorted(self.drops.items()):
                registry.counter("net.drops", reason=reason).add(count)
            self.drops.clear()
        if self.link_drops:
            for (label, reason), count in sorted(self.link_drops.items()):
                registry.counter("net.link.drops", link=label,
                                 reason=reason).add(count)
            self.link_drops.clear()
        values = self.latencies
        if values:
            self.latencies = []
            record = self._latency_inst.record
            tally_record = self.network._delivery_latency.record
            for value in values:
                tally_record(value)
                record(value)


class Host:
    """A network endpoint attached to a topology node.

    Incoming packets are demultiplexed by port into per-port inboxes;
    a process receives with ``yield host.receive(port)``.  Handlers may be
    registered instead for push-style delivery.
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.env = network.env
        self.name = name
        self._inboxes: Dict[int, Store] = {}
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self.sent = 0
        self.received = 0

    def inbox(self, port: int = 0) -> Store:
        """The inbox store for ``port`` (created on first use)."""
        if port not in self._inboxes:
            self._inboxes[port] = Store(self.env)
        return self._inboxes[port]

    def send(self, dst: str, payload: Any = None, size: int = 0,
             port: int = 0, headers: Optional[Dict[str, Any]] = None) -> Packet:
        """Send a datagram (fire-and-forget); returns the packet."""
        packet = Packet(self.name, dst, payload, size, port,
                        self.env._now, headers)
        self.sent += 1
        self.network.transmit(packet)
        return packet

    def receive(self, port: int = 0):
        """An event yielding the next packet on ``port``."""
        return self.inbox(port).get()

    def on_packet(self, port: int,
                  handler: Callable[[Packet], None]) -> None:
        """Register a push handler for ``port`` (replaces inbox delivery)."""
        self._handlers[port] = handler

    def _deliver(self, packet: Packet) -> None:
        self.received += 1
        packet.delivered_at = self.env.now
        handler = self._handlers.get(packet.port)
        if handler is not None:
            handler(packet)
        else:
            # The put event is discarded here, so Store.put_fast elides
            # it (virtually accounted — digests cannot tell).
            self.inbox(packet.port).put_fast(packet)

    def __repr__(self) -> str:
        return "<Host {}>".format(self.name)


class Network:
    """Moves packets across a topology between registered hosts."""

    def __init__(self, env: Environment, topology: Topology) -> None:
        if topology.env is not env:
            raise NetworkError("topology belongs to a different environment")
        self.env = env
        self.topology = topology
        self.hosts: Dict[str, Host] = {}
        self._counters = Counter()
        self._delivery_latency = Tally("delivery-latency")
        #: Optional hook called with (packet, reason) on every drop.
        self.on_drop: Optional[Callable[[Packet, str], None]] = None
        #: Per-reason drop tally behind :meth:`drop_stats`.
        self._drop_reasons: Dict[str, int] = {}
        self._cells = _NetMetricCells(self, env.ctx.metrics)

    @property
    def counters(self) -> Counter:
        """Legacy sent/delivered/dropped counts (cells flushed first)."""
        self._cells.flush()
        return self._counters

    @property
    def delivery_latency(self) -> Tally:
        """End-to-end delivery latencies (cells flushed first)."""
        self._cells.flush()
        return self._delivery_latency

    def host(self, name: str) -> Host:
        """Create (or fetch) the host attached to topology node ``name``."""
        if name not in self.topology._adjacency:
            raise NetworkError("no topology node named {}".format(name))
        if name not in self.hosts:
            self.hosts[name] = Host(self, name)
        return self.hosts[name]

    def transmit(self, packet: Packet) -> None:
        """Launch the per-packet delivery process."""
        # Process(...) directly rather than env.process(...): carriers
        # are never named actors, so the wrapper's name/tracer handling
        # is pure per-packet overhead.  Detached: nobody subscribes to a
        # carrier, so its end event is elided and virtually accounted
        # (see Process._resume); failures still escalate.  The sent
        # counters live in the carry's cells.
        env = self.env
        if env._active_process is not None:
            # Synchronous start: transmit() was called from inside the
            # run loop (the storm hot path), where an URGENT Initialize
            # at the current instant would pop before any pending NORMAL
            # event anyway — so the generator is primed right here and
            # the Initialize is elided and virtually accounted (eid +
            # processed land at this instant, where the queued start
            # would have allocated and popped it).  Setup-time sends (no
            # active process) keep the queued start, so code that
            # mutates links between send() and run() observes no change.
            carrier = _new_process(Process)
            carrier.env = env
            carrier.callbacks = []
            carrier._value = None
            carrier._exception = None
            carrier._ok = None
            carrier.defused = False
            carrier._generator = self._carry(packet)
            carrier.span = None
            carrier._detached = True
            carrier._target = None
            env._eid += 1
            env.events_processed += 1
            carrier._resume(_SYNC_START)
        else:
            carrier = Process(env, self._carry(packet))
            carrier._detached = True

    # repro: fast-path — per-packet hot loop; no 'with ...request()'
    # claims here (repro.analysis.protocol enforces RPR204).
    def _carry(self, packet: Packet):
        """Carry one packet hop by hop: fused claim+tx, celled metrics.

        Link physics (transmission delay, loss draw, propagation delay)
        is inlined from link.py, which carries the matching notice.
        """
        env = self.env
        tracer = env.ctx.tracer
        cells = self._cells
        cells.sent += 1
        node_sent = cells.node_sent
        src = packet.src
        node_sent[src] = node_sent.get(src, 0) + 1
        wire_size = packet.wire_size
        # Transit spans parent under whatever context the sender stamped
        # into the packet headers (e.g. an rpc.call span), so one trace
        # tree covers the request end to end.  With the tracer disabled
        # the span (and the header extraction feeding it) is skipped
        # outright — NOOP_SPAN behaves identically to what
        # NoopTracer.start_span would have returned.
        if tracer.enabled:
            span = tracer.start_span(
                "net.transmit", at=env.now, parent=extract(packet.headers),
                src=packet.src, dst=packet.dst, port=packet.port,
                bytes=wire_size)
        else:
            span = NOOP_SPAN
        try:
            links = self.topology.path(packet.src, packet.dst)
        except RoutingError:
            self._drop(packet, "no-route", span)
            return
        node = packet.src
        priority = packet.headers.get("priority", BEST_EFFORT_PRIORITY)
        # Per-hop spans only exist for traces that are actually being
        # retained: with the tracer disabled, or the trace sampled out at
        # its head, every hop would otherwise still pay the span + label
        # allocation — the dominant trace cost at scale.
        record_hops = span.is_recording
        # Flight journal (repro.obs.flight): hop and drop records.  None
        # — the default — costs one check per hop.
        flight = env.ctx.flight
        if not flight.journal_net:
            flight = None
        link_bytes = cells.link_bytes
        for link in links:
            hop = tracer.start_span(
                "net.link", at=env._now, parent=span,
                link=link.label, node=node,
                bytes=wire_size) if record_hops else None
            # Claim+tx fusion: the channel claim carries the
            # transmission delay, so the grant resumes this generator
            # once, at tx-complete, instead of a grant pop plus a
            # separate Timeout (the grant is virtually accounted — see
            # Resource._grant).  Release point and the loss draw happen
            # at the same instant as the unfused path.
            channel = link._channels[node]
            claim = PriorityRequest(channel, priority,
                                    (wire_size * 8.0) / link.bandwidth)
            yield claim
            if hop is not None:
                # usage_since marks the grant, so tx-start lands at the
                # same sim time the unfused path stamped at its resume.
                hop.add_event("tx-start", at=claim.usage_since)
            # Resource.release inlined: the claim was just granted to
            # this process, so it is always in users; only a non-empty
            # wait queue needs the grant/sampling machinery.
            channel.users.remove(claim)
            if channel.queue:
                channel._grant_waiters()
            # Loss attribution mirrors Link.drops_packet: a downed link
            # drops without drawing the RNG; otherwise one draw decides,
            # and the drawn value splits baseline "loss" from fault-
            # injected "impairment" (draws landing in the _extra_loss
            # band) so drop_stats() tells the two apart.
            drop_reason = None
            if not link.up:
                drop_reason = "link-down"
            else:
                probability = link.loss + link._extra_loss
                if probability > 0:
                    draw = link._rng.random()
                    if draw < min(probability, 1.0):
                        drop_reason = "loss" if draw < link.loss \
                            else "impairment"
            if drop_reason is not None:
                link.stats.drops += 1
                if hop is not None:
                    hop.set_status("dropped")
                    hop.finish(at=env._now)
                self._drop(packet, drop_reason, span, link=link)
                return
            delay = link.latency * link._latency_scale
            if link.jitter > 0:
                delay += link._rng.uniform(0, link.jitter)
            yield env.timeout(delay)
            stats = link.stats
            stats.packets += 1
            stats.bytes += wire_size
            label = link.label
            link_bytes[label] = link_bytes.get(label, 0) + wire_size
            packet.hops += 1
            if flight is not None:
                flight.record_hop(link.label, node, packet.src, packet.dst,
                                  packet.port, span=hop)
            node = link.b if node == link.a else link.a
            if hop is not None:
                hop.finish(at=env._now)
        target = self.hosts.get(packet.dst)
        if target is None:
            self._drop(packet, "no-host", span)
            return
        cells.delivered += 1
        node_delivered = cells.node_delivered
        dst = packet.dst
        node_delivered[dst] = node_delivered.get(dst, 0) + 1
        cells.latencies.append(env._now - packet.created_at)
        span.finish(at=env._now)
        target._deliver(packet)

    def _drop(self, packet: Packet, reason: str, span, link=None) -> None:
        self._counters.incr("dropped")
        self._counters.incr("dropped:" + reason)
        self._drop_reasons[reason] = self._drop_reasons.get(reason, 0) + 1
        # Accumulate: the keyed factories flush every cell on entry,
        # which a loss burst must not pay per drop.  The per-link,
        # per-reason count feeds the dashboard link table's "drops".
        cells = self._cells
        drops = cells.drops
        drops[reason] = drops.get(reason, 0) + 1
        if link is not None:
            link_drops = cells.link_drops
            drop_key = (link.label, reason)
            link_drops[drop_key] = link_drops.get(drop_key, 0) + 1
        flight = self.env.ctx.flight
        if flight.journal_net:
            flight.record_drop(reason,
                               link.label if link is not None else None,
                               packet.src, packet.dst, packet.port,
                               span=span)
        span.set_status("dropped:" + reason)
        span.set_attribute("drop_reason", reason)
        span.finish(at=self.env.now)
        if self.on_drop is not None:
            self.on_drop(packet, reason)

    def drop_stats(self) -> Dict[str, int]:
        """Drops per reason (``loss``, ``impairment``, ``link-down``,
        ``no-route``, ``no-host``) since the network was created.

        ``loss`` is the link's configured baseline; ``impairment``
        attributes drops whose Bernoulli draw landed in the extra
        probability a fault injection (loss burst) added on top.
        """
        return dict(self._drop_reasons)

    def total_link_bytes(self) -> int:
        """Bytes carried across every link (the E9 cost metric)."""
        return sum(link.stats.bytes for link in self.topology.links())

    def __repr__(self) -> str:
        return "<Network hosts={} nodes={}>".format(
            len(self.hosts), len(self.topology.nodes))
