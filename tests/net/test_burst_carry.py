"""Burst-carry networking must be invisible except in wall time.

The fused carry elides the carrier's Initialize, the uncontended
claim's grant, the delivered put and the detached end event — each
*virtually accounted* so counters, metrics, digests and drop books
match an unfused carry that queues one event per step, event for event.
That unfused carry no longer exists; the values below were captured
from it, on a tree where both carries were proven to produce them.
"""

import hashlib
import json

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import Network
from repro.net.topology import lan, line, wan
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment


@pytest.fixture(autouse=True)
def fresh_metrics():
    with use_metrics(MetricsRegistry()):
        yield


def _fingerprint(value):
    """sha256 of ``value`` as sorted JSON (tuples become lists)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _storm(packets=40, loss=0.0, schedule=None):
    """One deterministic LAN/WAN storm; returns comparable state."""
    with use_metrics(MetricsRegistry()):
        return _storm_inner(packets, loss, schedule)


def _storm_inner(packets, loss, schedule):
    env = Environment()
    topo = wan(env, sites=3, hosts_per_site=2, site_latency=0.004,
               loss=loss, seed=7)
    network = Network(env, topo)
    if schedule is not None:
        FaultInjector(env, network, schedule)
    names = ["site{}.host{}".format(i, j)
             for i in range(3) for j in range(2)]
    endpoints = [network.host(name) for name in names]

    def sender(env, host, peer, count):
        for i in range(count):
            yield env.timeout(0.0005)
            host.send(peer, payload=i, size=512)

    def receiver(env, host, seen):
        while True:
            packet = yield host.receive()
            seen.append((env.now, packet.src, packet.payload))

    seen = []
    for i, host in enumerate(endpoints):
        peer = names[(i + 3) % len(names)]
        env.process(sender(env, host, peer, packets))
        env.process(receiver(env, host, seen))
    env.run(until=1.0)
    return {
        "seen": seen,
        "stats": env.stats(),
        "counters": dict(network.counters._counts),
        "latency_count": network.delivery_latency.count,
        "latency_mean": network.delivery_latency.mean,
        "drops": network.drop_stats(),
        "link_bytes": network.total_link_bytes(),
    }


def _assert_pinned(state, fingerprint, **headline):
    """Compare a storm with the values the unfused carry produced: the
    readable ``headline`` fields first, then everything — each (time,
    src, payload) delivery and the mean latency included — by hash."""
    assert {key: state[key] for key in headline} == headline
    assert _fingerprint(state) == fingerprint


def test_burst_matches_legacy_on_clean_storm():
    _assert_pinned(
        _storm(),
        "5af2fd73313ec73ea8b0eeecfe66226acdf3954d64710f33387e4a8e506e57be",
        counters={"sent": 240, "delivered": 240}, drops={},
        link_bytes=397440)


def test_burst_matches_legacy_under_loss():
    _assert_pinned(
        _storm(loss=0.05),
        "7fc46b25ea2b7b7c007e2c42536883b197f4cf7f9938211648cfec0064478bd9",
        counters={"sent": 240, "delivered": 232, "dropped": 8,
                  "dropped:loss": 8},
        drops={"loss": 8}, link_bytes=388608)


def test_burst_matches_legacy_under_faults():
    schedule = (FaultSchedule()
                .link_down(0.010, "site0.router", "site1.router")
                .link_up(0.030, "site0.router", "site1.router")
                .loss_burst(0.040, extra_loss=0.5, duration=0.020,
                            links=[("site1.router", "site2.router")]))
    _assert_pinned(
        _storm(schedule=schedule),
        "0ab70549e020068acb0a5de520f7add88237b5467f6cb12e51a9974061363063",
        counters={"sent": 240, "delivered": 238, "dropped": 2,
                  "dropped:link-down": 2},
        drops={"link-down": 2}, link_bytes=418416,
        stats={"now": 1.0, "events_scheduled": 3499,
               "events_processed": 3499, "queue_depth": 0})


def test_virtual_accounting_keeps_event_counters_equal():
    """The headline guarantee: identical events_scheduled/processed —
    elided events are counted at the instants they would have fired.
    Every queued or elided event is both scheduled and processed, and
    the totals equal the unfused carry's."""
    assert _storm()["stats"] == {"now": 1.0, "events_scheduled": 3379,
                                 "events_processed": 3379, "queue_depth": 0}


def test_metrics_registry_sees_identical_instruments():
    """Celled metrics flush into the same instruments the unfused carry
    wrote directly; a boundary read must not see stale cells."""
    registry = MetricsRegistry()
    with use_metrics(registry):
        env = Environment()
        topo = lan(env, hosts=4, seed=3)
        network = Network(env, topo)
        hosts = [network.host("host{}".format(i)) for i in range(4)]

        def chat(env, host, peer):
            for i in range(25):
                yield env.timeout(0.001)
                host.send(peer, payload=i, size=256)

        for i, host in enumerate(hosts):
            env.process(chat(env, host, "host{}".format((i + 1) % 4)))
        env.run()
        assert registry.counter_total("net.sent") == 100
        assert registry.counter_total("net.delivered") == 100
        assert registry.counter_total("net.node.sent", node="host0") == 25
        assert registry.counter_total("net.bytes",
                                      link="host0<->switch") == 14800
        assert registry.histogram_count("net.delivery_latency") == 100
        assert _fingerprint(registry.snapshot()) == \
            "a8c7e172eca2992974c3dc742d28df6b1b9ff458d8a1cc237f20d2cb6743479c"


def test_on_drop_hook_fires_in_burst_mode():
    env = Environment()
    topo = line(env, length=2, seed=11)
    topo.link_between("n0", "n1").loss = 1.0
    network = Network(env, topo)
    dropped = []
    network.on_drop = lambda packet, reason: dropped.append(
        (packet.payload, reason))
    network.host("n1")
    network.host("n0").send("n1", payload="doomed", size=64)
    env.run()
    assert dropped == [("doomed", "loss")]
    assert network.drop_stats() == {"loss": 1}


def test_setup_time_sends_work_before_run():
    """transmit() outside any process (no active process) keeps the
    queued Initialize, so link mutations between send() and run() are
    honoured, with the unfused carry's counters."""
    env = Environment()
    topo = line(env, length=2, seed=5)
    network = Network(env, topo)
    network.host("n1")
    network.host("n0").send("n1", payload="early", size=64)
    # Mutating the link *after* send but *before* run must affect the
    # packet: the carry starts inside the run, not at send().
    topo.link_between("n0", "n1").loss = 1.0
    env.run()
    assert network.drop_stats() == {"loss": 1}
    assert env.stats() == {"now": 8.32e-06, "events_scheduled": 4,
                           "events_processed": 4, "queue_depth": 0}
