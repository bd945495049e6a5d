"""The run context: instruments bind when an environment is built."""

from repro.net import Network, ReliableChannel, Topology
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import NOOP_TRACER, Tracer, use_tracer
from repro.sim import Environment


def ping(env, count):
    """``count`` datagrams a -> b, one per simulated second."""
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.01)
    host = Network(env, topo).host("a")

    def sender(env):
        for _ in range(count):
            host.send("b", size=10)
            yield env.timeout(1.0)

    env.process(sender(env), name="pinger")


def test_interleaved_environments_keep_their_own_instruments():
    runs = []
    for count in (3, 5):
        with use_tracer(Tracer()) as tracer, \
                use_metrics(MetricsRegistry()) as metrics:
            env = Environment()
            ping(env, count)
        runs.append((env, tracer, metrics, count))
    # Step both runs in turns, outside every scope.
    for until in (0.5, 1.5, 2.5, 10.0):
        for env, _, _, _ in runs:
            env.run(until=until)
    for env, tracer, metrics, count in runs:
        assert metrics.counter_total("net.sent") == count
        transmits = [s for s in tracer.spans if s.name == "net.transmit"]
        assert len(transmits) == count
        assert [s.name for s in tracer.spans].count("actor.run") == 1
        assert env.ctx.tracer is tracer
        assert env.ctx.metrics is metrics


def channel_run():
    """One reliable send a -> b on a fresh, unscoped environment."""
    env = Environment()
    topo = Topology(env)
    topo.add_link("a", "b", latency=0.005)
    net = Network(env, topo)
    sender = ReliableChannel(net.host("a"))
    ReliableChannel(net.host("b"))

    def root(env):
        yield sender.send("b", payload="x", size=50)

    env.run(env.process(root(env)))
    return env


def test_unscoped_environments_keep_their_own_gauge_samples():
    first = channel_run()
    second = channel_run()
    assert first.ctx.metrics is not second.ctx.metrics
    samples = second.ctx.metrics.gauge("chan.inflight",
                                       node="a").series.samples
    # The t=0 rise is kept even though the first run sampled later times.
    assert samples[0] == (0.0, 1.0)
    assert samples == first.ctx.metrics.gauge(
        "chan.inflight", node="a").series.samples


def test_tracer_installed_after_construction_does_not_reach_env():
    env = Environment()
    ping(env, 2)
    with use_tracer(Tracer()) as late:
        env.run()
    assert len(late.spans) == 0
    assert env.ctx.tracer is NOOP_TRACER
