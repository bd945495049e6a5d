"""P1 — hot-path throughput: packet storms through the sim kernel.

The scaling benches (E/F/R) are bounded by pure interpreter overhead on
three hot paths: per-packet route walks in
:meth:`~repro.net.topology.Topology.path`, per-hop labelled-metrics key
construction in :mod:`repro.net.network`, and per-event allocation in
the sim kernel.  This bench measures that overhead directly: three
packet storms (switched LAN, six-site WAN, WAN under a chaos schedule)
report wall time, simulated events/second and packets/second, plus a
metrics-on vs metrics-off (``NullRegistry``) comparison on the WAN
storm.  Results merge into ``BENCH_PR5.json``; the ``baseline_*``
figures are the same storms measured on the pre-optimisation tree
(commit c83b711) so the speedup is part of the artifact.

The storms themselves are deterministic (seeded gaps, rotating
destinations), so delivered-packet counts are exact reproduction
targets; only the wall-clock figures vary run to run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from benchmarks._util import print_table, record_run, run_once
from repro.faults import FaultInjector, FaultSchedule
from repro.net.network import Network
from repro.net.topology import lan, wan
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment, RandomStreams, exponential

SEED = 31
#: Mean think-gap between a sender's packets (seconds, exponential).
GAP_MEAN = 0.002
PAYLOAD = 512

#: How many repeats each storm runs; the fastest is reported.  The
#: storms are deterministic, so repeats only tighten the wall-clock
#: figure (event/packet counts are identical every time).
REPEATS = 5

#: Pre-optimisation figures for the same storms (seed 31), measured on
#: the tree at commit c83b711 — the "before" half of the speedup table.
#: Best-of-8 on the same machine as the "after" figures in
#: EXPERIMENTS.md §P1 (which documents the capture procedure).
BASELINE: Dict[str, Dict[str, float]] = {
    "lan-storm": {"wall_s": 0.169, "events_per_s": 213302.0},
    "wan-storm": {"wall_s": 0.220, "events_per_s": 212891.0},
    "chaos-storm": {"wall_s": 0.215, "events_per_s": 207330.0},
}


def _best_of(run, repeats: int = REPEATS) -> Dict[str, Any]:
    """Fastest of ``repeats`` runs (counts are deterministic; only the
    wall clock varies, so min is the least-noise estimator)."""
    best = None
    for _ in range(repeats):
        result = run()
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    return best


def _run_storm(env: Environment, network: Network,
               senders: List[Any], seed: int) -> Dict[str, Any]:
    """Drive sender processes to completion and measure the run."""
    streams = RandomStreams(seed)
    for index, (host, peers, packets) in enumerate(senders):
        rng = streams.stream("storm-{}".format(index))

        def sender(host=host, peers=peers, packets=packets, rng=rng):
            fanout = len(peers)
            for i in range(packets):
                yield env.timeout(exponential(rng, GAP_MEAN))
                host.send(peers[i % fanout], size=PAYLOAD)

        env.process(sender())
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    sent = network.counters["sent"]
    delivered = network.counters["delivered"]
    return {
        "wall_s": wall,
        "sim_time_s": env.now,
        "events": env.events_processed,
        "events_per_s": env.events_processed / wall if wall else 0.0,
        "sent": sent,
        "delivered": delivered,
        "packets_per_s": delivered / wall if wall else 0.0,
        "dropped": network.counters["dropped"],
    }


def run_lan_storm(hosts: int = 24, packets_each: int = 150,
                  seed: int = SEED) -> Dict[str, Any]:
    """All-to-all storm on one switched LAN (two hops per packet)."""
    env = Environment()
    network = Network(env, lan(env, hosts=hosts))
    names = ["host{}".format(i) for i in range(hosts)]
    senders = []
    for index, name in enumerate(names):
        peers = [names[(index + k) % hosts] for k in range(1, hosts)]
        senders.append((network.host(name), peers, packets_each))
    return _run_storm(env, network, senders, seed)


def _wan_network(env: Environment, sites: int, hosts_per_site: int,
                 loss: float = 0.0) -> Network:
    return Network(env, wan(env, sites=sites,
                            hosts_per_site=hosts_per_site,
                            site_latency=0.004, loss=loss))


def _cross_site_senders(network: Network, sites: int, hosts_per_site: int,
                        packets_each: int) -> List[Any]:
    names = ["site{}.host{}".format(i, j)
             for i in range(sites) for j in range(hosts_per_site)]
    senders = []
    for index, name in enumerate(names):
        site = name.split(".", 1)[0]
        peers = [peer for peer in
                 (names[(index + k) % len(names)]
                  for k in range(1, len(names)))
                 if not peer.startswith(site + ".")]
        senders.append((network.host(name), peers, packets_each))
    return senders


def run_wan_storm(sites: int = 6, hosts_per_site: int = 3,
                  packets_each: int = 200,
                  seed: int = SEED) -> Dict[str, Any]:
    """Cross-site storm on a WAN mesh (three hops per packet)."""
    env = Environment()
    network = _wan_network(env, sites, hosts_per_site)
    senders = _cross_site_senders(network, sites, hosts_per_site,
                                  packets_each)
    return _run_storm(env, network, senders, seed)


def run_chaos_storm(sites: int = 6, hosts_per_site: int = 3,
                    packets_each: int = 200,
                    seed: int = SEED) -> Dict[str, Any]:
    """The WAN storm under a fault schedule: flaps, a partition, a
    latency storm and a loss burst, so routes are repeatedly
    invalidated and recomputed mid-storm."""
    env = Environment()
    network = _wan_network(env, sites, hosts_per_site)
    site0 = ["site0.router"] + ["site0.host{}".format(j)
                                for j in range(hosts_per_site)]
    rest = [node for node in network.topology.nodes if node not in site0]
    routers = [("site{}.router".format(i), "site{}.router".format(k))
               for i in range(sites) for k in range(i + 1, sites)]
    schedule = (
        FaultSchedule()
        .link_flap(0.020, "site1.router", "site2.router",
                   count=6, period=0.030)
        .partition(0.080, [site0, rest], heal_at=0.160)
        .latency_storm(0.120, scale=4.0, duration=0.080, links=routers)
        .loss_burst(0.200, extra_loss=0.05, duration=0.060,
                    links=routers[:5])
    )
    FaultInjector(env, network, schedule)
    senders = _cross_site_senders(network, sites, hosts_per_site,
                                  packets_each)
    return _run_storm(env, network, senders, seed)


def run_metrics_comparison(sites: int = 6, hosts_per_site: int = 3,
                           packets_each: int = 120,
                           seed: int = SEED) -> Dict[str, Any]:
    """The WAN storm under a recording registry vs a NullRegistry."""
    from repro.obs.metrics import NullRegistry

    def once(registry):
        with use_metrics(registry):
            env = Environment()
        network = _wan_network(env, sites, hosts_per_site)
        senders = _cross_site_senders(network, sites, hosts_per_site,
                                      packets_each)
        return _run_storm(env, network, senders, seed)

    # Interleaved repeats: each round runs both registries back to back,
    # so slow moments on the host machine hit both sides equally instead
    # of biasing whichever ran second.
    on = off = None
    for _ in range(REPEATS):
        candidate = once(MetricsRegistry())
        if on is None or candidate["wall_s"] < on["wall_s"]:
            on = candidate
        candidate = once(NullRegistry())
        if off is None or candidate["wall_s"] < off["wall_s"]:
            off = candidate
    return {"metrics_on": on, "metrics_off": off}


def run_experiment() -> Dict[str, Any]:
    results = {
        "lan-storm": _best_of(run_lan_storm),
        "wan-storm": _best_of(run_wan_storm),
        "chaos-storm": _best_of(run_chaos_storm),
    }
    results["metrics"] = run_metrics_comparison()
    return results


def test_p1_kernel_throughput(benchmark):
    results = run_once(benchmark, run_experiment)

    rows = []
    telemetry: Dict[str, Any] = {}
    total_wall = 0.0
    total_baseline = 0.0
    for name in ("lan-storm", "wan-storm", "chaos-storm"):
        run = results[name]
        base = BASELINE.get(name, {})
        speedup = (base["wall_s"] / run["wall_s"]
                   if base.get("wall_s") and run["wall_s"] else 0.0)
        total_wall += run["wall_s"]
        total_baseline += base.get("wall_s", 0.0)
        rows.append((name, run["events"], run["delivered"],
                     run["wall_s"], run["events_per_s"],
                     base.get("wall_s", 0.0), speedup))
        prefix = name.replace("-", "_")
        telemetry[prefix + "_wall_s"] = run["wall_s"]
        telemetry[prefix + "_events"] = run["events"]
        telemetry[prefix + "_events_per_s"] = round(run["events_per_s"])
        telemetry[prefix + "_packets_per_s"] = round(run["packets_per_s"])
        telemetry[prefix + "_delivered"] = run["delivered"]
        telemetry[prefix + "_baseline_wall_s"] = base.get("wall_s", 0.0)
        telemetry[prefix + "_baseline_events_per_s"] = \
            base.get("events_per_s", 0.0)
        telemetry[prefix + "_speedup"] = round(speedup, 3)
    print_table(
        "P1: packet-storm throughput (before = pre-optimisation tree)",
        ["storm", "events", "delivered", "wall (s)", "events/s",
         "before (s)", "speedup"],
        rows)

    comparison = results["metrics"]
    on, off = comparison["metrics_on"], comparison["metrics_off"]
    print_table(
        "P1: metrics-on vs metrics-off (NullRegistry), WAN storm",
        ["registry", "wall (s)", "events/s", "delivered"],
        [("MetricsRegistry", on["wall_s"], on["events_per_s"],
          on["delivered"]),
         ("NullRegistry", off["wall_s"], off["events_per_s"],
          off["delivered"])])
    telemetry["metrics_on_wall_s"] = on["wall_s"]
    telemetry["metrics_off_wall_s"] = off["wall_s"]
    telemetry["overall_speedup"] = round(
        total_baseline / total_wall, 3) if total_wall else 0.0

    # Shape assertions: the storms are deterministic simulations, so the
    # packet accounting is exact; wall-clock numbers are recorded, not
    # asserted (CI machines vary).
    lan_run, wan_run = results["lan-storm"], results["wan-storm"]
    assert lan_run["sent"] == 24 * 150 and lan_run["dropped"] == 0
    assert lan_run["delivered"] == lan_run["sent"]
    assert wan_run["sent"] == 18 * 200 and wan_run["dropped"] == 0
    assert wan_run["delivered"] == wan_run["sent"]
    chaos = results["chaos-storm"]
    assert chaos["sent"] == 18 * 200
    assert chaos["dropped"] > 0, "the chaos schedule injected no faults?"
    assert chaos["delivered"] + chaos["dropped"] == chaos["sent"]
    # Metrics must never change the simulation itself.
    assert on["delivered"] == off["delivered"]
    assert on["events"] == off["events"]

    record_run("p1_kernel_throughput", metrics=telemetry,
               sim_time_s=wan_run["sim_time_s"],
               events=sum(results[n]["events"] for n in
                          ("lan-storm", "wan-storm", "chaos-storm")),
               path="BENCH_PR5.json")
