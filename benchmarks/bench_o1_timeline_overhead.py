"""O1 — timeline recorder overhead on the P1 LAN packet storm.

The recorder's contract is "free when off, cheap when on, invisible to
the simulation either way".  This bench measures all three clauses on
the P1 LAN storm (24 hosts, 150 packets each — the hot-path workload
PR 5 optimised):

* **no-obs** — ``NullRegistry``, no recorder: the PR 5 baseline;
* **timeline-off** — a recording ``MetricsRegistry``, no recorder;
* **timeline-on** — the same registry plus a
  :class:`~repro.obs.timeline.TimelineRecorder` at 10 ms windows
  (~30 windows over the ~0.3 s storm).

The simulation-observable outcome (events, sent/delivered/dropped, sim
time) must be digest-identical across all three — the window hook
schedules no events, so replay digests cannot distinguish a recorded
run.  That is asserted hard.  Wall-clock overhead is recorded into
``BENCH_PR6.json`` (the checked-in figures are the artifact; CI
machines vary too much to assert a tight ratio) with a loose backstop
assertion.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from benchmarks._util import digest, print_table, record_run, run_once
from benchmarks.bench_p1_kernel_throughput import _run_storm
from repro.net.network import Network
from repro.net.topology import lan
from repro.obs.metrics import MetricsRegistry, NullRegistry, use_metrics
from repro.obs.timeline import TimelineRecorder
from repro.sim import Environment

SEED = 31
HOSTS = 24
PACKETS_EACH = 150
RESOLUTION = 0.01
REPEATS = 8

#: The sim-observable subset of a storm result: everything a replay
#: digest would see, nothing the wall clock touches.
OBSERVABLE = ("sim_time_s", "events", "sent", "delivered", "dropped")


def _storm(registry, resolution: Optional[float] = None) -> Dict[str, Any]:
    with use_metrics(registry):
        env = Environment()
    network = Network(env, lan(env, hosts=HOSTS))
    names = ["host{}".format(i) for i in range(HOSTS)]
    senders = []
    for index, name in enumerate(names):
        peers = [names[(index + k) % HOSTS] for k in range(1, HOSTS)]
        senders.append((network.host(name), peers, PACKETS_EACH))
    recorder = None
    if resolution is not None:
        recorder = TimelineRecorder(env, registry=registry,
                                    resolution=resolution)
    result = _run_storm(env, network, senders, SEED)
    if recorder is not None:
        recorder.finish()
        result["windows"] = recorder.flushed
    result["digest"] = digest({key: result[key] for key in OBSERVABLE})
    return result


def run_experiment() -> Dict[str, Any]:
    # Interleaved repeats (same rationale as P1's metrics comparison):
    # each round runs all three variants back to back so host-machine
    # noise hits them equally; fastest of each is reported.
    best: Dict[str, Optional[Dict[str, Any]]] = {
        "no_obs": None, "timeline_off": None, "timeline_on": None}

    def keep(key, candidate):
        if best[key] is None or candidate["wall_s"] < best[key]["wall_s"]:
            best[key] = candidate

    for _ in range(REPEATS):
        keep("no_obs", _storm(NullRegistry()))
        keep("timeline_off", _storm(MetricsRegistry()))
        keep("timeline_on", _storm(MetricsRegistry(),
                                   resolution=RESOLUTION))
    return best


def test_o1_timeline_overhead(benchmark):
    results = run_once(benchmark, run_experiment)
    no_obs = results["no_obs"]
    off = results["timeline_off"]
    on = results["timeline_on"]

    overhead_off = (off["wall_s"] / no_obs["wall_s"] - 1.0) * 100 \
        if no_obs["wall_s"] else 0.0
    overhead_on = (on["wall_s"] / off["wall_s"] - 1.0) * 100 \
        if off["wall_s"] else 0.0
    print_table(
        "O1: timeline recorder overhead (P1 LAN storm)",
        ["variant", "wall (s)", "events/s", "windows", "digest"],
        [("no-obs (NullRegistry)", no_obs["wall_s"],
          no_obs["events_per_s"], "-", no_obs["digest"][:12]),
         ("timeline off", off["wall_s"], off["events_per_s"], "-",
          off["digest"][:12]),
         ("timeline on ({}s windows)".format(RESOLUTION), on["wall_s"],
          on["events_per_s"], on["windows"], on["digest"][:12])])

    # Invisibility is exact, not statistical: all three variants must
    # be digest-identical on everything the simulation can observe.
    assert off["digest"] == no_obs["digest"], \
        "a recording registry changed the simulation"
    assert on["digest"] == off["digest"], \
        "the timeline recorder changed the simulation"
    assert on["windows"] > 0
    assert on["sent"] == HOSTS * PACKETS_EACH
    assert on["delivered"] == on["sent"] and on["dropped"] == 0
    # Loose backstop only — the checked-in BENCH_PR6.json carries the
    # real overhead figure; CI machines are too noisy for ≤10% hard.
    assert on["wall_s"] < off["wall_s"] * 2.0, \
        "timeline-on more than doubled the storm wall time"

    record_run(
        "o1_timeline_overhead",
        metrics={
            "no_obs_wall_s": no_obs["wall_s"],
            "timeline_off_wall_s": off["wall_s"],
            "timeline_on_wall_s": on["wall_s"],
            "timeline_off_overhead_pct": round(overhead_off, 2),
            "timeline_on_overhead_pct": round(overhead_on, 2),
            "windows": on["windows"],
            "resolution_s": RESOLUTION,
            "events_per_s_on": round(on["events_per_s"]),
            "events_per_s_no_obs": round(no_obs["events_per_s"]),
            "digest_match": on["digest"] == no_obs["digest"],
        },
        sim_time_s=on["sim_time_s"], events=on["events"],
        path="BENCH_PR6.json")
