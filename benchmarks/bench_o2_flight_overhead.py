"""O2 — flight recorder overhead on the P1 LAN packet storm.

The flight recorder's contract mirrors the timeline recorder's: free
when off, cheap when on, invisible to the simulation either way.  This
bench measures it on the P1 LAN storm (24 hosts, 150 packets each):

* **flight-off** — the :data:`~repro.obs.flight.NOOP_FLIGHT` default;
* **flight-on** — a :class:`~repro.obs.flight.FlightRecorder` with all
  channels journalling at the default 512-event epochs;
* **digests-only** — the divergence CLI's cheap pass: a 16-record ring
  where every journalled record is folded into the epoch hash and
  immediately evicted.

The sim-observable outcome must be digest-identical across all three —
the recorder draws no RNG and schedules nothing, so replay cannot
distinguish a journalled run.  Same-seed flight epoch digests must also
be identical between independent recorder-on runs.  Both are asserted
hard; wall-clock overhead lands in ``BENCH_PR8.json`` with a loose
backstop (checked-in figures are the artifact, CI machines vary).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from benchmarks._util import digest, print_table, record_run, run_once
from benchmarks.bench_p1_kernel_throughput import _run_storm
from repro.net.network import Network
from repro.net.topology import lan
from repro.obs.flight import FlightRecorder, use_flight
from repro.obs.metrics import NullRegistry, use_metrics
from repro.sim import Environment

SEED = 31
HOSTS = 24
PACKETS_EACH = 150
REPEATS = 8

#: The sim-observable subset of a storm result (see bench_o1).
OBSERVABLE = ("sim_time_s", "events", "sent", "delivered", "dropped")


def _build_and_run() -> Dict[str, Any]:
    with use_metrics(NullRegistry()):
        env = Environment()
    network = Network(env, lan(env, hosts=HOSTS))
    names = ["host{}".format(i) for i in range(HOSTS)]
    senders = []
    for index, name in enumerate(names):
        peers = [names[(index + k) % HOSTS] for k in range(1, HOSTS)]
        senders.append((network.host(name), peers, PACKETS_EACH))
    return _run_storm(env, network, senders, SEED)


def _storm(recorder: Optional[FlightRecorder] = None) -> Dict[str, Any]:
    # The recorder must be installed before Environment() is constructed:
    # environments bind their instruments at creation (env.ctx).
    if recorder is not None:
        with use_flight(recorder):
            result = _build_and_run()
        result["flight_epochs"] = recorder.finish()
        result["flight_recorded"] = recorder.recorded
        result["flight_digests"] = list(recorder.epoch_digests)
    else:
        result = _build_and_run()
    result["digest"] = digest({key: result[key] for key in OBSERVABLE})
    return result


def run_experiment() -> Dict[str, Any]:
    # Interleaved repeats, fastest of each variant (see bench_o1).
    best: Dict[str, Optional[Dict[str, Any]]] = {
        "flight_off": None, "flight_on": None, "digests_only": None}

    def keep(key, candidate):
        if best[key] is None or candidate["wall_s"] < best[key]["wall_s"]:
            best[key] = candidate

    for _ in range(REPEATS):
        keep("flight_off", _storm())
        keep("flight_on", _storm(FlightRecorder(ring=1 << 16)))
        keep("digests_only", _storm(FlightRecorder(ring=16)))
    # One more full run to prove same-seed journal determinism.
    best["flight_on_again"] = _storm(FlightRecorder(ring=1 << 16))
    return best


def test_o2_flight_overhead(benchmark):
    results = run_once(benchmark, run_experiment)
    off = results["flight_off"]
    on = results["flight_on"]
    cheap = results["digests_only"]
    again = results["flight_on_again"]

    overhead_on = (on["wall_s"] / off["wall_s"] - 1.0) * 100 \
        if off["wall_s"] else 0.0
    overhead_cheap = (cheap["wall_s"] / off["wall_s"] - 1.0) * 100 \
        if off["wall_s"] else 0.0
    print_table(
        "O2: flight recorder overhead (P1 LAN storm)",
        ["variant", "wall (s)", "events/s", "journalled", "epochs",
         "digest"],
        [("flight off (noop)", off["wall_s"], off["events_per_s"],
          "-", "-", off["digest"][:12]),
         ("flight on (full ring)", on["wall_s"], on["events_per_s"],
          on["flight_recorded"], on["flight_epochs"],
          on["digest"][:12]),
         ("digests only (ring=16)", cheap["wall_s"],
          cheap["events_per_s"], cheap["flight_recorded"],
          cheap["flight_epochs"], cheap["digest"][:12])])

    # Invisibility is exact: journalling must not change anything the
    # simulation can observe.
    assert on["digest"] == off["digest"], \
        "the flight recorder changed the simulation"
    assert cheap["digest"] == off["digest"], \
        "the digests-only recorder changed the simulation"
    # Determinism of the journal itself: same seed, same chained
    # digests — independent runs and retention settings alike.
    assert on["flight_digests"] == again["flight_digests"]
    assert on["flight_digests"] == cheap["flight_digests"]
    assert on["flight_epochs"] > 0
    assert on["flight_recorded"] > 0
    assert on["sent"] == HOSTS * PACKETS_EACH
    assert on["delivered"] == on["sent"] and on["dropped"] == 0
    # Loose backstop only — BENCH_PR8.json carries the real figure.
    assert on["wall_s"] < off["wall_s"] * 3.0, \
        "flight-on more than tripled the storm wall time"

    record_run(
        "o2_flight_overhead",
        metrics={
            "flight_off_wall_s": off["wall_s"],
            "flight_on_wall_s": on["wall_s"],
            "digests_only_wall_s": cheap["wall_s"],
            "flight_on_overhead_pct": round(overhead_on, 2),
            "digests_only_overhead_pct": round(overhead_cheap, 2),
            "journalled_records": on["flight_recorded"],
            "epochs": on["flight_epochs"],
            "events_per_s_on": round(on["events_per_s"]),
            "events_per_s_off": round(off["events_per_s"]),
            "digest_match": on["digest"] == off["digest"],
            "journal_deterministic":
                on["flight_digests"] == again["flight_digests"],
        },
        sim_time_s=on["sim_time_s"], events=on["events"],
        path="BENCH_PR8.json")
