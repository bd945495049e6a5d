"""Flight recorder: ring bounds, epoch digests, journaling, black box."""

import hashlib
import json

import pytest

from repro import obs
from repro.analysis.replay import run_isolated, trace_digest
from repro.analysis.workloads import WORKLOADS
from repro.obs.flight import (
    NOOP_FLIGHT,
    BlackBox,
    FlightRecorder,
    canonical,
    use_flight,
)
from repro.sim import Environment


def _feed(recorder, dispatches, rng_every=None):
    """Feed a deterministic synthetic stream of kernel decisions."""
    for eid in range(dispatches):
        recorder.on_dispatch(float(eid), 0, eid)
        if rng_every and eid % rng_every == 0:
            recorder.record_rng("s", "random", 0.5)


# -- ring bounds and counters ----------------------------------------------


def test_ring_is_bounded_and_counts_evictions():
    recorder = FlightRecorder(ring=8, epoch_events=1000)
    _feed(recorder, 20)
    assert len(recorder.ring) == 8
    assert recorder.recorded == 20
    assert recorder.evicted == 12
    # The ring holds the *newest* records.
    assert [r["eid"] for r in recorder.ring] == list(range(12, 20))
    stats = recorder.stats()
    assert stats["recorded"] == 20 and stats["evicted"] == 12
    assert stats["retained"] == 8


def test_validation():
    with pytest.raises(ValueError):
        FlightRecorder(ring=0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_events=0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_interval=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(epoch_events=10, epoch_interval=1.0)


# -- epoch digests ---------------------------------------------------------


def test_epoch_rolls_every_n_events():
    recorder = FlightRecorder(epoch_events=4)
    _feed(recorder, 10)
    assert recorder.epoch == 2          # two closed, one partial
    assert recorder.finish() == 3
    assert recorder.finish() == 3       # idempotent


def test_epoch_interval_rolls_at_time_boundaries():
    recorder = FlightRecorder(epoch_interval=1.0)
    for eid, time in enumerate([0.1, 0.5, 1.2, 1.9, 3.5]):
        recorder.on_dispatch(time, 0, eid)
    # t=1.2 crossed boundary 1; t=3.5 crossed boundaries 2 and 3.
    assert recorder.epoch == 3
    epochs = [r["epoch"] for r in recorder.ring]
    assert epochs == [0, 0, 1, 1, 3]
    recorder.finish()
    assert len(recorder.epoch_digests) == 4


def test_digests_chain_prefix_property():
    # Identical prefixes hash identically; appending records changes
    # only subsequent epochs.
    short = FlightRecorder(epoch_events=4)
    long = FlightRecorder(epoch_events=4)
    _feed(short, 8)
    _feed(long, 12)
    short.finish()
    long.finish()
    assert short.epoch_digests[:2] == long.epoch_digests[:2]
    assert len(long.epoch_digests) == 3


def test_digests_stable_across_retention_settings():
    # Digests cover the whole run regardless of how little the ring
    # retains — divergence compares digests from tiny-ring runs.
    variants = [
        FlightRecorder(ring=2, epoch_events=4),
        FlightRecorder(ring=4096, epoch_events=4),
        FlightRecorder(ring=4096, epoch_events=4, keep_epochs=(1, 1)),
    ]
    for recorder in variants:
        _feed(recorder, 10, rng_every=3)
        recorder.finish()
    digests = {tuple(recorder.epoch_digests) for recorder in variants}
    assert len(digests) == 1


def test_digests_differ_on_injected_fork():
    run_a = FlightRecorder(epoch_events=4)
    run_b = FlightRecorder(epoch_events=4)
    _feed(run_a, 10)
    for eid in range(10):
        run_b.on_dispatch(float(eid), 0, eid)
        if eid == 6:                    # one extra draw in epoch 1
            run_b.record_rng("s", "random", 0.123)
    run_a.finish()
    run_b.finish()
    assert run_a.epoch_digests[0] == run_b.epoch_digests[0]
    assert run_a.epoch_digests[1] != run_b.epoch_digests[1]


class _SlowFlight(FlightRecorder):
    """A recorder whose every record takes the generic canonical path."""

    def _append(self, record, canon=None):
        FlightRecorder._append(self, record,
                               canonical(dict(record, epoch=self.epoch)))


def _exercise(recorder, streams=("s", 'we"ird\\')):
    times = [0, 1, 0.1, 1.5e-9, 12345.678901234567, 2.0 ** 40]
    for eid, time in enumerate(times):
        recorder.on_dispatch(time, eid % 3, eid)
        for stream in streams:
            recorder.record_rng(stream, "random", 0.5 + eid)
            recorder.record_rng(stream, "getrandbits", eid * 7)
        recorder.record_hop("a<->b", "a", "a", "b", 9)
        recorder.record_hop('q"\\uote', "a", "a", "b", 9)
    recorder.finish()


def test_fast_path_canonical_matches_generic_encoder():
    # The hot channels (dispatch/rng/hop) hash format-string canonical
    # forms instead of json.dumps; they must stay byte-identical to the
    # generic encoder for ints, floats, plain strings AND fall back
    # correctly on strings needing JSON escapes.
    fast = FlightRecorder(epoch_events=3)
    slow = _SlowFlight(epoch_events=3)
    _exercise(fast)
    _exercise(slow)
    assert fast.epoch_digests == slow.epoch_digests
    for record in fast.ring:
        assert json.loads(canonical(record)) == record


def test_side_fields_do_not_influence_digests():
    class FakeSpan:
        is_recording = True
        trace_id, span_id, name = "t1", "s1", "net.transmit"

    plain = FlightRecorder(epoch_events=4)
    traced = FlightRecorder(epoch_events=4)
    plain.record_hop("l", "n", "a", "b", 7)
    traced.record_hop("l", "n", "a", "b", 7, span=FakeSpan())
    plain.finish()
    traced.finish()
    assert plain.epoch_digests == traced.epoch_digests
    record = list(traced.ring)[0]
    assert record["_trace"] == "t1"
    assert "_trace" not in json.loads(canonical(record))


# -- keep_epochs / context -------------------------------------------------


def test_keep_epochs_restricts_ring_and_fills_context():
    recorder = FlightRecorder(epoch_events=4, keep_epochs=(1, 1),
                              context=3)
    _feed(recorder, 12)
    recorder.finish()
    assert [r["epoch"] for r in recorder.ring] == [1] * 4
    assert [r["eid"] for r in recorder.context] == [1, 2, 3]
    assert recorder.epoch_records(1) == list(recorder.ring)
    assert len(recorder.epoch_digests) == 3


# -- journaling a real workload --------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorder_never_perturbs_workload(name):
    baseline = trace_digest(run_isolated(name, 31))
    recorder = FlightRecorder(epoch_events=64)
    with use_flight(recorder):
        observed = trace_digest(run_isolated(name, 31))
    recorder.finish()
    assert observed == baseline
    assert recorder.recorded > 0
    assert len(recorder.epoch_digests) >= 1


def test_same_seed_runs_journal_identically():
    digests = []
    for _ in range(2):
        recorder = FlightRecorder(ring=16, epoch_events=64)
        with use_flight(recorder):
            run_isolated("locks-hard", 31)
        recorder.finish()
        digests.append(recorder.epoch_digests)
    assert digests[0] == digests[1]


def test_workload_journal_covers_all_channels():
    recorder = FlightRecorder(ring=1 << 16)
    with use_flight(recorder):
        run_isolated("locks-hard", 31)
    kinds = {record["kind"] for record in recorder.ring}
    assert {"dispatch", "rng", "lock", "spawn", "exit"} <= kinds


def test_channel_flags_silence_their_records():
    recorder = FlightRecorder(ring=1 << 16, journal_dispatch=False,
                              journal_rng=False, journal_locks=False,
                              journal_actors=False)
    with use_flight(recorder):
        run_isolated("locks-hard", 31)
    recorder.finish()
    assert len(recorder.ring) == 0
    # Epochs still advance on dispatch even with every channel off.
    assert len(recorder.epoch_digests) >= 1


def test_journalled_rng_draws_match_plain_rng():
    import random

    from repro.sim.rng import RandomStreams

    plain = RandomStreams(77).stream("s")
    recorder = FlightRecorder(ring=64)
    with use_flight(recorder):
        journalled = RandomStreams(77).stream("s")
    sequence = [journalled.random(), journalled.getrandbits(16),
                journalled.randrange(10), journalled.gauss(0, 1),
                journalled.choice([1, 2, 3])]
    expected = [plain.random(), plain.getrandbits(16),
                plain.randrange(10), plain.gauss(0, 1),
                plain.choice([1, 2, 3])]
    assert sequence == expected
    assert isinstance(plain, random.Random)
    assert recorder.recorded > 0
    assert all(r["stream"] == "s" for r in recorder.ring)


# -- export integration ----------------------------------------------------


def test_dump_jsonl_carries_meta_and_flight(tmp_path):
    recorder = FlightRecorder(ring=32, epoch_events=64)
    with use_flight(recorder):
        run_isolated("locks-hard", 31)
    recorder.finish()
    path = str(tmp_path / "flight.jsonl")
    with obs.use_metrics(obs.MetricsRegistry()):
        obs.dump_jsonl(path, flight=recorder,
                       meta={"workload": "locks-hard", "seed": 31})
    records = obs.load_jsonl(path)
    assert records[0]["kind"] == "meta"
    assert records[0]["schema"] == obs.META_SCHEMA
    assert records[0]["seed"] == 31
    digests = [r for r in records if r.get("kind") == "flight-epoch"]
    assert [d["digest"] for d in digests] == recorder.epoch_digests
    assert sum(1 for r in records if r.get("kind") == "rng") > 0


# -- the black box ---------------------------------------------------------


def _crashing_run(recorder):
    from repro.sim import Environment

    with use_flight(recorder):
        env = Environment()

        def boom(env):
            yield env.timeout(1.0)
            raise RuntimeError("kaput")

        env.process(boom(env), name="doomed")
        env.run()


def test_black_box_dumps_on_exception(tmp_path):
    path = str(tmp_path / "blackbox.jsonl")
    recorder = FlightRecorder(ring=64)
    box = BlackBox(path, flight=recorder, last=16)
    with obs.use_metrics(obs.MetricsRegistry()):
        with pytest.raises(RuntimeError, match="kaput"):
            with box.armed():
                _crashing_run(recorder)
    assert box.dumps == 1
    records = obs.load_jsonl(path)
    meta = records[0]
    assert meta["kind"] == "meta" and meta["black_box"] is True
    assert meta["reason"] == "exception"
    assert meta["error"] == "RuntimeError: kaput"
    assert meta["flight"]["recorded"] == recorder.recorded
    kinds = [r["kind"] for r in records]
    assert "spawn" in kinds and "exit" in kinds
    exit_record = next(r for r in records if r["kind"] == "exit")
    assert exit_record["actor"] == "doomed" and exit_record["ok"] is False


def test_black_box_respects_last(tmp_path):
    path = str(tmp_path / "tail.jsonl")
    recorder = FlightRecorder(ring=256, epoch_events=1000)
    _feed(recorder, 100)
    box = BlackBox(path, flight=recorder, last=5)
    with obs.use_metrics(obs.MetricsRegistry()):
        box.dump("manual")
    records = obs.load_jsonl(path)
    dispatches = [r for r in records if r["kind"] == "dispatch"]
    assert [r["eid"] for r in dispatches] == list(range(95, 100))


def test_black_box_records_open_spans(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    tracer = obs.Tracer()
    tracer.start_span("stuck", at=1.0)
    done = tracer.start_span("done", at=2.0)
    done.finish(at=3.0)
    box = BlackBox(path, flight=NOOP_FLIGHT, tracer=tracer)
    with obs.use_metrics(obs.MetricsRegistry()):
        box.dump("manual")
    spans = [r for r in obs.load_jsonl(path) if r.get("kind") == "span"]
    assert [s["name"] for s in spans] == ["stuck"]
    assert spans[0]["open"] is True


def test_black_box_arms_slo_monitor(tmp_path):
    path = str(tmp_path / "slo.jsonl")
    box = BlackBox(path, flight=NOOP_FLIGHT, tracer=obs.NOOP_TRACER)

    class Alert:
        severity, slo = "page", "latency"

    class Monitor:
        on_alert = None

    seen = []
    monitor = Monitor()
    monitor.on_alert = lambda kind, alert: seen.append(kind)
    box.arm_slo(monitor, severity="page")
    with obs.use_metrics(obs.MetricsRegistry()):
        monitor.on_alert("cleared", Alert())   # wrong kind: no dump
        assert box.dumps == 0
        monitor.on_alert("fired", Alert())
    assert box.dumps == 1
    assert seen == ["cleared", "fired"]        # chained callback intact
    meta = obs.load_jsonl(path)[0]
    assert meta["reason"] == "slo:latency"


def test_black_box_validation():
    with pytest.raises(ValueError):
        BlackBox("x.jsonl", last=0)


# -- the process-wide default ----------------------------------------------


def test_noop_flight_is_inert_default():
    assert Environment().ctx.flight is NOOP_FLIGHT
    assert not NOOP_FLIGHT.enabled
    NOOP_FLIGHT.on_dispatch(0.0, 0, 0)
    NOOP_FLIGHT.record_rng("s", "random", 0.5)
    assert NOOP_FLIGHT.finish() == 0
    assert list(NOOP_FLIGHT.records()) == []
    assert len(NOOP_FLIGHT) == 0


def test_use_flight_scopes_and_restores():
    recorder = FlightRecorder()
    with use_flight(recorder):
        assert Environment().ctx.flight is recorder
    assert Environment().ctx.flight is NOOP_FLIGHT


# -- journal byte-compatibility with the binary heap ----------------------
#
# The calendar queue replaced a binary heap; the journals below were
# captured on that heap (where both queues were proven to journal them
# identically).  The recorder receives unpacked (time, priority, eid)
# parts via dispatch_parts(), so a match means the queue dispatches in
# the heap's order.


def _journal_fingerprint(workload):
    recorder = FlightRecorder(ring=1 << 16, epoch_events=256)
    with use_flight(recorder):
        run_isolated(workload, 31)
    recorder.finish()
    journal = "\n".join(canonical(record) for record in recorder.ring)
    return {
        "journal": hashlib.sha256(journal.encode()).hexdigest(),
        "epochs": len(recorder.epoch_digests),
        "last_epoch": recorder.epoch_digests[-1],
        "recorded": recorder.recorded,
    }


def test_journal_identical_between_heap_and_calendar():
    """Every (time, priority, eid) record AND the chained epoch digests
    of a lock workload match the heap's journal."""
    assert _journal_fingerprint("locks-hard") == {
        "journal": "bdf45fe5c82621e7d99a4c32a467f1686c14519a"
                   "80d6401a33361db522dfeed7",
        "epochs": 1,
        "last_epoch": "da9fdf4d549a0a00ce876953a596d35c29d6bf41"
                      "89277f5a2df826201d426ef2",
        "recorded": 426,
    }


def test_journal_identical_across_schedulers_under_network_storm():
    """Same guarantee on a packet workload: burst-carry elides events
    *virtually*, so the eids that do reach the journal line up."""
    assert _journal_fingerprint("flaky-links") == {
        "journal": "3ebf7edae25cda63d7bf0df54ba23c556d84293c"
                   "9baf93563a9856ceccc67ec3",
        "epochs": 18,
        "last_epoch": "5a737440ac3158490cf13b809fa9f964b0877e96"
                      "c25fc3e1d99ded52d88d5b77",
        "recorded": 5323,
    }
