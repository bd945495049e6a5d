"""Divergence localizer: bisection, epoch re-journal, CLI contract."""

import io
import json

import pytest

from repro.obs.__main__ import main
from repro.obs.divergence import (
    _first_mismatch,
    compare_digests,
    compare_dumps,
    first_divergent_epoch,
    localize,
    render,
)
from repro.obs.export import load_jsonl
from repro.obs.flight import FlightRecorder, use_flight


def _fork_pair(dispatches=20, fork_at=13, epoch_events=4):
    """Two synthetic journals forking at one injected RNG draw."""
    run_a = FlightRecorder(ring=1 << 10, epoch_events=epoch_events)
    run_b = FlightRecorder(ring=1 << 10, epoch_events=epoch_events)
    for eid in range(dispatches):
        for recorder in (run_a, run_b):
            recorder.on_dispatch(float(eid), 0, eid)
        if eid == fork_at:
            run_b.record_rng("s", "random", 0.999)
    run_a.finish()
    run_b.finish()
    return run_a, run_b


# -- bisection -------------------------------------------------------------


def test_first_divergent_epoch_identical_is_none():
    assert first_divergent_epoch(["a", "b"], ["a", "b"]) is None
    assert first_divergent_epoch([], []) is None


def test_first_divergent_epoch_finds_fork():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13, epoch_events=4)
    # The fork is in epoch 13 // 4 == 3; chaining makes every later
    # digest differ too, so bisection must still land on 3.
    assert run_a.epoch_digests[:3] == run_b.epoch_digests[:3]
    assert first_divergent_epoch(run_a.epoch_digests,
                                 run_b.epoch_digests) == 3


def test_first_divergent_epoch_prefix_length_mismatch():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13)
    # Equal-prefix, different-length: divergence is the first epoch the
    # shorter run never closed.
    assert first_divergent_epoch(run_a.epoch_digests[:2],
                                 run_a.epoch_digests) == 2
    assert first_divergent_epoch([], run_a.epoch_digests) == 0
    # Mixed: shorter AND forked — the fork wins.
    assert first_divergent_epoch(run_b.epoch_digests[:4],
                                 run_a.epoch_digests) == 3


def test_first_mismatch_on_epoch_records():
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13, epoch_events=4)
    records_a = run_a.epoch_records(3)
    records_b = run_b.epoch_records(3)
    index = _first_mismatch(records_a, records_b)
    # Epoch 3 = eids 12..15; both journal dispatch 12 and 13, then B
    # has the injected draw.
    assert index == 2
    assert records_b[index]["kind"] == "rng"


# -- end-to-end on real workloads ------------------------------------------


def test_compare_digests_same_seed_agrees():
    report = compare_digests("locks-hard", 31, epoch_events=64)
    assert report["diverged"] is False
    assert report["epoch"] is None
    assert report["epochs"][0] == report["epochs"][1] > 0
    assert report["result_digests"][0] == report["result_digests"][1]


def test_localize_names_fork_between_seeds():
    report = localize("locks-hard", 31, seed2=32, epoch_events=64,
                      context=4)
    assert report["diverged"] is True
    assert report["epoch"] == 0         # different seeds fork instantly
    assert report["record_index"] is not None
    assert report["record_a"] != report["record_b"]
    assert len(report["context_a"]) <= 4
    out = io.StringIO()
    render(report, out)
    text = out.getvalue()
    assert "first divergent epoch: 0" in text
    assert "first mismatched record" in text


def test_localize_self_compare_short_circuits():
    report = localize("locks-hard", 31, epoch_events=64)
    assert report["diverged"] is False
    assert "record_index" not in report
    out = io.StringIO()
    render(report, out)
    assert "no divergence" in out.getvalue()


# -- dump-vs-dump ----------------------------------------------------------


def _dump(path, recorder):
    with open(path, "w") as handle:
        for record in recorder.records():
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def test_compare_dumps_localizes_offline(tmp_path):
    run_a, run_b = _fork_pair(dispatches=20, fork_at=13, epoch_events=4)
    path_a = str(tmp_path / "a.jsonl")
    path_b = str(tmp_path / "b.jsonl")
    _dump(path_a, run_a)
    _dump(path_b, run_b)
    report = compare_dumps(load_jsonl(path_a), load_jsonl(path_b),
                           context=3)
    assert report["diverged"] is True
    assert report["epoch"] == 3
    assert report["record_index"] == 2
    assert report["record_b"]["kind"] == "rng"
    assert len(report["context_a"]) == 2


def test_compare_dumps_identical(tmp_path):
    run_a, _ = _fork_pair()
    path = str(tmp_path / "same.jsonl")
    _dump(path, run_a)
    report = compare_dumps(load_jsonl(path), load_jsonl(path))
    assert report["diverged"] is False


def test_compare_dumps_rejects_flightless_dump(tmp_path):
    path = str(tmp_path / "plain.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"kind": "span", "name": "x"}) + "\n")
    with pytest.raises(ValueError, match="no flight-epoch records"):
        compare_dumps(load_jsonl(path), load_jsonl(path))


# -- CLI contract ----------------------------------------------------------


def test_cli_same_seed_exits_zero(capsys):
    assert main(["diverge", "locks-hard", "--seed", "31",
                 "--epoch-events", "64"]) == 0
    assert "no divergence" in capsys.readouterr().out


def test_cli_seed_fork_exits_one(capsys):
    assert main(["diverge", "locks-hard", "--seed", "31", "--seed2", "32",
                 "--epoch-events", "64"]) == 1
    out = capsys.readouterr().out
    assert "first divergent epoch" in out
    assert "seed 31 vs seed 32" in out


def test_cli_json_format(capsys):
    assert main(["diverge", "locks-hard", "--seed", "31", "--seed2", "32",
                 "--epoch-events", "64", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["diverged"] is True
    assert data["workload"] == "locks-hard"


def test_cli_unknown_workload_exits_two(capsys):
    assert main(["diverge", "no-such-workload"]) == 2
    assert "no-such-workload" in capsys.readouterr().err


def test_cli_dumps_mode(tmp_path, capsys):
    run_a, run_b = _fork_pair()
    path_a = str(tmp_path / "a.jsonl")
    path_b = str(tmp_path / "b.jsonl")
    _dump(path_a, run_a)
    _dump(path_b, run_b)
    assert main(["diverge", path_a, path_b]) == 1
    assert main(["diverge", path_a, path_a]) == 0
