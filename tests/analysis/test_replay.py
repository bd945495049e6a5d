"""Tests for the replay checker: determinism as a testable property."""

import json
import os

import pytest

from repro.analysis.hb import NOOP_SANITIZER
from repro.analysis.replay import (
    main,
    replay,
    run_isolated,
    trace_digest,
)
from repro.analysis.workloads import WORKLOADS, run_workload
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.sim import Environment


def test_replay_locks_hard_is_deterministic():
    first, second, ok = replay("locks-hard", seed=31)
    assert ok
    assert first == second


def test_replay_locks_soft_is_deterministic():
    # The style with the most sanitizer activity (every conflict is
    # recorded) must still digest identically.
    assert replay("locks-soft", seed=31)[2]


def test_different_seeds_give_different_digests():
    one = trace_digest(run_isolated("locks-soft", seed=31))
    other = trace_digest(run_isolated("locks-soft", seed=32))
    assert one != other


def test_trace_digest_is_canonical():
    assert trace_digest({"a": 1, "b": 2}) == trace_digest({"b": 2, "a": 1})
    assert trace_digest({"a": 1}) != trace_digest({"a": 2})


def test_run_isolated_restores_globals():
    with use_metrics(MetricsRegistry()) as metrics_before:
        run_isolated("locks-hard", seed=31)
        ctx = Environment().ctx
    assert ctx.sanitizer is NOOP_SANITIZER
    assert ctx.metrics is metrics_before


def test_run_isolated_records_the_access_trace():
    result = run_isolated("locks-hard", seed=31)
    assert result["accesses"], "sanitizer saw no accesses"
    assert result["completed"] > 0
    assert result["workload"] == "locks-hard"


def test_workload_registry_covers_all_styles():
    assert {"locks-hard", "locks-tickle", "locks-soft",
            "locks-notification"} <= set(WORKLOADS)


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_workload("no-such-workload")


def test_cli_ok(capsys):
    assert main(["locks-hard"]) == 0
    assert "REPLAY OK" in capsys.readouterr().out


def test_cli_unknown_workload(capsys):
    assert main(["no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    assert "locks-soft" in capsys.readouterr().out


def test_every_registered_workload_is_digest_stable():
    # The hot-path optimisations (route caching, bound instruments, kernel
    # fast paths) must be invisible to replay: running any registered
    # workload twice with the same seed digests identically.
    for name in sorted(WORKLOADS):
        first = trace_digest(run_isolated(name, seed=31))
        second = trace_digest(run_isolated(name, seed=31))
        assert first == second, "workload {} is not replay-stable".format(
            name)


# -- pinned seed-31 digests ------------------------------------------------
#
# seed_digests.json holds the seed-31 digest of every workload, captured
# on a binary-heap scheduler with an unfused network carry *before* the
# calendar queue and burst-carry landed.  Any drift is a behaviour
# change, not a speedup.

_PINNED = os.path.join(os.path.dirname(__file__), "seed_digests.json")


def _pinned_digests():
    with open(_PINNED, encoding="utf-8") as handle:
        return json.load(handle)


def test_pinned_digest_file_covers_every_workload():
    assert set(_pinned_digests()) == set(WORKLOADS)


def test_all_workloads_match_pinned_digests():
    pinned = _pinned_digests()
    for name in sorted(WORKLOADS):
        digest = trace_digest(run_isolated(name, seed=31))
        assert digest == pinned[name], "workload {} drifted".format(name)
