"""``python -m repro.obs``: the one observability command line.

The subprocess tests run the command exactly as a shell would, with
``-W error::RuntimeWarning`` so a ``runpy`` double-import warning fails
them.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.obs.__main__ import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def obs_cli(*args, cwd, stdout=subprocess.PIPE):
    """Run ``python -m repro.obs ARGS``; the finished process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs"]
        + list(args), cwd=cwd, env=env, stdout=stdout,
        stderr=subprocess.PIPE, text=True)


# -- dashboard -------------------------------------------------------------


@pytest.fixture(scope="module")
def dashboard_text(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("dashboard")
    done = obs_cli("dashboard", "timeline-demo", "--tables", "node,link",
                   "--critical-path", cwd=cwd)
    assert done.returncode == 0, done.stderr
    return cwd, done.stdout


def test_dashboard_renders_hot_spot_tables_and_critical_path(
        dashboard_text):
    _, out = dashboard_text
    lines = out.splitlines()
    assert "hot spots by node" in lines
    assert any("critical-path bottlenecks" in line for line in lines)
    # The top-K node table must actually rank nodes: at least one data
    # row between the node header and the next blank line.
    start = lines.index("hot spots by node")
    rows = []
    for line in lines[start + 3:]:  # skip separator + header
        if not line.strip() or line.startswith("zipf"):
            break
        rows.append(line)
    assert rows, "node hot-spot table has no data rows"
    assert rows[0].split()[0], "empty top-1 node key"


def test_same_seed_dashboards_are_byte_identical(dashboard_text):
    cwd, first = dashboard_text
    done = obs_cli("dashboard", "timeline-demo", "--tables", "node,link",
                   "--critical-path", cwd=cwd)
    assert done.returncode == 0, done.stderr
    assert done.stdout == first


def test_dashboard_json_carries_all_sections(tmp_path):
    done = obs_cli("dashboard", "timeline-demo", "--tables", "node,link,op",
                   "--critical-path", "--format", "json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert set(data["tables"]) == {"node", "link", "op"}
    assert data["tables"]["node"]["rows"], "empty node table"
    assert data["critical_path"]["bottlenecks"], "no bottlenecks"


# -- report ----------------------------------------------------------------


def test_report_renders_the_traced_e1_dump(tmp_path):
    from benchmarks.bench_e1_response_notification import run_experiment

    with obs.use_tracer(obs.Tracer()) as tracer, \
            obs.use_metrics(obs.MetricsRegistry()) as metrics:
        run_experiment()
    path = str(tmp_path / "e1.trace.jsonl")
    assert obs.dump_jsonl(path, tracer=tracer, metrics=metrics) > 0
    done = obs_cli("report", path, "--top", "10", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "spans by operation" in done.stdout


# -- profile and diff ------------------------------------------------------


@pytest.fixture(scope="module")
def folded_pair(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("profile")
    first = obs_cli("profile", "traced-rpc", "--seed", "31", "--top", "10",
                    "--folded", "run.folded", cwd=cwd)
    assert first.returncode == 0, first.stderr
    second = obs_cli("profile", "traced-rpc", "--seed", "31",
                     "--folded", "run2.folded", cwd=cwd)
    assert second.returncode == 0, second.stderr
    return cwd


def test_profile_writes_folded_stacks(folded_pair):
    path = folded_pair / "run.folded"
    assert path.stat().st_size > 0
    lines = path.read_text().splitlines()
    assert lines, "no folded stacks written"
    for line in lines:
        stack, value = line.rsplit(" ", 1)
        assert stack and value.isdigit(), line


def test_diff_of_same_seed_profiles_shows_zero_drift(folded_pair):
    done = obs_cli("diff", "run.folded", "run2.folded", cwd=folded_pair)
    assert done.returncode == 0, done.stderr
    assert "no simulated-time drift" in done.stdout


# -- diverge ---------------------------------------------------------------


def test_diverge_self_compare_exits_0(tmp_path):
    done = obs_cli("diverge", "locks-hard", "--seed", "31",
                   "--epoch-events", "64", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "no divergence" in done.stdout


def test_diverge_seed_fork_exits_1_and_names_the_epoch(tmp_path):
    done = obs_cli("diverge", "locks-hard", "--seed", "31", "--seed2", "32",
                   "--epoch-events", "64", cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert "first divergent epoch" in done.stdout
    assert "first mismatched record" in done.stdout


def test_diverge_needs_a_second_dump(tmp_path, capsys):
    path = str(tmp_path / "one.jsonl")
    with obs.use_metrics(obs.MetricsRegistry()) as metrics:
        metrics.counter("ticks").add()
        obs.dump_jsonl(path, metrics=metrics)
    assert main(["diverge", path]) == 2
    assert "second dump" in capsys.readouterr().err


# -- one parser, one exit convention ---------------------------------------


def test_import_does_not_load_the_command_line():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, repro.obs; "
         "print('repro.obs.__main__' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["report", "traced-rpc", "--top", "0"],
    ["dashboard", "timeline-demo", "--top", "-1"],
    ["profile", "traced-rpc", "--top", "0"],
    ["diverge", "locks-hard", "--epoch-events", "0"],
    ["diverge", "locks-hard", "--context", "0"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def _folded(tmp_path):
    path = tmp_path / "run.folded"
    path.write_text("root;leaf 10\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["report", "traced-rpc"],
    ["dashboard", "timeline-demo", "--critical-path"],
    ["profile", "traced-rpc"],
    ["diff", "FOLDED", "FOLDED"],
    ["diverge", "locks-hard", "--seed2", "32", "--epoch-events", "64"],
], ids=lambda argv: argv[0])
def test_closed_pipe_keeps_the_exit_status(argv, tmp_path, capsys,
                                           monkeypatch):
    argv = [_folded(tmp_path) if arg == "FOLDED" else arg for arg in argv]
    status = main(argv)
    assert capsys.readouterr().out
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == status
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, status", [
    (["profile", "traced-rpc"], 0),
    (["diverge", "locks-hard", "--seed2", "32", "--epoch-events", "64"], 1),
], ids=["profile", "diverge"])
def test_closed_pipe_in_a_real_process(argv, status, tmp_path):
    read, write = os.pipe()
    os.close(read)
    try:
        done = obs_cli(*argv, cwd=tmp_path, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == status, done.stderr
    assert "Traceback" not in done.stderr
