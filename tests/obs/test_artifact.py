"""Every artifact writer goes through one atomic write.

Each writer must create a missing parent directory, and a write that
fails must leave neither the target nor a temp file behind.
"""

import json
import os

import pytest

from repro.obs.artifact import write_atomic


@pytest.fixture(scope="module")
def run():
    """One small sampled PLB-HeC run: its trace, ledger and series."""
    from repro.cluster import GroundTruth, paper_cluster
    from repro.experiments.runner import make_application, make_policy
    from repro.obs.timeseries import ClusterSampler
    from repro.runtime import Runtime

    cluster = paper_cluster(2)
    app = make_application("matmul", 2048)
    policy = make_policy(
        "plb-hec",
        ground_truth=GroundTruth(cluster, app.kernel_characteristics()),
        fixed_overhead_s=0.002,
    )
    sampler = ClusterSampler(None)
    result = Runtime(cluster, app.codelet(), seed=0).run(
        policy, app.total_units, app.default_initial_block_size(),
        sampler=sampler,
    )
    return result, sampler


def _series(path, run):
    from repro.obs.timeseries import write_series

    return write_series(path, run[1].store, run_id="r")


def _trace(path, run):
    from repro.obs.trace_export import write_chrome_trace

    return write_chrome_trace(run[0].trace, path)


def _explain(path, run):
    from repro.obs.ledger import write_explain

    write_explain(run[0].ledger, str(path))


def _critpath(path, run):
    from repro.obs.critpath import analyze_trace, write_critpath

    return write_critpath(path, analyze_trace(run[0].trace))


def _slo_report(path, run):
    from repro.obs.slo import DEFAULT_SLO_SPEC, evaluate_slo, write_slo_report

    return write_slo_report(path, evaluate_slo(DEFAULT_SLO_SPEC, run[1].store))


def _scorecard(path, run):
    from repro.service import write_scorecard

    return write_scorecard(path, {"jobs": {}})


def _dashboard(path, run):
    from repro.obs.dashboard import DashboardData, write_dashboard

    return write_dashboard(path, DashboardData())


def _collapsed(path, run):
    from repro.obs.profiler import write_collapsed

    return write_collapsed(path, ["run;solve 12"])


def _flamegraph(path, run):
    from repro.obs.profiler import write_flamegraph

    return write_flamegraph(path, ["run;solve 12"])


def _text(path, run):
    return write_atomic(path, "text\n")


WRITERS = {
    "series": _series,
    "trace": _trace,
    "explain": _explain,
    "critpath": _critpath,
    "slo_report": _slo_report,
    "scorecard": _scorecard,
    "dashboard": _dashboard,
    "collapsed": _collapsed,
    "flamegraph": _flamegraph,
    "write_atomic": _text,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_missing_parent_directory_is_created(name, run, tmp_path):
    target = tmp_path / "new" / "deeper" / "artifact.out"
    WRITERS[name](target, run)
    assert target.is_file() and target.stat().st_size > 0
    assert sorted(os.listdir(target.parent)) == ["artifact.out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_no_target_and_no_temp(
    name, run, tmp_path, monkeypatch
):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    target = tmp_path / "out" / "artifact.out"
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](target, run)
    assert os.listdir(target.parent) == []


def test_replaces_an_existing_file(tmp_path):
    target = tmp_path / "a.json"
    target.write_text("old", encoding="utf-8")
    assert write_atomic(target, "new") == target
    assert target.read_text(encoding="utf-8") == "new"


class TestResultCache:
    def test_store_creates_its_directory(self, tmp_path):
        from repro.experiments.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cache.store("k" * 16, {"makespan": 1.0})
        assert cache.load("k" * 16) == {"makespan": 1.0}

    def test_failed_store_warns_and_leaves_nothing(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.experiments.parallel import ResultCache

        def fail(src, dst):
            raise OSError("read-only")

        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(os, "replace", fail)
        cache.store("k" * 16, {"makespan": 1.0})
        assert "cannot write cache entry" in caplog.text
        leftovers = [
            name for _, _, names in os.walk(tmp_path / "cache") for name in names
        ]
        assert leftovers == []


def test_cli_artifacts_land_in_new_directories(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "nodir"
    assert main([
        "run", "--app", "matmul", "--size", "2048", "--machines", "2",
        "--critpath-out", str(out / "c.json"),
        "--trace-out", str(out / "t.json"),
        "--metrics-out", str(out / "m.json"),
    ]) == 0
    assert main(["serve", "--rate", "2", "--duration", "2",
                 "--scorecard-out", str(out / "s.json")]) == 0
    assert main(["chaos", "--quick", "--runs", "2",
                 "--out", str(out / "chaos.json")]) == 0
    capsys.readouterr()
    for name in ("c.json", "t.json", "m.json", "s.json", "chaos.json"):
        json.loads((out / name).read_text(encoding="utf-8"))
