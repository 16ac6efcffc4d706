"""Tests for repro.experiments.report: the experiment table behind
``repro report``."""

import functools
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.report import EXPERIMENTS, ShapeCheck, generate_report

GOLDEN = Path(__file__).parents[1] / "data" / "golden"

#: Rows whose tables are a function of config and seed.
PINNED = ("table1", "fig1", "fig4", "fig5", "fig6", "fig7")
#: Rows that still charge measured host time (only their shape is fixed).
MEASURED = ("overhead", "ablations", "heterogeneity", "sensitivity")

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


@functools.lru_cache(maxsize=None)
def _result(name, seed):
    return EXPERIMENTS[name].run(fast=True, replications=1, seed=seed, jobs=1)


def _golden(name, seed):
    path = GOLDEN / f"report_{name}_s{seed}.txt"
    if not path.exists():  # seed-independent row
        path = GOLDEN / f"report_{name}.txt"
    return path.read_text(encoding="utf-8").rstrip("\n")


def _shape(text):
    """Title, header and row labels of a rendered table; numbers masked."""
    lines = text.splitlines()
    shape = []
    for i, line in enumerate(lines):
        if not line.strip() or set(line) <= set("-+"):
            continue
        if "|" not in line:  # a title or a one-line summary
            shape.append(_NUMBER.sub("#", line))
            continue
        cells = [c.strip() for c in line.split("|")]
        below = lines[i + 1] if i + 1 < len(lines) else ""
        is_header = bool(below) and set(below) <= set("-+")
        shape.append(cells if is_header else cells[0])
    return shape


class TestTable:
    def test_rows(self):
        assert tuple(EXPERIMENTS) == (
            "table1", "fig1", "fig4", "fig5", "fig6", "fig7",
            "overhead", "ablations", "heterogeneity", "sensitivity",
        )
        claimed = {n for n, e in EXPERIMENTS.items() if e.claims}
        assert claimed == {"fig4", "fig5", "fig6", "fig7", "overhead"}


class TestGoldenTables:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_tables_match(self, name, seed):
        rendered = EXPERIMENTS[name].render(_result(name, seed))
        assert rendered == _golden(name, seed)

    @pytest.mark.parametrize("name", MEASURED)
    def test_measured_tables_keep_their_shape(self, name):
        rendered = EXPERIMENTS[name].render(_result(name, 0))
        assert _shape(rendered) == _shape(_golden(name, 0))


class TestClaims:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_claim_passes(self, seed):
        failed = [
            (name, check)
            for name, exp in EXPERIMENTS.items()
            if exp.claims
            for check in exp.claims(_result(name, seed))
            if not check.passed
        ]
        assert failed == []

    def test_fig6_fig7_cover_every_case(self):
        assert len(EXPERIMENTS["fig6"].claims(_result("fig6", 0))) == 18
        assert len(EXPERIMENTS["fig7"].claims(_result("fig7", 0))) == 6


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(fast=True, replications=1, jobs=1)[0]

    def test_contains_checklist(self, report):
        assert "Shape checks:" in report
        assert "| PASS |" in report or "| FAIL |" in report

    def test_all_fast_checks_pass(self, report):
        header = [
            line for line in report.splitlines() if "Shape checks:" in line
        ][0]
        # "Shape checks: N/M passed."
        ratio = header.split(":")[1].split("passed")[0].strip()
        passed, total = map(int, ratio.split("/"))
        assert passed == total

    def test_contains_tables(self, report):
        assert "Table I" in report
        assert "speedup" in report
        assert "solver overhead" in report

    def test_mentions_policies(self, report):
        for policy in ("greedy", "acosta", "hdss", "plb-hec"):
            assert policy in report

    def test_only_selects_rows(self):
        text, checks = generate_report(["table1"])
        assert "## table1" in text and "## fig4" not in text
        assert checks == [] and "Shape checks" not in text


class TestShapeCheck:
    def test_fields(self):
        c = ShapeCheck(claim="x", passed=True, detail="d")
        assert c.passed
        assert c.claim == "x"


class TestCliReport:
    def test_cli_report_fast(self, capsys):
        assert main(
            ["report", "--fast", "--replications", "1", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out

    def test_failed_claim_exits_regressed(self, capsys, monkeypatch):
        forced = replace(
            EXPERIMENTS["table1"],
            claims=lambda _: [ShapeCheck("forced", False, "made to fail")],
        )
        monkeypatch.setitem(EXPERIMENTS, "table1", forced)
        assert main(["report", "--only", "table1"]) == 2
        assert "| FAIL | table1 | forced | made to fail |" in (
            capsys.readouterr().out
        )

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--only", "fig9"])
        assert exc.value.code == 2
        assert "fig9" in capsys.readouterr().err

    def test_figures_are_byte_identical_across_runs(self, capsys):
        argv = ["report", "--only", "fig4", "fig5", "fig6", "fig7",
                "--replications", "1", "--jobs", "1"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
