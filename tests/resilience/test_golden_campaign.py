"""``repro chaos`` reproduces its fixed-seed golden campaign outputs.

``tests/data/golden/chaos_<mode>[_quick]_s<seed>.{json,txt}`` hold the
scorecard JSON and the printed table of seven campaigns: batch and
serve ``--quick --runs 4`` on seeds 0 and 1, batch default on seed 0,
and serve default on seeds 0 and 1.  Both files must match byte for
byte; only the ``scorecard written to PATH`` line is left out of the
stored stdout, since the path differs per run.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parents[1] / "data" / "golden"
QUICK = ["--quick", "--runs", "4"]
CASES = {
    "batch_quick_s0": [*QUICK, "--seed", "0"],
    "batch_quick_s1": [*QUICK, "--seed", "1"],
    "serve_quick_s0": ["--serve", *QUICK, "--seed", "0"],
    "serve_quick_s1": ["--serve", *QUICK, "--seed", "1"],
    "batch_s0": ["--seed", "0"],
    "serve_s0": ["--serve", "--seed", "0"],
    "serve_s1": ["--serve", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "scorecard.json"
    assert main(["chaos", *CASES[name], "--jobs", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"scorecard written to {out}\n" in stdout
    stdout = stdout.replace(f"scorecard written to {out}\n", "")
    assert stdout == (GOLDEN / f"chaos_{name}.txt").read_text(encoding="utf-8")
    assert out.read_bytes() == (GOLDEN / f"chaos_{name}.json").read_bytes()
