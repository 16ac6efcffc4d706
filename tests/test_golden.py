"""``repro run`` artifact flags reproduce the fixed-seed golden artifacts.

``tests/data/golden/`` holds the outputs of one PLB-HeC run (``--app
matmul --size 4096 --machines 2 --seed 0``), plain and with
``--transient B.gpu0@0.05+0.02``, captured when each view of the run
had its own subcommand:

* ``*.explain.jsonl`` — the decision ledger (``explain --out``);
* ``*.critpath.json`` / ``*.why_trace.json`` — the critical-path
  analysis and its timeline (``why --out … --trace-out …``);
* ``*.run_trace.json`` — the plain ``run --trace-out`` timeline;
* ``*.tables.txt`` — the printed ``run``, ``explain`` and ``why``
  tables, with the "written to PATH" lines stripped.

The JSON documents are stored compactly; they are compared as parsed
JSON with floats equal to ``rel_tol=1e-9``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIG = ["--app", "matmul", "--size", "4096", "--machines", "2",
          "--seed", "0", "--policy", "plb-hec"]
VARIANTS = {"plain": [], "transient": ["--transient", "B.gpu0@0.05+0.02"]}


def assert_json_close(actual, expected, where="$"):
    if isinstance(expected, float):
        assert type(actual) in (int, float), where
        assert math.isclose(actual, expected, rel_tol=1e-9), (
            where, actual, expected
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert actual.keys() == expected.keys(), where
        for key, value in expected.items():
            assert_json_close(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            where, actual, expected
        )


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def outputs(request, tmp_path_factory):
    """One variant's golden prefix, output dir and ``run`` stdout."""
    variant = request.param
    out = tmp_path_factory.mktemp(variant)

    def run(*flags):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["run", *CONFIG, *VARIANTS[variant], *flags])
        assert code == 0
        return buf.getvalue()

    stdout = run(
        "--explain-out", str(out / "explain.jsonl"),
        "--critpath-out", str(out / "critpath.json"),
        "--trace-out", str(out / "critpath_trace.json"),
    )
    run("--trace-out", str(out / "trace.json"))
    return GOLDEN / variant, out, stdout


def golden(prefix, suffix):
    return prefix.with_name(f"{prefix.name}.{suffix}")


def test_explain_ledger_matches(outputs):
    prefix, out, _ = outputs
    actual = (out / "explain.jsonl").read_text(encoding="utf-8").splitlines()
    expected = golden(prefix, "explain.jsonl").read_text(
        encoding="utf-8"
    ).splitlines()
    assert len(actual) == len(expected)
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert_json_close(json.loads(a), json.loads(e), f"line {i + 1}")


def test_critpath_matches(outputs):
    prefix, out, _ = outputs
    assert_json_close(
        load(out / "critpath.json"), load(golden(prefix, "critpath.json"))
    )


def test_plain_trace_matches(outputs):
    prefix, out, _ = outputs
    assert_json_close(
        load(out / "trace.json"), load(golden(prefix, "run_trace.json"))
    )


def test_critpath_trace_is_why_timeline_plus_decision_instants(outputs):
    prefix, out, _ = outputs
    doc = load(out / "critpath_trace.json")
    why = load(golden(prefix, "why_trace.json"))
    plain = load(golden(prefix, "run_trace.json"))

    def decisions(events):
        return [e for e in events if e.get("cat") == "decision"]

    assert not decisions(why["traceEvents"])
    assert decisions(plain["traceEvents"])
    assert_json_close(doc["otherData"], why["otherData"], "otherData")
    assert_json_close(
        [e for e in doc["traceEvents"] if e.get("cat") != "decision"],
        why["traceEvents"],
    )
    assert_json_close(
        decisions(doc["traceEvents"]), decisions(plain["traceEvents"])
    )


def test_printed_tables_match(outputs):
    prefix, _, stdout = outputs
    actual = [
        line.rstrip()
        for line in stdout.splitlines()
        if " written to " not in line
    ]
    expected = [
        line.rstrip()
        for line in golden(prefix, "tables.txt").read_text(
            encoding="utf-8"
        ).splitlines()
    ]
    assert actual == expected
