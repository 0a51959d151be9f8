"""The benchmark's own checks: trace schema, metric output, correctness gate.

Run with `PYTHONPATH=src python -m pytest perfbench`.  Only the two_reach
analysis and the three_reach enumeration (a fraction of a second) run here;
the workloads themselves are run by perfbench/run.py.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads
from cqap import exactlp, proofs, shannon, tradeoffs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((HERE / "references.json").read_text())

LAYER_SPANS = {
    "queries.parse",
    "decompose.enumerate_pmtds",
    "decompose.enumerate_tds",
    "decompose.minimal_pmtds",
    "rules.generate_rules",
    "rules.prune_rules",
    "tradeoffs.rule_tradeoff",
    "shannon.solve_joint_lp",
    "shannon.log_size_bound",
    "exactlp.solve_lp_guided",
    "exactlp.solve_lp",
    "tradeoffs.envelope",
    "proofs.construct",
    "proofs.validate",
}


@pytest.fixture(scope="module")
def traced():
    """One traced analysis of two_reach: (tracer, outputs)."""
    tr = spans.Tracer()
    layers.install(tr)
    try:
        with tr.span("query", request="two_reach"):
            outputs = workloads.analyse_query(ROOT / "corpus", "two_reach", None, random.Random(0))
    finally:
        tr.uninstall()
    return tr, outputs


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == layers.METRICS
    assert set(REFERENCES) - {"_source"} == set(run.WORKLOADS)


def test_span_schema(traced):
    tr, _ = traced
    assert tr.spans
    by_id = {s["id"]: s for s in tr.spans}
    for s in tr.spans:
        assert tuple(s) == spans.SPAN_KEYS
        assert s["request"] == "two_reach"
        assert s["start"] <= s["end"]
        if s["name"] == "query":
            assert s["parent"] is None
        else:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert {s["name"] for s in tr.spans} == LAYER_SPANS | {"query"}
    doc = json.loads(json.dumps(tr.to_json()))
    assert set(doc) == {"spans", "counts", "overhead_s"}
    assert doc["counts"]["two_reach"]["rules.generated"] == 1


def test_wrappers_are_removed(traced):
    for fn in (tradeoffs.solve_joint_lp, shannon.solve_lp_guided, exactlp.solve_lp, proofs.construct):
        assert not hasattr(fn, "__wrapped__")
    assert not hasattr(shannon.JointSystem.log_size_bound, "__wrapped__")


def test_layer_metrics(traced):
    tr, _ = traced
    got = layers.metrics(tr, 1.0)
    assert list(got) == list(layers.METRICS)
    assert all(isinstance(v, (int, float)) and v >= 0 for v in got.values())
    assert got["rules.generated"] == got["rules.kept"] == 1
    assert got["proofs.sides"] == 2 and got["proofs.sides_failed"] == 0
    assert got["tradeoffs.terms"] == 1
    assert got["shannon.joint_solves"] > 0
    assert 0 <= got["shannon.solve_joint_lp_self_s"] <= got["shannon.solve_joint_lp_s"]
    assert 0 <= got["tradeoffs.rule_tradeoff_self_s"] <= got["tradeoffs.rule_tradeoff_s"]


def test_result_line_schema():
    work = {"analysis_s": [2.0, 1.0, 3.0], "sides": 4, "sides_certified": 3, "peak_rss_mb": 80.5}
    values = run.end_to_end([0.5, 0.7, 0.6], work)
    assert values == {"setup_s": 0.6, "analysis_s": 2.0, "certified_ratio": 0.75, "peak_rss_mb": 80.5}
    line = json.loads(run.result_line(True, 3, 0, values, run.END_TO_END_UNITS))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"]["analysis_s"] == {"value": 2.0, "unit": "s"}


def test_check_accepts_the_pinned_outputs_and_flags_changes(traced):
    _, outputs = traced
    ref = REFERENCES["reach_tradeoffs"]
    ref = {"two_reach": ref["two_reach"]}
    checked, bad = workloads.check({"two_reach": outputs}, ref, {})
    assert checked > 0 and bad == []

    wrong = json.loads(json.dumps(outputs))
    wrong["rules"][0]["pieces"][0][0][2] = "1/3"
    wrong["sides"][0]["valid"] = False
    _, bad = workloads.check({"two_reach": wrong}, ref, {})
    assert len(bad) == 2
    assert "pieces" in bad[0] and "fails validate" in bad[1]
    _, bad = workloads.check({}, ref, {})
    assert bad == ["two_reach: no output"]


def test_outputs_do_not_depend_on_the_seed():
    runs = [
        workloads.enumerate_query(ROOT / "corpus", "three_reach", random.Random(seed))
        for seed in range(4)
    ]
    assert all(r == runs[0] for r in runs)
    checked, bad = workloads.check(
        {"three_reach": runs[0]}, {"three_reach": REFERENCES["rule_enumeration"]["three_reach"]}, {}
    )
    assert checked == 4 and bad == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reach_tradeoffs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "missing src/cqap" in done.stderr
