"""The benchmark's own tests: failure accounting, correctness checks, names.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from perfbench import e2e, run
from perfbench.metrics import END_TO_END, NAME_RE, PER_LAYER
from perfbench.workloads import GOLDEN_FIXTURE, TABLE_METRICS, WORKLOADS, write_spec

ROOT = Path(__file__).resolve().parents[2]


def tiny_spec(workloads) -> dict:
    return {
        "sweep": "tiny",
        "workloads": workloads,
        "base": {"warmup_instructions": 300, "sim_instructions": 1500},
        "matrix": {"frontend.ftq_entries": [2, 24]},
        "output": {"metrics": TABLE_METRICS},
    }


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [name for name, *_ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names), names
    assert all(NAME_RE.match(name) for name in WORKLOADS)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_check_table_counts_duplicate_missing_and_short_points():
    expected = {"a": 100, "b": 100, "c": 100}
    rows = [
        {"point": "a", "instructions": 100},
        {"point": "a", "instructions": 100},
        {"point": "b", "instructions": 99},
    ]
    verdict = e2e.check_table(rows, expected, "table")
    assert verdict.failed == {"a", "b", "c"}
    assert len(verdict.problems) == 3
    assert e2e.check_table(None, expected, "table").failed == set(expected)
    clean = [{"point": p, "instructions": 101} for p in expected]
    assert e2e.check_table(clean, expected, "table").failed == set()


def test_tampered_table_fails_the_correctness_check(tmp_path):
    spec_path = write_spec(tiny_spec(["srv_web"]), tmp_path / "tiny.json")
    expected, _total = run.expected_points(spec_path)
    rep = e2e.sweep_rep(spec_path, tmp_path / "rep", run.SRC, jobs=2)
    clean = e2e.check_rep(rep, expected)
    assert clean.problems == [] and clean.failed == set()

    table = rep.warm_out(0) / "table.json"
    payload = json.loads(table.read_text())
    tampered = payload["rows"][0]
    tampered["ipc"] += 1e-9
    table.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    verdict = e2e.check_rep(rep, expected)
    assert verdict.failed == {tampered["point"]}
    assert any("warm 0 table differs" in p for p in verdict.problems)


def test_corrupt_trace_entry_counts_in_failed_frac_without_crashing(tmp_path, monkeypatch):
    corrupt = tmp_path / "broken.champsim.xz"
    blob = (ROOT / GOLDEN_FIXTURE).read_bytes()
    corrupt.write_bytes(blob[: len(blob) // 2])
    spec_path = write_spec(
        tiny_spec(["srv_web", {"name": "broken", "trace": str(corrupt)}]), tmp_path / "tiny.json"
    )
    expected, total = run.expected_points(spec_path)
    monkeypatch.setattr(run, "MIN_REPS", 1)

    metrics, attempted, failed, verdict, info = run.end_to_end(
        spec_path, tmp_path / "run", 0.0, expected, total
    )
    assert attempted == len(expected) == 4
    assert 0 < failed <= attempted
    assert info["failed_frac"] == failed / attempted
    assert verdict.problems
    assert metrics["wall_s"] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
