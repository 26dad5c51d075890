"""Tests of the benchmark itself: oracle, seeded inputs, tracer, harness.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qvint  # noqa: E402
import qvint.cli  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from worker import run_rung  # noqa: E402
from workloads import WORKLOADS, Rung, write_seeded_domain  # noqa: E402


def rung_named(workload, name, tmp_path, seed=1):
    return next(r for r in WORKLOADS[workload](seed, tmp_path) if r.name == name)


def test_fixed_rung_passes_its_oracle(tmp_path):
    rung = rung_named("census-ladder", "enumerate-gf7-d3-k3", tmp_path)
    assert run_rung(qvint.cli.main, rung, None)["problems"] == []


def test_wrong_expected_value_is_reported_as_failure(tmp_path):
    rung = rung_named("census-ladder", "enumerate-gf7-d3-k3", tmp_path)
    wrong = replace(rung, expect=dict(rung.expect,
                                      **{"census.success_probability": "2394/2401"}))
    problems = run_rung(qvint.cli.main, wrong, None)["problems"]
    assert problems == ["census.success_probability = '2395/2401', expected '2394/2401'"]


def test_nonzero_exit_and_usage_errors_fail():
    rung = Rung("bad-flags", ("enumerate", "--field", "6", "--vandermonde", "1"),
                expect={"census.image_size": 1})
    problems = run_rung(qvint.cli.main, rung, None)["problems"]
    assert problems[0] == "exit code 2, expected 0"


def test_last_line_oracle():
    rung = Rung("v", ("verify",), last_line="109/109 checks passed")
    assert rung.check(0, "PASS  x\n109/109 checks passed\n") == []
    assert rung.check(0, "108/109 checks passed\n") == [
        "last line '108/109 checks passed', expected '109/109 checks passed'"]
    assert rung.check(1, "109/109 checks passed\n") == ["exit code 1, expected 0"]


def test_seeded_domain_is_reproducible_with_fixed_shape(tmp_path):
    texts = []
    for seed in (1, 1, 2):
        path = tmp_path / f"d{len(texts)}.txt"
        write_seeded_domain(path, seed)
        texts.append(path.read_text())
    assert texts[0] == texts[1] != texts[2]
    for text in texts:
        header, *rows = text.splitlines()
        assert header == "q=9 n=4 modulus=1,0,1"
        assert len(rows) == len(set(rows)) == 10
        assert "0:0,0:0,0:0,0:0" not in rows
        assert all(len(row.split(",")) == 4 for row in rows)


def test_seed_changes_inputs_not_commands_cost(tmp_path):
    for name, build in WORKLOADS.items():
        a, b = build(1, tmp_path), build(2, tmp_path)
        assert [r.name for r in a] == [r.name for r in b]
        for ra, rb in zip(a, b):
            # Only seeds differ; every size flag stays the same.
            diff = [(x, y) for x, y in zip(ra.args, rb.args) if x != y]
            assert all(x.isdigit() and y.isdigit() for x, y in diff), (name, diff)


def test_self_time_subtracts_children():
    tr = tracer_mod.Tracer()
    tr.spans = [["cli.main", 0.0, 10.0, None],
                ["census.enumerate_census", 1.0, 5.0, 0],
                ["field.add_rows", 2.0, 3.0, 1],
                ["census.chebyshev_zero_bound", 6.0, 6.5, 0]]
    times = tr.self_times()
    assert times["cli.self_s"] == 10.0 - 4.0 - 0.5
    assert times["census.enumerate_s"] == 3.0
    assert times["field.self_s"] == 1.0
    assert times["census.other_s"] == 0.5
    assert set(times) == set(tracer_mod.SELF_METRICS)


def test_tracer_wraps_every_binding_and_counts_exactly():
    original = qvint.cli.parse_field_spec
    tr = tracer_mod.Tracer()
    tracer_mod.install(tr, qvint)
    try:
        assert qvint.cli.parse_field_spec is not original
        assert qvint.field.parse_field_spec is qvint.cli.parse_field_spec
        assert qvint.domain.dot.__module__ == "qvint.domain"  # left alone
        rung = Rung("e", ("enumerate", "--field", "5", "--vandermonde", "1", "--k", "1"),
                    expect={"census.image_size": 21})
        assert run_rung(qvint.cli.main, rung, tr)["problems"] == []
    finally:
        tracer_mod.uninstall(qvint)
    assert qvint.cli.parse_field_spec is original
    assert not hasattr(qvint.field.FieldParams.add_rows, "_perfbench_original")
    metrics = tr.layer_metrics()
    assert metrics["census.tuples"] == (5 * 5) ** 1
    assert metrics["census.image_points"] == 21
    assert metrics["census.dot_products"] == 5 ** 2 * 5
    assert metrics["field.table_entries"] == 2 * 5 * 5
    assert metrics["domain.vectors"] == 5
    assert metrics["cli.report_bytes"] > 0
    assert metrics["census.enumerate_s"] > 0
    roots = [s for s in tr.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_has_a_reason_in_benchmark_json(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
