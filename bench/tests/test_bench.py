"""Tests of the benchmark itself (not of dpisat).

Run from the repository root::

    python3 -m pytest -q bench/tests

The end-to-end tests launch ``run_bench.py --smoke``, a configuration with
tiny operators that finishes in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import run_bench  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(tmp_path, workload: str, trace: int, seed: int = 3, root: str = ROOT):
    record = tmp_path / f"{workload}-{seed}-{trace}.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
         "--record", str(record)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc, time.monotonic() - start, record


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = json.dumps(workloads.build(workload, 5))
    assert first == json.dumps(workloads.build(workload, 5))
    assert first != json.dumps(workloads.build(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_structure_does_not_depend_on_seed(workload):
    def shape(ops):
        return [(op["id"], op["expect"], op.get("scenario", {}).get("checks")) for op in ops]

    assert shape(workloads.build(workload, 1)) == shape(workloads.build(workload, 2))


def test_corpus_covers_every_spec_and_check():
    ops = workloads.corpus(1)
    measures = {json.dumps(op["scenario"]["measure"], sort_keys=True) for op in ops}
    assert measures == {json.dumps(m, sort_keys=True) for m in workloads.MEASURES}
    used = {c for op in ops for c in op["scenario"]["checks"]}
    assert used == {"gap", "residual1", "residual2", "converse", "boundary", "petz",
                    "alpha_z_crosscheck", "tangent"}
    dims = {op["scenario"]["channel"].get("dim") for op in ops} - {None}
    assert min(dims) == 2 and max(dims) == 8


def test_sweep_grid_has_the_in_region_points():
    assert len(workloads.in_region_points(workloads.SWEEP_GRID)) == 43


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _report(**over):
    report = {
        "gap": 0.0, "saturated": True, "passed": True, "residual1_frobenius": 0.0,
        "residual2_frobenius": 0.0, "checks": {"gap": {"passed": True, "value": 0.0}},
    }
    report.update(over)
    return report


def test_check_flags_a_wrong_verdict():
    sat = {"kind": "run", "expect": "saturated"}
    nosat = {"kind": "run", "expect": "not_saturated"}
    assert checks.check_op(sat, 0, _report()) is None
    assert "saturated=False" in checks.check_op(sat, 0, _report(saturated=False))
    assert checks.check_op(nosat, 0, _report(gap=0.5, saturated=False)) is None
    assert "not positive" in checks.check_op(nosat, 0, _report(gap=0.0, saturated=False))
    assert checks.check_op(sat, 1, _report()).startswith("exit code 1")
    failing = _report(passed=False, checks={"residual2": {"passed": False, "norm": 1.0}})
    assert checks.check_op(sat, 1, failing) == "checks failed: residual2"
    assert checks.check_op(sat, 0, failing).startswith("exit code 0")


def test_check_flags_a_short_or_negative_sweep():
    op = {"kind": "sweep", "expect": "sweep", "saturating": False, "rows": [[0.5, 0.5], [0.5, 0.75]]}
    rows = [{"alpha": 0.5, "z": 0.5, "gap": 0.1, "residual1_norm": 1.0, "residual2_norm": 1.0},
            {"alpha": 0.5, "z": 0.75, "gap": 0.1, "residual1_norm": 1.0, "residual2_norm": 1.0}]
    assert checks.check_op(op, 0, rows) is None
    assert "rows" in checks.check_op(op, 0, rows[:1])
    assert "< -gap_tol" in checks.check_op(op, 0, [rows[0], dict(rows[1], gap=-1.0)])


def test_known_defects_name_generated_ops():
    ids = [op["id"] for op in workloads.corpus(1)]
    for defect in checks.KNOWN_DEFECTS:
        assert any(re.search(defect.pattern, i) for i in ids), defect.pattern
    listed = [i for i in ids if any(re.search(d.pattern, i) for d in checks.KNOWN_DEFECTS)]
    assert sorted(listed) == sorted([
        "illcond/relative_entropy/sigma1e-09/n6",
        "illcond/relative_entropy/sigma1e-03/n6",
        "illcond/sandwiched_renyi/sigma1e-04/n6",
        "sat/f_divergence-fx_log_x/unitary/n4",
        "sat/f_divergence-fpower-alpha1.5/partial_trace/n4",
        "sat/f_divergence-fchi_square/unitary/n2",
    ])


def test_measured_ops_exclude_only_the_known_defect_probe():
    ops = workloads.corpus(1)
    probe = [op["id"] for op in ops if checks.covered_by_known_defect(op["id"])]
    assert len(probe) == 6 and len(ops) - len(probe) == 31
    for workload in ("high_kraus", "sweep"):
        assert not any(checks.covered_by_known_defect(op["id"])
                       for op in workloads.build(workload, 1))


def _fd_failure(**over):
    checks_ = {"gap": {"passed": True}, "residual1": {"passed": True},
               "residual2": {"passed": False}}
    fields = dict(saturated=False, passed=False, checks=checks_, gap=1e-14,
                  residual1_frobenius=1e-14, residual2_frobenius=3e-7, grad2_method="numeric")
    fields.update(over)
    return _report(**fields)


def test_known_defect_is_exempt_only_in_its_recorded_mode():
    op_id = "sat/f_divergence-fx_log_x/unitary/n4"
    assert checks.known_defect(op_id, _fd_failure()) is not None
    # A raise or an unreadable report has no output.
    assert checks.known_defect(op_id, None) is None
    # A closed-form grad2 is never exempt.
    assert checks.known_defect(op_id, _fd_failure(grad2_method="closed_form")) is None
    # A residual beyond the finite-difference range, or another failed check.
    assert checks.known_defect(op_id, _fd_failure(residual2_frobenius=0.5)) is None
    broken = _fd_failure()
    broken["checks"]["petz"] = {"passed": False}
    assert checks.known_defect(op_id, broken) is None
    # The commuting f-divergence fixtures pass and are not listed.
    assert checks.known_defect("sat/f_divergence-fneg_log/measure_prepare/n3", _fd_failure()) is None
    # The clustering defect: saturated=false with a huge residual2 only.
    cluster = "illcond/relative_entropy/sigma1e-09/n6"
    assert checks.known_defect(cluster, _fd_failure(residual2_frobenius=1.9e9)) is not None
    assert checks.known_defect(cluster, _fd_failure(residual2_frobenius=1e-3)) is None
    assert checks.known_defect(cluster, _fd_failure(residual2_frobenius=1.9e9, error="boom")) is None


# ---------------------------------------------------------------------------
# Timing summary
# ---------------------------------------------------------------------------


def test_timings_take_each_ops_best_latency():
    fast = [0.001, 0.002, 0.010, 0.100]
    slow = [2 * t for t in fast]
    # Passes on a slow host state change nothing once each op had a fast run.
    mixed = worker.timing_metrics([slow, fast, [fast[0], slow[1], fast[2], slow[3]]],
                                  [4, 4, 4], [0.2, 0.1, 0.3, 0.4])
    only_fast = worker.timing_metrics([fast], [4], [0.1])
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        assert mixed[name] == pytest.approx(only_fast[name])
    assert mixed["ops_per_s"] == pytest.approx(4 / sum(fast))
    assert mixed["op_p50_ms"] == pytest.approx(2.0) and mixed["op_p90_ms"] == pytest.approx(100.0)
    # Set-up: median over groups of SETUP_GROUP samples of each group's best.
    assert worker.SETUP_GROUP == 3 and mixed["setup_s"] == pytest.approx((0.1 + 0.4) / 2)
    # Ops that failed their check are not counted as completed.
    assert worker.timing_metrics([fast], [3], [0.1])["ops_per_s"] == pytest.approx(3 / sum(fast))


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_restores_every_binding_even_on_error():
    import dpisat.cli  # noqa: F401 - loads every layer module
    import dpisat.saturation as sat

    original = sat.apply
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer:
            assert sat.apply is not original
            raise ValueError("boom")
    assert sat.apply is original
    assert tracing.unpatched()


def test_tracer_counts_eigensolves_and_self_time():
    import numpy as np
    import dpisat.cli  # noqa: F401
    from dpisat import channels, saturation
    from dpisat.divergences import MeasureSpec

    rho, sigma = np.diag([0.6, 0.4]), np.diag([0.3, 0.7])
    measure, channel = MeasureSpec.relative_entropy(), channels.depolarizing(2, 0.5)
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = "one"
        saturation.build_report(measure, channel, rho, sigma)
    table = tracing.aggregate(tracer.spans)
    assert table["eigh_per_op"]["one"] > 0
    assert table["reports"] == 1
    assert table["apply_in_reports"] == 11
    root = table["functions"]["saturation.build_report"]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    self_sum = sum(row["self_s"] for row in table["functions"].values())
    assert root["calls"] == 1 and self_sum == pytest.approx(total, rel=1e-9)


# ---------------------------------------------------------------------------
# End to end (smoke configuration)
# ---------------------------------------------------------------------------


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace):
    proc, elapsed, _ = _run(tmp_path, "corpus", trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    lines = proc.stdout.splitlines()[:-1]
    for name, entry in result["metrics"].items():
        assert any(line.startswith(f"{name}: ") and f" {entry['unit']}" in line for line in lines)
    assert any(line.startswith("fail_ratio: ") and "failed/attempted" in line for line in lines)
    assert any(line.startswith("known-defect probe ") for line in lines)
    assert result["failed"] == 0
    assert elapsed < 60.0


def test_smoke_runs_of_every_workload_pass_their_checks(tmp_path):
    for workload in ("high_kraus", "sweep"):
        result = _result(_run(tmp_path, workload, 0)[0])
        assert result["correct"] is True and result["failed"] == 0


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for _ in range(2):
        metrics = _result(_run(tmp_path, "sweep", 1)[0])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh_calls"] > 0


def test_compare_reports_zero_deviation_for_identical_runs(tmp_path, capsys):
    _, _, first = _run(tmp_path, "sweep", 0, seed=4)
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(first, other / first.name)
    assert compare.main([str(first), str(other)]) == 0
    assert "largest relative deviation 0.000e+00" in capsys.readouterr().out


def test_fails_without_the_program_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc, _, _ = _run(tmp_path, "corpus", 0, root=str(bare))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_units_table_matches_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER_UNITS
    # sweep stays runnable by hand but is not declared (see bench/README.md).
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "high_kraus"]
    assert run_bench.WORKLOADS == workloads.WORKLOADS
