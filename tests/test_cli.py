import csv
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import dpisat.saturation as sat
from dpisat import calculus
from dpisat.channels import channel_to_json, depolarizing
import dpisat.cli as cli
from dpisat.cli import main, random_positive_state
from dpisat.divergences import FAMILIES, MeasureSpec, measure_to_json, scaling_check
from dpisat.linalg import HermitianOperator, PositiveOperator, frobenius, matrix_to_json

from _fixtures import (
    boundary_saturating_fixtures,
    classical_kl,
    fuchs_caves,
    gen,
    ill_conditioned_partial_trace,
    isometric_embedding,
    measure_suite,
    random_positive,
    random_psd_rank,
)

PINCHING_SCENARIO = {
    "name": "pinching-relent",
    "measure": {"family": "relative_entropy"},
    "channel": {"builder": "dephasing_pinching", "dim": 2},
    "rho": {"builder": "diag", "values": [0.6, 0.4]},
    "sigma": {"builder": "diag", "values": [0.3, 0.7]},
    "checks": ["gap", "residual1", "residual2", "converse", "petz"],
}

DEPOLARIZING_SCENARIO = {
    "name": "depolarizing-gap",
    "measure": {"family": "relative_entropy"},
    "channel": {"builder": "depolarizing", "dim": 2, "p": 0.5},
    "rho": {"builder": "diag", "values": [0.9, 0.1]},
    "sigma": {"builder": "diag", "values": [0.5, 0.5]},
    "checks": ["gap"],
}

RANDOM_SCENARIO = {
    "name": "random-alphaz",
    "measure": {"family": "alpha_z", "alpha": 1.5, "z": 1.2},
    "channel": {"builder": "depolarizing", "dim": 3, "p": 0.3},
    "rho": {"builder": "random_pos", "dim": 3, "seed": 42},
    "sigma": {"builder": "random_pos", "dim": 3, "seed": 43},
    "checks": ["gap", "residual1", "converse", "petz", "alpha_z_crosscheck"],
}

BOUNDARY_SCENARIO = {
    "name": "boundary-rank2",
    "measure": {"family": "relative_entropy"},
    "channel": {"builder": "dephasing_pinching", "dim": 3},
    "rho": {"builder": "diag", "values": [0.7, 0.3, 0.0]},
    "sigma": {"builder": "diag", "values": [0.5, 0.3, 0.2]},
    "checks": ["gap", "boundary", "tangent"],
}


def write_scenarios(path, scenarios):
    path.write_text(json.dumps(scenarios), encoding="utf-8")


def load_report(out_dir, name):
    with open(os.path.join(out_dir, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRun:
    def test_saturating_scenario_passes(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        rep = load_report(out, "pinching-relent")
        assert rep["passed"] is True
        assert rep["saturated"] is True
        assert all(c["passed"] for c in rep["checks"].values())

    def test_depolarizing_gap_value(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [DEPOLARIZING_SCENARIO])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        rep = load_report(out, "depolarizing-gap")
        oracle = classical_kl([0.9, 0.1], [0.5, 0.5]) - classical_kl([0.7, 0.3], [0.5, 0.5])
        assert rep["gap"] == pytest.approx(oracle, abs=1e-9)
        assert rep["checks"]["gap"]["passed"] is True

    def test_boundary_scenario(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [BOUNDARY_SCENARIO])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        rep = load_report(out, "boundary-rank2")
        assert rep["checks"]["boundary"]["zeros_log_norm"] <= 1e-8
        assert rep["checks"]["tangent"]["measured"] == 8

    @pytest.mark.parametrize("measure", [
        {"family": "fidelity"},
        {"family": "sandwiched_renyi", "alpha": 2.0},
    ], ids=lambda m: m["family"])
    def test_boundary_scenario_for_other_families(self, tmp_path, measure):
        # The tangent-space gradient residual is judged; the support-log
        # residuals are relative-entropy recoverability conditions.
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [dict(BOUNDARY_SCENARIO, measure=measure)])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        rep = load_report(out, "boundary-rank2")
        assert rep["passed"] is True
        assert abs(rep["gap"]) <= 1e-12
        assert set(rep["checks"]["boundary"]) == {"passed", "general_norm"}
        assert rep["checks"]["boundary"]["general_norm"] <= 1e-10
        assert rep["checks"]["tangent"]["measured"] == 8

    def test_neg_log_boundary_fails_alone_with_reason(self, tmp_path):
        scen = tmp_path / "scen.json"
        measure = {"family": "f_divergence", "f": "neg_log"}
        write_scenarios(scen, [dict(BOUNDARY_SCENARIO, name="neg-log", measure=measure)])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 1
        rep = load_report(out, "neg-log")
        assert "error" not in rep
        assert rep["gap"] is None
        reason = "report could not be made: f-divergence 'neg_log' has no continuous extension at 0"
        for check in ("gap", "boundary"):
            assert rep["checks"][check] == {"passed": False, "reason": reason}
        assert rep["checks"]["tangent"] == {"passed": True, "measured": 8, "expected": 8}

    def test_unevaluable_gap_fails_only_the_checks_that_need_it(self, tmp_path):
        # neg_log has no continuous extension at 0, so the gap of a
        # rank-deficient rho cannot be evaluated; tangent does not need it.
        tangent_only = {
            "name": "neg-log-tangent",
            "measure": {"family": "f_divergence", "f": "neg_log"},
            "channel": {"builder": "dephasing_pinching", "dim": 3},
            "rho": {"builder": "diag", "values": [0.5, 0.5, 0.0]},
            "sigma": {"builder": "diag", "values": [0.5, 0.3, 0.2]},
            "checks": ["tangent"],
        }
        # Measure-and-prepare into a larger space leaves L(sigma) singular.
        singular_image = {
            "name": "singular-image",
            "measure": {"family": "relative_entropy"},
            "channel": {
                "builder": "measure_prepare",
                "povm": [{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
                "states": [
                    {"dim": 3, "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]}
                ],
            },
            "rho": {"builder": "diag", "values": [1.0, 0.0]},
            "sigma": {"builder": "diag", "values": [0.5, 0.5]},
            "checks": ["gap", "boundary", "tangent"],
        }
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [tangent_only, singular_image])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 1

        rep = load_report(out, "neg-log-tangent")
        assert "error" not in rep
        assert rep["passed"] is True
        assert rep["gap"] is None
        assert rep["checks"] == {"tangent": {"passed": True, "measured": 8, "expected": 8}}

        rep = load_report(out, "singular-image")
        assert "error" not in rep
        assert rep["passed"] is False
        assert rep["gap"] is None
        for check in ("gap", "boundary"):
            assert rep["checks"][check]["passed"] is False
            assert "channel image of sigma is not strictly positive" in rep["checks"][check]["reason"]
        assert rep["checks"]["tangent"] == {"passed": True, "measured": 3, "expected": 3}

    def test_determinism_with_fixed_seeds(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [RANDOM_SCENARIO, PINCHING_SCENARIO])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scen), "--out", str(out1)]) == 0
        assert main(["run", str(scen), "--out", str(out2)]) == 0
        for name in ("random-alphaz", "pinching-relent"):
            r1, r2 = load_report(out1, name), load_report(out2, name)
            r1.pop("generated_at")
            r2.pop("generated_at")
            assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_failing_check_gives_exit_one(self, tmp_path):
        # Deliberately inconsistent tolerances: a gap_tol of 1 declares the
        # depolarizing instance saturated, so its large residual must fail.
        scen = tmp_path / "scen.json"
        failing = dict(DEPOLARIZING_SCENARIO)
        failing["name"] = "forced-failure"
        failing["checks"] = ["residual1"]
        failing["tolerances"] = {"gap_tol": 1.0}
        write_scenarios(scen, [failing])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 1
        rep = load_report(out, "forced-failure")
        assert rep["passed"] is False
        assert rep["checks"]["residual1"]["passed"] is False

    def test_seed_env_override_changes_states(self, tmp_path, monkeypatch):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [RANDOM_SCENARIO])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scen), "--out", str(out1)]) == 0
        monkeypatch.setenv("DPISAT_SEED", "777")
        assert main(["run", str(scen), "--out", str(out2)]) == 0
        r1, r2 = load_report(out1, "random-alphaz"), load_report(out2, "random-alphaz")
        assert r1["gap"] != r2["gap"]
        assert r2["seeds"] == {"rho": 777, "sigma": 777}

    def test_no_temp_files_left(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO])
        out = tmp_path / "out"
        main(["run", str(scen), "--out", str(out)])
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    def test_dump_matrices_embeds_residuals(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out), "--dump-matrices"]) == 0
        rep = load_report(out, "pinching-relent")
        assert rep["residual1"]["dim"] == 2
        assert rep["residual2"]["dim"] == 2


def applicable_checks(m: MeasureSpec) -> list:
    """Every check that applies to the measure ``m``, by its family's row."""
    checks = ["gap", "residual1", "residual2", "boundary", "petz", "tangent"]
    if m._row.scaling is not None:
        checks.append("converse")
    if m._row.renyi:
        checks.append("alpha_z_crosscheck")
    return checks


def run_specs(tmp_path, c, rho, sigma, specs=None):
    """``dpisat run`` on one scenario per spec with every applicable check:
    the exit code and the reports, in spec order."""
    specs = measure_suite() if specs is None else specs
    scenarios = [
        {"name": f"spec{i}", "measure": measure_to_json(m), "channel": channel_to_json(c),
         "rho": matrix_to_json(rho), "sigma": matrix_to_json(sigma), "checks": applicable_checks(m)}
        for i, m in enumerate(specs)
    ]
    scen, out = tmp_path / "scen.json", tmp_path / "out"
    write_scenarios(scen, scenarios)
    code = main(["run", str(scen), "--out", str(out)])
    return code, [load_report(out, sc["name"]) for sc in scenarios]


class TestOneReportPath:
    """A rank-deficient rho gets the report, its residuals, Petz errors and
    every check from the one ``build_report`` call a full-rank rho gets."""

    @pytest.mark.parametrize("fixture", boundary_saturating_fixtures(), ids=lambda f: f[0])
    def test_boundary_matrix(self, tmp_path, capsys, fixture):
        _, c, rho, sigma = fixture
        code, reports = run_specs(tmp_path, c, rho, sigma)
        capsys.readouterr()
        assert code == 1  # neg_log alone fails
        tangent = rho.dim ** 2 - (rho.dim - rho.rank) ** 2
        for m, rep in zip(measure_suite(), reports):
            checks = rep["checks"]
            assert set(checks) == set(applicable_checks(m))
            if m.f_name == "neg_log":
                # No value at a rank-deficient rho: each check that reads the
                # report fails alone with the reason; tangent is judged.
                reason = "report could not be made: f-divergence 'neg_log' has no continuous extension at 0"
                assert {name: detail for name, detail in checks.items() if name != "tangent"} == {
                    name: {"passed": False, "reason": reason} for name in checks if name != "tangent"}
                assert checks["tangent"] == {"passed": True, "measured": tangent, "expected": tangent}
                assert (rep["gap"], rep["saturated"], rep["passed"]) == (None, None, False)
                continue
            assert rep["passed"] is True and rep["saturated"] is True, m
            assert abs(rep["gap"]) <= 1e-13, m
            assert rep["residual1_frobenius"] <= 1e-13, m
            # residual2 is never projected: sigma is interior. Projecting it
            # too leaves a residual of order 1 on saturating fixtures.
            assert rep["residual2_frobenius"] <= 2e-12, m
            assert rep["petz_recovery_error_rho"] <= 1e-14 * frobenius(rho), m
            assert rep["petz_recovery_error_sigma"] <= 1e-14 * frobenius(sigma), m
            assert checks["boundary"]["general_norm"] == rep["residual1_frobenius"]
            assert checks["tangent"] == {"passed": True, "measured": tangent, "expected": tangent}
            if m._row.renyi:
                cross = checks["alpha_z_crosscheck"]
                assert cross["gradient_residual"] == rep["residual1_frobenius"]
                assert max(cross["chehade_residual"], cross["zhang_residual"]) <= 1e-12, m

    def test_depolarizing_boundary_does_not_saturate(self, tmp_path, capsys):
        g = gen(5)
        rho, sigma = random_psd_rank(g, 3, 2), random_positive(g, 3)
        specs = [m for m in measure_suite() if m.f_name != "neg_log"]
        code, reports = run_specs(tmp_path, depolarizing(3, 0.3), rho, sigma, specs)
        capsys.readouterr()
        assert code == 0
        for m, rep in zip(specs, reports):
            assert rep["saturated"] is False, m
            assert rep["gap"] > 0.1 and rep["residual1_frobenius"] > 0.1, m
            assert rep["petz_recovery_error_rho"] > 0.1, m

    def test_isometric_embedding_fails_per_check(self, tmp_path, capsys):
        # L(rho) and L(sigma) are singular: the report cannot be made, and
        # only the checks that read it fail. L(sigma) is named, and no
        # boundary operation is advised: none takes it.
        scenario = dict(PINCHING_SCENARIO, name="isometry", channel=channel_to_json(isometric_embedding()),
                        checks=["gap", "residual1", "tangent"])
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [scenario])
        assert main(["run", str(scen), "--out", str(out)]) == 1
        assert capsys.readouterr().out == "isometry: FAIL (gap, residual1)\n"
        rep = load_report(out, "isometry")
        assert "error" not in rep
        for name in ("gap", "residual1"):
            reason = rep["checks"][name]["reason"]
            assert rep["checks"][name]["passed"] is False
            assert reason.startswith("report could not be made: channel image of sigma is not strictly positive")
            assert "boundary_residual" not in reason
        assert rep["checks"]["tangent"] == {"passed": True, "measured": 4, "expected": 4}

    @pytest.mark.parametrize("measure,grid", [
        ("sandwiched_renyi", "alpha=0.5:3.0:0.25"),
        ("alpha_z", "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5"),
    ])
    def test_sweep_admits_a_rank_deficient_rho(self, tmp_path, capsys, measure, grid):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--measure", measure, "--grid", grid,
            "--channel", json.dumps({"builder": "dephasing_pinching", "dim": 3}),
            "--rho", json.dumps({"builder": "diag", "values": [0.6, 0.4, 0.0]}),
            "--sigma", json.dumps({"builder": "diag", "values": [0.3, 0.5, 0.2]}),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 10
        for row in rows:
            assert abs(float(row["gap"])) <= 1e-12, row
            assert float(row["residual1_norm"]) <= 1e-12, row
            assert float(row["residual2_norm"]) <= 1e-12, row


# The v1 report fields beyond the header, named here independently of the
# library: the numbers and the verdict, and with --dump-matrices the residuals.
REPORT_NUMBERS = ("gap", "residual1_frobenius", "residual2_frobenius", "residual1_spectral",
                  "residual2_spectral", "saturated", "petz_recovery_error_rho", "petz_recovery_error_sigma")
REPORT_MATRICES = ("residual1", "residual2")


class TestPerCheckIsolation:
    """A check that cannot be evaluated fails alone, with the reason, and the
    others are judged on their numbers."""

    @pytest.mark.parametrize("s", [1e-9, 1e-12])
    def test_ill_conditioned_sigma_fails_petz_alone(self, tmp_path, capsys, s):
        # cond(L sigma) ~ 1/s puts the Petz map's trace-preservation defect
        # above its bound. The verdicts of the other checks are not pinned:
        # eigenvalue clustering merges s and 5s (the gap and residual2 are
        # off by far more than roundoff); only that each is judged is.
        code, reports = run_specs(tmp_path, *ill_conditioned_partial_trace(s))
        capsys.readouterr()
        assert code == 1
        for m, rep in zip(measure_suite(), reports):
            checks = rep["checks"]
            assert set(checks) == set(applicable_checks(m))
            petz = checks.pop("petz")
            assert petz["passed"] is False, m
            assert petz["reason"].startswith("Petz recovery map is not trace preserving"), m
            assert not [name for name, detail in checks.items() if "reason" in detail], m
            assert isinstance(checks["gap"]["value"], float), m
            for key in REPORT_NUMBERS[:5]:  # the gap and the four residual norms
                assert isinstance(rep[key], float) and math.isfinite(rep[key]), (m, key)
            assert isinstance(rep["saturated"], bool), m
            assert (rep["petz_recovery_error_rho"], rep["petz_recovery_error_sigma"]) == (None, None), m


class TestConverseVerdict:
    """``converse`` judges the report alone: a violation is a verdict whose
    detail has the keys of a pass."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("s", [1e-9, 1e-12])
    def test_ill_conditioned_sigma_passes_converse(self, tmp_path, capsys, s, seed):
        # The pair saturates exactly, and the verdict reads only the report's
        # gap and residual1, whatever the roundoff of about eps cond(sigma).
        specs = [m for m in measure_suite() if m._row.scaling is not None]
        assert len(specs) == 8
        _, reports = run_specs(tmp_path, *ill_conditioned_partial_trace(s, seed), specs)
        capsys.readouterr()
        for m, rep in zip(specs, reports):
            conv = rep["checks"]["converse"]
            assert conv["passed"] is True, (m, conv)
            assert set(conv) == {"passed", "residual1_norm", "gap", "implied_gap_zero"}, m

    def test_violation_is_a_failed_verdict(self, tmp_path, capsys):
        # residual_tol = 10 calls a residual of 1.39 vanishing, but the gap
        # under depolarizing noise is 0.286: the converse is violated.
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [dict(DEPOLARIZING_SCENARIO, checks=["gap", "converse"])])
        assert main(["run", str(scen), "--out", str(out), "--tol-residual", "10"]) == 1
        assert capsys.readouterr().out == "depolarizing-gap: FAIL (converse)\n"
        rep = load_report(out, "depolarizing-gap")
        assert rep["checks"]["converse"] == {
            "passed": False, "residual1_norm": rep["residual1_frobenius"], "gap": rep["gap"],
            "implied_gap_zero": True,
        }
        assert rep["residual1_frobenius"] == pytest.approx(1.39, abs=5e-3)
        assert rep["gap"] == pytest.approx(0.2858, abs=5e-5)
        assert rep["checks"]["gap"] == {"passed": True, "value": rep["gap"]}


class TestOneReportShape:
    """A report that could not be made has the fields of one that was, each
    null where there is no number."""

    @pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump_matrices"])
    def test_same_fields_made_or_not(self, tmp_path, capsys, dump):
        checks = ["gap", "residual1", "tangent"]
        neg_log = {"family": "f_divergence", "f": "neg_log"}
        scenarios = [
            dict(PINCHING_SCENARIO, name="made", checks=checks + ["petz"]),
            dict(PINCHING_SCENARIO, name="isometry", channel=channel_to_json(isometric_embedding()),
                 checks=checks),
            dict(BOUNDARY_SCENARIO, name="made-boundary"),
            dict(BOUNDARY_SCENARIO, name="neg-log", measure=neg_log, checks=["gap", "petz", "tangent"]),
        ]
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, scenarios)
        assert main(["run", str(scen), "--out", str(out)] + (["--dump-matrices"] if dump else [])) == 1
        assert capsys.readouterr().out == (
            "made: PASS\nisometry: FAIL (gap, residual1)\nmade-boundary: PASS\nneg-log: FAIL (gap, petz)\n")
        reports = {sc["name"]: load_report(out, sc["name"]) for sc in scenarios}
        fields = REPORT_NUMBERS + (REPORT_MATRICES if dump else ())
        made = reports["made"]
        assert set(fields) <= set(made)
        assert all(made[key] is not None for key in fields)
        for name in ("isometry", "made-boundary", "neg-log"):
            assert set(reports[name]) == set(made), name
        for name in ("isometry", "neg-log"):
            rep = reports[name]
            assert {key: rep[key] for key in fields} == dict.fromkeys(fields), name
            tangent = rep["checks"].pop("tangent")
            assert tangent["passed"] is True and "reason" not in tangent, name
            assert all(not c["passed"] and c["reason"].startswith("report could not be made: ")
                       for c in rep["checks"].values()), name


def count_channel_calls(monkeypatch) -> dict:
    """Count the channel applies and adjoints made through saturation."""
    calls = {"apply": 0, "_act_adjoint": 0}
    for name in calls:
        func = getattr(sat, name)

        def wrapper(*args, _name=name, _func=func, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(sat, name, wrapper)
    return calls


def positive_state(dim, seed):
    return PositiveOperator(HermitianOperator(random_positive_state(dim, seed)))


class TestReportReuse:
    """converse and alpha_z_crosscheck take the channel images, gap and
    residual1 of the scenario's report, with details bit-identical to the
    public functions that compute them afresh."""

    @pytest.mark.parametrize(
        "measure,adjoints",
        [
            ({"family": "alpha_z", "alpha": 1.5, "z": 1.2}, 6),
            # Sandwiched is alpha_z at z = alpha bit for bit, so its residual1
            # is the crosscheck's gradient residual too.
            ({"family": "sandwiched_renyi", "alpha": 1.5}, 6),
        ],
    )
    def test_details_match_public_functions(self, tmp_path, monkeypatch, measure, adjoints):
        scenario = dict(RANDOM_SCENARIO, name="reuse", measure=measure,
                        checks=["gap", "residual1", "residual2", "converse", "petz",
                                "alpha_z_crosscheck"])
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [scenario])
        calls = count_channel_calls(monkeypatch)
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"apply": 2, "_act_adjoint": adjoints}
        report = load_report(tmp_path / "out", "reuse")
        checks = report["checks"]
        assert checks["alpha_z_crosscheck"]["gradient_residual"] == report["residual1_frobenius"]

        m = MeasureSpec.alpha_z(1.5, 1.2) if measure["family"] == "alpha_z" else (
            MeasureSpec.sandwiched_renyi(1.5))
        c, rho, sigma = depolarizing(3, 0.3), positive_state(3, 42), positive_state(3, 43)
        cert = sat.converse_certificate(m, c, rho, sigma)
        assert checks["converse"] == {
            "passed": True, "residual1_norm": cert.residual1_norm, "gap": cert.gap,
            "implied_gap_zero": cert.implied_gap_zero,
        }
        res = sat.alpha_z_crosscheck(c, rho, sigma, 1.5, 1.2 if m.family == "alpha_z" else 1.5)
        assert checks["alpha_z_crosscheck"] == {
            "passed": True, "gradient_residual": res.gradient_residual,
            "chehade_residual": res.chehade_residual, "zhang_residual": res.zhang_residual,
        }


    @pytest.mark.parametrize("full_rank", [True, False], ids=["full_rank", "rank_deficient"])
    def test_boundary_check_takes_no_further_images(self, tmp_path, monkeypatch, full_rank):
        # The boundary check reads the report's pairs, and its general_norm and
        # zeros_log_norm are the report's residual1: the tangent residual,
        # residual1 at full rank. Only Hiai's residual takes an adjoint more.
        from dpisat.linalg import PsdOperator

        values = [0.6, 0.3, 0.1] if full_rank else [0.7, 0.3, 0.0]
        scenario = dict(
            BOUNDARY_SCENARIO, name="bnd",
            channel={"builder": "depolarizing", "dim": 3, "p": 0.4},
            rho={"builder": "diag", "values": values},
            checks=["gap", "residual1", "residual2", "converse", "petz", "boundary", "tangent"],
        )
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [scenario])
        calls = count_channel_calls(monkeypatch)
        main(["run", str(scen), "--out", str(tmp_path / "out")])
        assert calls["apply"] == 2
        report = load_report(tmp_path / "out", "bnd")
        detail = report["checks"]["boundary"]

        c = depolarizing(3, 0.4)
        rho = PsdOperator(HermitianOperator(np.diag(values).astype(complex)))
        sigma = PositiveOperator(HermitianOperator(np.diag([0.5, 0.3, 0.2]).astype(complex)))
        m = MeasureSpec.relative_entropy()
        assert detail["zeros_log_norm"] == frobenius(sat.boundary_residual_relent(c, rho, sigma))
        assert detail["general_norm"] == frobenius(sat.boundary_residual_general(m, c, rho, sigma))
        assert detail["zeros_log_norm"] == detail["general_norm"] == report["residual1_frobenius"]
        assert detail["hiai_norm"] == float(np.linalg.norm(sat.hiai_residual(c, rho, sigma)))
        if full_rank:
            assert detail["general_norm"] == frobenius(sat.residual1(m, c, PositiveOperator(rho.op), sigma))

        # gap and boundary alone: the report's two residual adjoints and Hiai's.
        write_scenarios(scen, [dict(scenario, name="bnd-only", checks=["gap", "boundary"])])
        calls.update(dict.fromkeys(calls, 0))
        main(["run", str(scen), "--out", str(tmp_path / "out")])
        assert calls == {"apply": 2, "_act_adjoint": 3}
        assert load_report(tmp_path / "out", "bnd-only")["checks"]["boundary"] == detail

    @pytest.mark.parametrize("measure,spec", [
        ({"family": "relative_entropy"}, MeasureSpec.relative_entropy()),
        ({"family": "fidelity"}, MeasureSpec.fidelity()),
        ({"family": "sandwiched_renyi", "alpha": 0.7}, MeasureSpec.sandwiched_renyi(0.7)),
        ({"family": "alpha_z", "alpha": 1.5, "z": 1.2}, MeasureSpec.alpha_z(1.5, 1.2)),
    ])
    def test_converse_reads_the_report_pair(self, tmp_path, monkeypatch, measure, spec):
        # The verdict reads the report's gap and residual1: it eigensolves nothing.
        import dpisat.cli as cli

        check, eigh, calls = cli._CHECKS["converse"], np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        def counted(ctx):
            monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
            try:
                return check.run(ctx)
            finally:
                monkeypatch.setattr(np.linalg, "eigh", eigh)

        monkeypatch.setitem(cli._CHECKS, "converse", check._replace(run=counted))
        scenario = dict(RANDOM_SCENARIO, name="conv", measure=measure, checks=["gap", "converse"])
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [scenario])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        assert calls == []

        cert = sat.converse_certificate(spec, depolarizing(3, 0.3), positive_state(3, 42), positive_state(3, 43))
        assert load_report(tmp_path / "out", "conv")["checks"]["converse"] == {
            "passed": True, "residual1_norm": cert.residual1_norm, "gap": cert.gap,
            "implied_gap_zero": cert.implied_gap_zero,
        }


class TestSchemaErrors:
    def test_integer_entry_beyond_float_range(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        bad = dict(PINCHING_SCENARIO)
        bad["rho"] = {"dim": 2, "entries": [[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]}
        write_scenarios(scen, [bad])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "schema error at scenario[0].rho.entries[0][0]: entries must be finite\n"

    def test_non_hermitian_matrix(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        bad = dict(PINCHING_SCENARIO)
        bad["rho"] = {"dim": 2, "entries": [[[1, 0], [0.5, 0]], [[0, 0], [1, 0]]]}
        write_scenarios(scen, [bad])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "scenario[0].rho" in err

    def test_missing_seed(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        bad = dict(RANDOM_SCENARIO)
        bad["rho"] = {"builder": "random_pos", "dim": 3}
        write_scenarios(scen, [bad])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys, monkeypatch):
        scen = tmp_path / "scen.json"
        out = tmp_path / "out"
        write_scenarios(scen, [dict(RANDOM_SCENARIO, rho={"builder": "random_pos", "dim": 3, "seed": -1})])
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[0].rho.seed: expected a non-negative integer seed, got -1\n"
            )
        write_scenarios(scen, [RANDOM_SCENARIO])
        sweep = [
            "sweep", "--measure", "alpha_z", "--grid", "alpha=1.5:1.5:1;z=1.2:1.2:1",
            "--channel", json.dumps(RANDOM_SCENARIO["channel"]),
            "--rho", json.dumps(RANDOM_SCENARIO["rho"]), "--sigma", json.dumps(RANDOM_SCENARIO["sigma"]),
            "--out", str(tmp_path / "sweep.csv"),
        ]
        for env in ("-1", "x"):
            monkeypatch.setenv("DPISAT_SEED", env)
            for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(out)], sweep):
                assert main(argv) == 2
                assert capsys.readouterr().err == (
                    f"schema error at DPISAT_SEED: expected a non-negative integer, got {env!r}\n"
                )
        assert not out.exists() and not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_allow_non_dpi_must_be_a_bool(self, tmp_path, capsys, flag):
        scen = tmp_path / "scen.json"
        measure = {"family": "sandwiched_renyi", "alpha": 0.2, "allow_non_dpi": flag}
        write_scenarios(scen, [dict(PINCHING_SCENARIO, measure=measure, checks=["gap"])])
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"schema error at scenario[0].measure.allow_non_dpi: expected true or false, got {flag!r}\n"
            )

    @pytest.mark.parametrize("field,value,path", [
        ("rho", {"builder": "diag", "values": []}, "rho.values"),
        ("rho", {"builder": "diag", "values": [0.5, "x"]}, "rho.values"),
        ("rho", {"builder": "diag", "values": [True, 0.5]}, "rho.values"),
        ("rho", {"builder": "random_pos", "dim": 0, "seed": 1}, "rho.dim"),
        ("rho", {"builder": "random_pos", "dim": True, "seed": 1}, "rho.dim"),
        ("rho", {"builder": "random_pos", "dim": 2, "seed": 1.5}, "rho.seed"),
        ("rho", {"builder": "random_pos", "dim": 2, "seed": False}, "rho.seed"),
        ("rho", {"dim": True, "entries": [[[1, 0]]]}, "rho.dim"),
        ("rho", {"rows": 1, "cols": 0, "entries": [[]]}, "rho.cols"),
        ("channel", {"builder": "dephasing_pinching", "dim": 0}, "channel.dim"),
        ("channel", {"builder": "dephasing_pinching", "dim": 2.0}, "channel.dim"),
        ("tolerances", {"gap_tol": 0}, "tolerances.gap_tol"),
        ("tolerances", {"residual_tol": True}, "tolerances.residual_tol"),
        ("tolerances", {"gap_tol": "1e-8"}, "tolerances.gap_tol"),
        # Python's json reads NaN, Infinity and integers beyond the float range.
        ("tolerances", {"gap_tol": float("nan")}, "tolerances.gap_tol"),
        ("measure", {"family": "sandwiched_renyi", "alpha": float("inf")}, "measure.alpha"),
        ("channel", {"builder": "depolarizing", "dim": 2, "p": 10 ** 400}, "channel.p"),
    ])
    def test_field_validators(self, tmp_path, capsys, field, value, path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, **{field: value})])
        assert main(["validate", str(scen)]) == 2
        assert capsys.readouterr().err.startswith(f"schema error at scenario[0].{path}: expected ")

    def test_unknown_check(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        bad = dict(PINCHING_SCENARIO)
        bad["checks"] = ["gap", "telepathy"]
        write_scenarios(scen, [bad])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "checks[1]" in capsys.readouterr().err

    def test_out_of_region_measure(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        bad = dict(RANDOM_SCENARIO)
        bad["measure"] = {"family": "alpha_z", "alpha": 1.5, "z": 0.5}
        write_scenarios(scen, [bad])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "measure" in capsys.readouterr().err

    def test_allow_non_dpi_flag_admits_region(self, tmp_path):
        scen = tmp_path / "scen.json"
        loose = dict(RANDOM_SCENARIO)
        loose["name"] = "loose"
        loose["measure"] = {"family": "alpha_z", "alpha": 1.5, "z": 0.5}
        loose["checks"] = ["residual1"]
        write_scenarios(scen, [loose])
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out), "--allow-non-dpi"]) == 0

    def test_allow_non_dpi_flag_admits_power_exponent_above_two(self, tmp_path):
        scen = tmp_path / "scen.json"
        power = dict(RANDOM_SCENARIO, name="power3", checks=["gap"])
        power["measure"] = {"family": "f_divergence", "f": "power", "alpha": 3}
        write_scenarios(scen, [power])
        assert main(["run", str(scen), "--out", str(tmp_path / "strict")]) == 2
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out), "--allow-non-dpi"]) == 0
        assert np.isfinite(load_report(out, "power3")["gap"])

    def test_invalid_json_file(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text("{not json", encoding="utf-8")
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]) == 2

    def test_duplicate_names(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO, PINCHING_SCENARIO])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "unique" in capsys.readouterr().err

    def test_names_that_share_a_report_file(self, tmp_path, capsys):
        # Each run of characters outside [A-Za-z0-9._-] becomes "_" in the
        # report file name, so "a b" and "a_b" would write one file.
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, name="a b"), dict(PINCHING_SCENARIO, name="a_b")])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[1].name: scenarios 'a b' and 'a_b' share the report file "
                "'a_b.json'; report file names must be unique\n")
        assert not out.exists()

    def test_empty_scenario_list(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"schema error at {scen}: expected a scenario object or a non-empty list of them\n")
        assert not out.exists()

    def test_empty_povm(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        channel = {"builder": "measure_prepare", "povm": [], "states": []}
        write_scenarios(scen, [dict(PINCHING_SCENARIO, channel=channel)])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[0].channel: need at least one POVM element\n")
        assert not out.exists()

    @pytest.mark.parametrize("operand,matrices,message", [
        ("povm", [[[0.5, 0.9], [0.0, 0.5]], [[0.5, -0.9], [0.0, 0.5]]],
         "POVM element 0: matrix deviates from Hermiticity by 9.000e-01 > tol 1.000e-10"),
        ("states", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 1.0]]],
         "prepared state 1: matrix deviates from Hermiticity by 3.000e-01 > tol 1.000e-10"),
    ], ids=["povm", "states"])
    def test_non_hermitian_measure_prepare_operand(self, tmp_path, capsys, operand, matrices, message):
        # Each list sums or traces as a valid one would: only the check of
        # each operand stands between it and a channel built from one triangle.
        diag = [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))]
        channel = {"builder": "measure_prepare", "povm": diag, "states": diag}
        channel[operand] = [matrix_to_json(np.array(m)) for m in matrices]
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, channel=channel)])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"schema error at scenario[0].channel: {message}\n"
        assert not out.exists()


SQUARE = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
RECTANGULAR = {"rows": 2, "cols": 2, "entries": SQUARE["entries"]}
# One valid object of each builder; the unknown-field case adds "q" to it and
# the missing-field case drops the field named next to it.
BUILDERS = {
    "identity": ({"builder": "identity", "dim": 2}, "dim"),
    "unitary": ({"builder": "unitary", "matrix": SQUARE}, "matrix"),
    "depolarizing": ({"builder": "depolarizing", "dim": 2, "p": 0.5}, "p"),
    "dephasing_pinching": ({"builder": "dephasing_pinching", "dim": 2, "p": 0.5}, "dim"),
    "partial_trace": ({"builder": "partial_trace", "dim_a": 2, "dim_b": 1, "keep": "a"}, "keep"),
    "measure_prepare": ({"builder": "measure_prepare", "povm": [SQUARE], "states": [SQUARE]}, "states"),
}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _field_cases():
    """(scenario field, its value, path of the error under scenario[0], reason),
    each with an id that names the family or builder, the path and the reason."""
    unknown, missing = "unknown field", "missing required field"
    cases = [
        ("tolerances", {"gap_tol": 1e-8, "gap_tolerance": 1e-8}, "tolerances.gap_tolerance", unknown),
        ("measure", {"alpha": 2.0}, "measure.family", missing),
        ("measure", {"family": "relative_entropy", "alpha": 2.0}, "measure.alpha", unknown),
        ("measure", {"family": "fidelity", "z": 1.0}, "measure.z", unknown),
        ("measure", {"family": "sandwiched_renyi", "alpha": 2.0, "z": 1.5}, "measure.z", unknown),
        ("measure", {"family": "sandwiched_renyi"}, "measure.alpha", missing),
        ("measure", {"family": "alpha_z", "alpha": 2.0, "Z": 1.5}, "measure.Z", unknown),
        ("measure", {"family": "alpha_z", "alpha": 2.0}, "measure.z", missing),
        ("measure", {"family": "f_divergence", "f": "x_log_x", "alpha": 2.0}, "measure.alpha", unknown),
        ("measure", {"family": "f_divergence"}, "measure.f", missing),
        ("measure", {"family": "f_divergence", "f": "power"}, "measure.alpha", missing),
        ("channel", {"kraus": [SQUARE], "builder_typo": "identity"}, "channel.builder_typo", unknown),
        ("channel", {"dim_in": 2, "dim_out": 2}, "channel.kraus", missing),
        ("channel", {"builder": "dephasing_pinching", "dim": 3, "basis": SQUARE}, "channel.basis",
         "expected 'dim' or 'basis', not both"),
        ("rho", dict(SQUARE, rows=5), "rho.rows", unknown),
        ("rho", _without(SQUARE, "entries"), "rho.entries", missing),
        ("rho", dict(RECTANGULAR, entires=[]), "rho.entires", unknown),
        ("rho", _without(RECTANGULAR, "cols"), "rho.cols", missing),
        ("rho", {"builder": "diag", "values": [0.6, 0.4], "seed": 1}, "rho.seed", unknown),
        ("rho", {"builder": "diag"}, "rho.values", missing),
        ("rho", {"builder": "random_pos", "dim": 2, "seed": 1, "values": [1]}, "rho.values", unknown),
        ("rho", {"builder": "random_pos", "dim": 2}, "rho.seed", missing),
    ]
    for obj, required in BUILDERS.values():
        cases.append(("channel", dict(obj, q=0.5), "channel.q", unknown))
        cases.append(("channel", _without(obj, required), f"channel.{required}", missing))

    def label(field, value, path, reason):
        return f"{value.get('family', value.get('builder', field))} {path}: {reason}"

    return [pytest.param(*case, id=label(*case)) for case in cases]


class TestFieldSchema:
    """Each JSON object takes the fields it defines and no other."""

    @pytest.mark.parametrize("field,value,path,reason", _field_cases())
    def test_unknown_and_missing_fields(self, tmp_path, capsys, field, value, path, reason):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, **{field: value})])
        assert main(["validate", str(scen)]) == 2
        assert capsys.readouterr().err == f"schema error at scenario[0].{path}: {reason}\n"

    @pytest.mark.parametrize("key,path,reason", [
        ("extra", "extra", "unknown field"),
        ("checks", "checks", "missing required field"),
    ])
    def test_scenario_fields(self, tmp_path, capsys, key, path, reason):
        scen = tmp_path / "scen.json"
        bad = dict(PINCHING_SCENARIO, extra=1) if key == "extra" else _without(PINCHING_SCENARIO, key)
        write_scenarios(scen, [bad])
        assert main(["validate", str(scen)]) == 2
        assert capsys.readouterr().err == f"schema error at scenario[0].{path}: {reason}\n"

    @pytest.mark.parametrize("declared", [2.0, True, 0])
    def test_declared_channel_dims_are_integers(self, tmp_path, capsys, declared):
        scen = tmp_path / "scen.json"
        channel = {"dim_in": declared, "dim_out": 2, "kraus": [SQUARE]}
        write_scenarios(scen, [dict(PINCHING_SCENARIO, channel=channel)])
        assert main(["validate", str(scen)]) == 2
        assert capsys.readouterr().err == (
            f"schema error at scenario[0].channel.dim_in: expected a positive integer, got {declared!r}\n"
        )

    @pytest.mark.parametrize("field,value,path", [
        ("measure", {"family": "sandwiched_renyi", "alpha": 2, "z": 1.5}, "measure.z"),
        ("measure", {"family": "relative_entropy", "alpha": 2}, "measure.alpha"),
        ("channel", {"builder": "dephasing_pinching", "dim": 3, "basis": SQUARE}, "channel.basis"),
    ])
    def test_dropped_fields_are_errors(self, tmp_path, capsys, field, value, path):
        # Dropping the field would run a measure or channel other than the
        # one written down, so neither command reads past it.
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, **{field: value})])
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"schema error at scenario[0].{path}: ")
        assert not (tmp_path / "out").exists()

    def test_unwritable_output(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO])
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        sweep = [
            "sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=2:2:1",
            "--channel", json.dumps(UNITARY_CHANNEL_JSON),
            "--rho", json.dumps(RANDOM_SCENARIO["rho"] | {"dim": 2}),
            "--sigma", json.dumps(RANDOM_SCENARIO["sigma"] | {"dim": 2}),
            "--out", str(blocker / "sweep.csv"),
        ]
        for argv in (["run", str(scen), "--out", str(blocker / "out")], sweep):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot write output: ") and "schema" not in err

    # rho may be rank deficient but not indefinite; sigma must be strictly positive.
    @pytest.mark.parametrize("operand,values", [("rho", [1.0, -0.5]), ("sigma", [1.0, 0.0])],
                             ids=["rho", "sigma"])
    def test_sweep_names_the_non_positive_state(self, tmp_path, capsys, operand, values):
        states = {"rho": {"builder": "diag", "values": [0.6, 0.4]},
                  "sigma": {"builder": "diag", "values": [0.3, 0.7]}}
        states[operand] = {"builder": "diag", "values": values}
        argv = [
            "sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=2:2:1",
            "--channel", json.dumps(UNITARY_CHANNEL_JSON),
            "--rho", json.dumps(states["rho"]), "--sigma", json.dumps(states["sigma"]),
            "--out", str(tmp_path / "sweep.csv"),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"schema error at {operand}: ")
        assert not (tmp_path / "sweep.csv").exists()

    def test_module_entry_point_warns_nothing(self, tmp_path):
        import subprocess

        import dpisat

        scen = tmp_path / "scen.json"
        write_scenarios(scen, PINCHING_SCENARIO)
        src = os.path.dirname(os.path.dirname(os.path.abspath(dpisat.__file__)))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "dpisat.cli", "validate", str(scen)],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")


# Python's int() refuses decimal strings of more than 4300 digits, and json
# reads integer literals through it; each entry point that decodes such a
# literal turns that refusal into a schema error that names its source.
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length"
)
HUGE_INT = "1" * 5001


@needs_digit_limit
class TestIntegerDigitLimit:
    SWEEP = ["sweep", "--measure", "alpha_z", "--grid", "alpha=1.5:1.5:1;z=1.2:1.2:1"]

    def _sweep(self, tmp_path, channel=None, rho=None):
        return main(self.SWEEP + [
            "--channel", channel or json.dumps(RANDOM_SCENARIO["channel"]),
            "--rho", rho or json.dumps(RANDOM_SCENARIO["rho"]),
            "--sigma", json.dumps(RANDOM_SCENARIO["sigma"]),
            "--out", str(tmp_path / "sweep.csv"),
        ])

    def test_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps([DEPOLARIZING_SCENARIO]).replace('"p": 0.5', f'"p": {HUGE_INT}'),
                        encoding="utf-8")
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"schema error at {scen}: invalid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_sweep_operand_inline_and_from_file(self, tmp_path, capsys):
        channel = json.dumps(RANDOM_SCENARIO["channel"]).replace('"p": 0.3', f'"p": {HUGE_INT}')
        assert self._sweep(tmp_path, channel=channel) == 2
        assert capsys.readouterr().err.startswith("schema error at channel: invalid JSON: ")
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(RANDOM_SCENARIO["rho"]).replace('"seed": 42', f'"seed": {HUGE_INT}'),
                       encoding="utf-8")
        assert self._sweep(tmp_path, rho=str(rho)) == 2
        assert capsys.readouterr().err.startswith("schema error at rho: invalid JSON: ")
        assert not (tmp_path / "sweep.csv").exists()

    def test_seed_environment(self, tmp_path, capsys, monkeypatch):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [RANDOM_SCENARIO])
        monkeypatch.setenv("DPISAT_SEED", HUGE_INT)
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("schema error at DPISAT_SEED: ")
        assert self._sweep(tmp_path) == 2
        assert capsys.readouterr().err.startswith("schema error at DPISAT_SEED: ")
        assert not (tmp_path / "out").exists() and not (tmp_path / "sweep.csv").exists()


class TestDeeplyNestedJson:
    """A document nested deeper than the recursion limit is invalid JSON at
    its source, not a traceback."""

    DEEP = "[" * 100000 + "]" * 100000

    def test_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "deep.json"
        scen.write_text(self.DEEP, encoding="utf-8")
        for argv in (["validate", str(scen)], ["run", str(scen), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"schema error at {scen}: invalid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_sweep_operand_inline_and_from_file(self, tmp_path, capsys):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(self.DEEP, encoding="utf-8")
        out = tmp_path / "sweep.csv"
        for operand, path in (("--channel", '{"kraus": ' + self.DEEP + "}"), ("--rho", str(rho_file))):
            args = {"--channel": json.dumps(RANDOM_SCENARIO["channel"]), "--rho": json.dumps(RANDOM_SCENARIO["rho"]),
                    "--sigma": json.dumps(RANDOM_SCENARIO["sigma"]), operand: path}
            argv = ["sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=1.5:2:0.5", "--out", str(out)]
            assert main(argv + [x for item in args.items() for x in item]) == 2
            assert capsys.readouterr().err.startswith(f"schema error at {operand[2:]}: invalid JSON: ")
        assert not out.exists()


class TestValidate:
    def test_valid_file(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [PINCHING_SCENARIO, DEPOLARIZING_SCENARIO])
        assert main(["validate", str(scen)]) == 0

    def test_gap_and_boundary_on_rank_deficient_rho_for_every_family(self, tmp_path):
        from dpisat.divergences import measure_to_json

        from _fixtures import measure_suite

        scenarios = [
            dict(BOUNDARY_SCENARIO, name=f"s{i}", measure=measure_to_json(m))
            for i, m in enumerate(measure_suite())
        ]
        scen = tmp_path / "scen.json"
        write_scenarios(scen, scenarios)
        assert main(["validate", str(scen)]) == 0

    def test_invalid_file(self, tmp_path):
        scen = tmp_path / "scen.json"
        bad = dict(PINCHING_SCENARIO)
        bad["measure"] = {"family": "nope"}
        write_scenarios(scen, [bad])
        assert main(["validate", str(scen)]) == 2


UNITARY_CHANNEL_JSON = {
    "builder": "unitary",
    "matrix": {"dim": 2, "entries": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
}


class TestSweep:
    def _sweep(self, tmp_path, measure, grid, channel, extra=()):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep",
            "--measure", measure,
            "--grid", grid,
            "--channel", json.dumps(channel),
            "--rho", json.dumps({"builder": "random_pos", "dim": 2, "seed": 5}),
            "--sigma", json.dumps({"builder": "random_pos", "dim": 2, "seed": 6}),
            "--out", str(out),
            *extra,
        ]
        assert main(args) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_unitary_alpha_sweep_all_saturate(self, tmp_path):
        rows = self._sweep(
            tmp_path, "sandwiched_renyi", "alpha=0.5:3.0:0.25", UNITARY_CHANNEL_JSON
        )
        alphas = [float(r["alpha"]) for r in rows]
        assert 1.0 not in alphas
        assert len(alphas) == 10
        for row in rows:
            assert float(row["residual1_norm"]) <= 1e-8
            assert float(row["residual2_norm"]) <= 1e-8

    def test_alpha_z_grid_gaps_nonnegative(self, tmp_path):
        rows = self._sweep(
            tmp_path,
            "alpha_z",
            "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5",
            {"builder": "depolarizing", "dim": 2, "p": 0.4},
        )
        assert rows, "grid should contain in-region points"
        for row in rows:
            assert float(row["gap"]) >= -1e-9

    def test_z_equals_alpha_diagonal_matches_sandwiched(self, tmp_path):
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        az_rows = self._sweep(tmp_path, "alpha_z", "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5", dep)
        sr_rows = self._sweep(tmp_path, "sandwiched_renyi", "alpha=0.5:2.5:0.5", dep)
        diag = {float(r["alpha"]): r for r in az_rows if float(r["alpha"]) == float(r["z"])}
        for row in sr_rows:
            alpha = float(row["alpha"])
            assert alpha in diag
            for col in ("gap", "residual1_norm", "residual2_norm"):
                assert float(row[col]) == pytest.approx(float(diag[alpha][col]), abs=1e-10)

    def test_out_of_region_points_skipped_with_warning(self, tmp_path, capsys):
        rows = self._sweep(
            tmp_path,
            "alpha_z",
            "alpha=1.5:1.5:1.0;z=0.25:2.0:0.25",
            {"builder": "depolarizing", "dim": 2, "p": 0.4},
        )
        err = capsys.readouterr().err
        assert "skipping" in err
        zs = [float(r["z"]) for r in rows]
        assert min(zs) >= 0.75 - 1e-12 and max(zs) <= 1.5 + 1e-12

    def test_alpha_one_pole_skipped_with_one_warning(self, tmp_path, capsys):
        # MeasureSpec rejects the pole; the sweep warns with its reason.
        rows = self._sweep(tmp_path, "sandwiched_renyi", "alpha=0.5:1.5:0.5",
                           {"builder": "depolarizing", "dim": 2, "p": 0.4})
        assert [float(r["alpha"]) for r in rows] == [0.5, 1.5]
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: skipping (1.0,): alpha = 1 is a pole")

    def test_allow_non_dpi_computes_everything(self, tmp_path):
        rows = self._sweep(
            tmp_path,
            "alpha_z",
            "alpha=1.5:1.5:1.0;z=0.25:2.0:0.25",
            {"builder": "depolarizing", "dim": 2, "p": 0.4},
            extra=["--allow-non-dpi"],
        )
        assert len(rows) == 8  # all z points, alpha=1.5

    def test_rows_match_standalone_functions_with_two_applies_per_point(
        self, tmp_path, monkeypatch
    ):
        calls = count_channel_calls(monkeypatch)
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        rows = self._sweep(tmp_path, "alpha_z", "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5", dep)
        assert calls == {"apply": 2 * len(rows), "_act_adjoint": 2 * len(rows)}
        c, rho, sigma = depolarizing(2, 0.4), positive_state(2, 5), positive_state(2, 6)
        for row in rows:
            m = MeasureSpec.alpha_z(float(row["alpha"]), float(row["z"]))
            assert row["gap"] == repr(sat.dpi_gap(m, c, rho, sigma))
            assert row["residual1_norm"] == repr(frobenius(sat.residual1(m, c, rho, sigma)))
            assert row["residual2_norm"] == repr(frobenius(sat.residual2(m, c, rho, sigma)))


    @staticmethod
    def _sweep_exit(tmp_path, measure, grid, channel, rho_dim=2, sigma_dim=2):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--measure", measure, "--grid", grid,
            "--channel", json.dumps(channel),
            "--rho", json.dumps({"builder": "random_pos", "dim": rho_dim, "seed": 5}),
            "--sigma", json.dumps({"builder": "random_pos", "dim": sigma_dim, "seed": 6}),
            "--out", str(out),
        ])
        return code, out.exists()

    @pytest.mark.parametrize(
        "channel_dim,sigma_dim,message",
        [
            (3, 2, "schema error at channel: channel dim_in 3 != state dim 2"),
            (2, 3, "schema error at sigma: sigma dim 3 != rho dim 2"),
        ],
    )
    def test_dimension_mismatch_is_a_schema_error(self, tmp_path, capsys, channel_dim, sigma_dim, message):
        dep = {"builder": "depolarizing", "dim": channel_dim, "p": 0.4}
        code, wrote = self._sweep_exit(tmp_path, "sandwiched_renyi", "alpha=1.5:2.0:0.5", dep, sigma_dim=sigma_dim)
        assert (code, wrote) == (2, False)
        assert capsys.readouterr().err.strip() == message

    # An infinite stop or step would append grid points without end.
    @pytest.mark.parametrize(
        "grid", ["alpha=nan:3:0.5", "alpha=0.5:inf:0.5", "alpha=0.5:3:inf", "alpha=-inf:3:0.5"]
    )
    def test_non_finite_grid_bound_is_a_schema_error(self, tmp_path, capsys, grid):
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        assert self._sweep_exit(tmp_path, "sandwiched_renyi", grid, dep) == (2, False)
        assert capsys.readouterr().err == f"schema error at grid: non-finite grid bound in {grid!r}\n"

    # A step that cannot advance the start, or a grid too large to sweep, is
    # rejected before any point is formed.
    @pytest.mark.parametrize("grid", [
        "alpha=0.5:3:1e-300", "alpha=0.5:3:1e-12", "alpha=0.5:1e300:1e-300", "alpha=0.5:3:0.001;z=0.5:3:0.001",
    ])
    def test_grid_of_too_many_points_is_a_schema_error(self, tmp_path, capsys, grid):
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        assert self._sweep_exit(tmp_path, "alpha_z", grid, dep) == (2, False)
        assert capsys.readouterr().err == f"schema error at grid: more than 100000 grid points in {grid!r}\n"

    @pytest.mark.parametrize("grid", [
        "alpha=1.5:3.0:0.5", "alpha=0.5:2.5:0.25;z=0.5:2.5:0.25", "alpha=0.5:3.0:0.25",
        "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5", "alpha=1.5:1.5:1.0;z=0.25:2.0:0.25", "alpha=1.5:2.0:0.5",
        "alpha=1.5:1.5:1;z=1.2:1.2:1", "alpha=0.5:1.0:0.1",
    ])
    def test_grid_points_by_index_match_accumulation(self, grid):
        from dpisat.cli import _parse_grid

        def accumulated(start, stop, step):
            values, x = [], start
            while x <= stop + 1e-9:
                values.append(round(x, 12))
                x += step
            return values

        expected = []
        for axis in grid.split(";"):
            name, bounds = axis.split("=")
            expected.append((name, accumulated(*map(float, bounds.split(":")))))
        assert _parse_grid(grid) == expected

    # The slack that admits a stop reached up to roundoff is a fraction of a
    # step: a step below it adds no point past the stop.
    @pytest.mark.parametrize("grid,point", [("alpha=0.5:0.5:1e-12", 0.5), ("alpha=1.5:1.5:1e-13", 1.5)])
    def test_grid_step_below_the_slack_gives_only_the_start(self, grid, point):
        from dpisat.cli import _parse_grid

        assert _parse_grid(grid) == [("alpha", [point])]

    def test_grid_points_equal_after_rounding_are_a_schema_error(self, tmp_path, capsys):
        grid = "alpha=1.5:1.5000000001:1e-13"
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        assert self._sweep_exit(tmp_path, "sandwiched_renyi", grid, dep) == (2, False)
        assert capsys.readouterr().err == (
            f"schema error at grid: step too fine for points rounded to 12 digits in {grid!r}\n")
        # The point-count bound is judged on the whole grid first.
        grid += ";z=0.5:3:1e-300"
        assert self._sweep_exit(tmp_path, "alpha_z", grid, dep) == (2, False)
        assert capsys.readouterr().err == f"schema error at grid: more than 100000 grid points in {grid!r}\n"

    # Every refusal of the measure, the grid or its axes comes before any
    # operand is read or any point is formed.
    @pytest.mark.parametrize("measure,grid,message", [
        ("sandwiched_renyi", "alpha", "grid: expected name=start:stop:step, got 'alpha'"),
        ("sandwiched_renyi", "alpha=0.5:3", "grid: expected start:stop:step in 'alpha=0.5:3'"),
        ("sandwiched_renyi", "alpha=0.5:3:0.5:1", "grid: expected start:stop:step in 'alpha=0.5:3:0.5:1'"),
        ("sandwiched_renyi", "alpha=0.5:x:0.5", "grid: non-numeric grid bound in 'alpha=0.5:x:0.5'"),
        ("sandwiched_renyi", "alpha=0.5:3:0", "grid: empty or descending grid in 'alpha=0.5:3:0'"),
        ("sandwiched_renyi", "alpha=0.5:3:-0.5", "grid: empty or descending grid in 'alpha=0.5:3:-0.5'"),
        ("sandwiched_renyi", "alpha=3:0.5:0.5", "grid: empty or descending grid in 'alpha=3:0.5:0.5'"),
        ("sandwiched_renyi", " ; ", "grid: no axes given"),
        ("relative_entropy", "alpha=1.5:2.0:0.5", "measure: sweep supports sandwiched_renyi and alpha_z"),
        ("fidelity", "alpha=1.5:2.0:0.5", "measure: sweep supports sandwiched_renyi and alpha_z"),
        ("sandwiched_renyi", "alpha=1.5:2.0:0.5;z=1.5:1.5:1",
         "grid: sandwiched_renyi sweep needs axes ['alpha'], got ['alpha', 'z']"),
        ("alpha_z", "alpha=1.5:2.0:0.5", "grid: alpha_z sweep needs axes ['alpha', 'z'], got ['alpha']"),
        ("alpha_z", "z=1.5:1.5:1;alpha=1.5:2.0:0.5",
         "grid: alpha_z sweep needs axes ['alpha', 'z'], got ['z', 'alpha']"),
    ])
    def test_refusal_before_any_point_is_a_schema_error(self, tmp_path, capsys, measure, grid, message):
        dep = {"builder": "depolarizing", "dim": 2, "p": 0.4}
        assert self._sweep_exit(tmp_path, measure, grid, dep) == (2, False)
        err = capsys.readouterr().err
        assert err == f"schema error at {message}\n" and "Traceback" not in err

    @pytest.mark.parametrize(
        "measure,grid,where",
        [("sandwiched_renyi", "alpha=1.5:2.0:0.5", "alpha=1.5"),
         ("alpha_z", "alpha=1.5:1.5:1.0;z=1.2:1.2:1.0", "alpha=1.5, z=1.2")],
    )
    def test_point_that_raises_exits_1_without_csv(self, tmp_path, capsys, measure, grid, where):
        # Replacement by |0><0|: every image is rank one, so a report cannot
        # take the channel image of sigma as strictly positive.
        def unit(i, j):
            entries = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
            entries[i][j] = [1, 0]
            return {"dim": 2, "entries": entries}

        replacement = {"kraus": [unit(0, 0), unit(0, 1)]}
        code, wrote = self._sweep_exit(tmp_path, measure, grid, replacement)
        assert (code, wrote) == (1, False)
        err = capsys.readouterr().err
        assert err.startswith(f"error at {where}: channel image of sigma is not strictly positive")
        assert "Traceback" not in err


class TestRandomStateBuilder:
    def test_reproducible(self):
        a = random_positive_state(3, 42)
        b = random_positive_state(3, 42)
        assert np.array_equal(a, b)

    def test_strictly_positive(self):
        for seed in range(5):
            w = np.linalg.eigvalsh(random_positive_state(4, seed))
            assert w[0] >= 0.1 - 1e-12


class TestParserOncePerProcess:
    """``main`` builds its parser once per process; every call still parses
    its own arguments and reads the environment afresh."""

    def test_same_parser_on_every_call(self, tmp_path):
        from dpisat.cli import _build_parser

        scen = tmp_path / "scen.json"
        write_scenarios(scen, [DEPOLARIZING_SCENARIO])
        assert main(["validate", str(scen)]) == 0
        parser = _build_parser()
        assert main(["validate", str(scen)]) == 0
        assert _build_parser() is parser

    def test_tolerance_flags_do_not_leak_into_next_call(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [DEPOLARIZING_SCENARIO])
        runs = (
            ["--tol-gap", "0.5", "--tol-residual", "0.25"],
            [],
            ["--tol-residual", "0.125"],
            [],
        )
        tolerances = []
        for i, extra in enumerate(runs):
            out = tmp_path / f"out{i}"
            assert main(["run", str(scen), "--out", str(out)] + extra) == 0
            tolerances.append(load_report(out, "depolarizing-gap")["tolerances"])
        assert tolerances == [
            {"gap_tol": 0.5, "residual_tol": 0.25},
            {"gap_tol": 1e-8, "residual_tol": 1e-8},
            {"gap_tol": 1e-8, "residual_tol": 0.125},
            {"gap_tol": 1e-8, "residual_tol": 1e-8},
        ]

    def test_allow_non_dpi_does_not_leak_into_next_call(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        loose = dict(RANDOM_SCENARIO)
        loose["name"] = "loose"
        loose["measure"] = {"family": "alpha_z", "alpha": 1.5, "z": 0.5}
        loose["checks"] = ["residual1"]
        write_scenarios(scen, [loose])
        assert main(["run", str(scen), "--out", str(tmp_path / "a"), "--allow-non-dpi"]) == 0
        assert load_report(tmp_path / "a", "loose")["measure"]["allow_non_dpi"] is True
        capsys.readouterr()
        assert main(["run", str(scen), "--out", str(tmp_path / "b")]) == 2
        assert "measure" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_seed_environment_read_on_every_call(self, tmp_path, monkeypatch):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [RANDOM_SCENARIO])
        seeds = []
        for i, env in enumerate(("777", None, "778")):
            if env is None:
                monkeypatch.delenv("DPISAT_SEED", raising=False)
            else:
                monkeypatch.setenv("DPISAT_SEED", env)
            out = tmp_path / f"out{i}"
            assert main(["run", str(scen), "--out", str(out)]) == 0
            seeds.append(load_report(out, "random-alphaz")["seeds"])
        assert seeds == [
            {"rho": 777, "sigma": 777},
            {"rho": 42, "sigma": 43},
            {"rho": 778, "sigma": 778},
        ]

    def test_usage_error_exits_two_and_next_call_works(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [DEPOLARIZING_SCENARIO])
        usage_errors = (
            ["run", str(scen)],
            ["frobnicate"],
            ["run", str(scen), "--out", "o", "--tol-gap", "x"],
            # The tolerance flags follow the rule of the JSON tolerances.
            ["run", str(scen), "--out", "o", "--tol-gap", "-1"],
            ["run", str(scen), "--out", "o", "--tol-gap", "inf"],
            ["run", str(scen), "--out", "o", "--tol-residual", "nan"],
            ["run", str(scen), "--out", "o", "--tol-residual", "0"],
        )
        for argv in usage_errors:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: dpisat" in capsys.readouterr().err
            out = tmp_path / "out"
            assert main(["run", str(scen), "--out", str(out)]) == 0
            assert load_report(out, "depolarizing-gap")["tolerances"]["gap_tol"] == 1e-8

    def test_import_builds_no_parser(self):
        import subprocess
        import sys

        import dpisat

        src = os.path.dirname(os.path.dirname(os.path.abspath(dpisat.__file__)))
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import dpisat.cli as c\n"
            "print(len(built), c._build_parser.cache_info().currsize)\n"
            "c._build_parser(); c._build_parser()\n"
            "print(len(built), c._build_parser.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        # None at import; then one top-level parser and its three subcommand
        # parsers, built once.
        assert done.stdout.split() == ["0", "0", "4", "1"]


# What each check needs, named here independently of the check table.
REPORT_CHECKS = {"gap", "residual1", "residual2", "converse", "boundary", "petz", "alpha_z_crosscheck"}
FAMILY_CHECKS = {"converse": "a scaling-law family", "alpha_z_crosscheck": "a Renyi family"}


class TestCheckTable:
    """Each row of cli._CHECKS says what its check needs, and the schema
    errors and the report follow the row."""

    def test_rows(self):
        assert set(cli._CHECKS) == {"gap", "residual1", "residual2", "converse", "boundary", "petz",
                                    "alpha_z_crosscheck", "tangent"}

    @pytest.mark.parametrize("name", list(cli._CHECKS))
    def test_inapplicable_check_is_a_schema_error(self, tmp_path, capsys, name):
        def validate(scenario):
            scen = tmp_path / "scen.json"
            # A check requested twice is an error of its own, so gap follows tangent.
            first = "tangent" if name == "gap" else "gap"
            write_scenarios(scen, [dict(scenario, checks=[first, name])])
            return main(["validate", str(scen)]), capsys.readouterr().err

        at = "schema error at scenario[0].checks[1]: "
        # Every check applies to a Renyi family at a rank-deficient rho.
        renyi = {"family": "sandwiched_renyi", "alpha": 2.0}
        assert validate(dict(BOUNDARY_SCENARIO, measure=renyi)) == (0, "")
        no_column = validate(dict(RANDOM_SCENARIO, measure={"family": "f_divergence", "f": "x_log_x"}))
        if name in FAMILY_CHECKS:
            assert no_column == (2, f"{at}{name!r} needs {FAMILY_CHECKS[name]}, not 'f_divergence'\n")
        else:
            assert no_column == (0, "")

    @pytest.mark.parametrize("name", list(cli._CHECKS))
    def test_report_follows_the_row(self, tmp_path, name):
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [dict(RANDOM_SCENARIO, checks=[name])])
        assert main(["run", str(scen), "--out", str(out)]) == 0
        rep = load_report(out, RANDOM_SCENARIO["name"])
        # Only a check that reads the Petz errors has the report evaluate them.
        assert (rep["petz_recovery_error_sigma"] is not None) == (name == "petz")
        if name not in FAMILY_CHECKS:
            # neg_log has no value at a rank-deficient rho: a check that reads
            # the report fails alone with the reason, any other passes.
            measure = {"family": "f_divergence", "f": "neg_log"}
            write_scenarios(scen, [dict(BOUNDARY_SCENARIO, measure=measure, checks=[name])])
            assert main(["run", str(scen), "--out", str(out)]) == (1 if name in REPORT_CHECKS else 0)
            detail = load_report(out, BOUNDARY_SCENARIO["name"])["checks"][name]
            assert ("reason" in detail) == (name in REPORT_CHECKS) == (not detail["passed"])

    def test_repeated_check(self, tmp_path, capsys):
        # The report keeps one entry per check, so a repeat would be merged.
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [PINCHING_SCENARIO, dict(PINCHING_SCENARIO, name="twice",
                                                       checks=["gap", "gap", "residual1"])])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[1].checks[1]: check 'gap' is requested more than once\n")
        assert not out.exists()

    def test_unknown_check(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, checks=["gap", "telepathy"])])
        assert main(["validate", str(scen)]) == 2
        assert capsys.readouterr().err == "schema error at scenario[0].checks[1]: unknown check 'telepathy'\n"


# The families of each row property, named here independently of the table.
SCALING_LAW_FAMILIES = {"relative_entropy", "fidelity", "sandwiched_renyi", "alpha_z"}
RENYI_FAMILIES = {"sandwiched_renyi", "alpha_z"}
SUPPORT_LOG_FAMILIES = {"relative_entropy"}


class TestFamilyTable:
    """What the CLI and scaling_check accept and report for a measure is read
    from its family's row."""

    def test_suite_covers_every_family(self):
        assert {m.family for m in measure_suite()} == set(FAMILIES)

    @pytest.mark.parametrize("m", measure_suite(), ids=lambda m: "-".join(map(str, measure_to_json(m).values())))
    def test_checks_follow_the_row(self, tmp_path, capsys, m):
        row = m._row
        assert (row.scaling is not None) == (m.family in SCALING_LAW_FAMILIES)
        assert row.renyi == (m.family in RENYI_FAMILIES)
        assert row.support_log == (m.family in SUPPORT_LOG_FAMILIES)

        def run(checks, command="validate"):
            scen = tmp_path / "scen.json"
            write_scenarios(scen, [dict(RANDOM_SCENARIO, name="row", measure=measure_to_json(m),
                                        checks=checks)])
            out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
            return main([command, str(scen), *out])

        assert run(["gap", "converse"]) == (0 if m.family in SCALING_LAW_FAMILIES else 2)
        assert run(["gap", "alpha_z_crosscheck"]) == (0 if m.family in RENYI_FAMILIES else 2)
        capsys.readouterr()

        assert run(["gap", "boundary"], "run") == 0
        detail = load_report(tmp_path / "out", "row")["checks"]["boundary"]
        owned = {"zeros_log_norm", "hiai_norm"}
        assert owned <= set(detail) if m.family in SUPPORT_LOG_FAMILIES else not owned & set(detail)

        rho, sigma = positive_state(3, 42), positive_state(3, 43)
        if m.family in RENYI_FAMILIES:
            scaling_check(m, rho, sigma, 2.0, 0.5)
        else:
            with pytest.raises(ValueError, match="Renyi families only"):
                scaling_check(m, rho, sigma, 2.0, 0.5)


def fuchs_caves_scenario(n, measure):
    c, rho, sigma = fuchs_caves(n)
    return {
        "name": "fuchs-caves", "measure": measure, "channel": channel_to_json(c),
        "rho": matrix_to_json(rho), "sigma": matrix_to_json(sigma),
        "checks": ["gap", "residual1", "residual2", "petz"],
    }


class TestSaturationWithoutRecovery:
    """The Fuchs-Caves measurement keeps the fidelity of a non-commuting pair,
    but its classical output recovers no rho: the fidelity saturates without
    Petz recovery, so ``petz`` judges only sigma for it."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fidelity_saturates_and_rho_is_unjudged(self, tmp_path, n):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [fuchs_caves_scenario(n, {"family": "fidelity"})])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = load_report(tmp_path / "out", "fuchs-caves")
        assert abs(report["gap"]) <= 1e-13
        assert report["residual1_frobenius"] <= 1e-13 and report["residual2_frobenius"] <= 1e-13
        assert report["saturated"] is True
        petz = report["checks"]["petz"]
        assert petz["passed"] is True and petz["judged"] is False
        assert petz["recovery_error_rho"] > 1e-2 and petz["recovery_error_sigma"] <= 1e-13

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("measure", [
        {"family": "relative_entropy"},
        {"family": "sandwiched_renyi", "alpha": 0.75},
        {"family": "sandwiched_renyi", "alpha": 2.0},
    ])
    def test_recovering_families_do_not_saturate(self, tmp_path, n, measure):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [fuchs_caves_scenario(n, measure)])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        report = load_report(tmp_path / "out", "fuchs-caves")
        assert report["gap"] > 1e-3 and report["saturated"] is False
        assert "judged" not in report["checks"]["petz"]

    def test_a_judged_rho_fails_when_saturation_does_not_recover_it(self, tmp_path, monkeypatch):
        # The same run with the fidelity row claiming recovery fails petz:
        # the unjudged verdict above comes from the row, not the numbers.
        from dpisat.divergences import _FAMILY_TABLE

        row = _FAMILY_TABLE["fidelity"]
        monkeypatch.setitem(_FAMILY_TABLE, "fidelity", row._replace(recovers=lambda m: True))
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [fuchs_caves_scenario(3, {"family": "fidelity"})])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 1
        petz = load_report(tmp_path / "out", "fuchs-caves")["checks"]["petz"]
        assert petz["passed"] is False and "judged" not in petz

    @pytest.mark.parametrize("m,judged", [
        (MeasureSpec.relative_entropy(), True),
        (MeasureSpec.fidelity(), False),
        (MeasureSpec.sandwiched_renyi(0.6), True),
        (MeasureSpec.sandwiched_renyi(0.5), False),
        (MeasureSpec.alpha_z(1.5, 1.5), True),
        (MeasureSpec.alpha_z(1.5, 1.2), False),
        (MeasureSpec.f_divergence("x_log_x"), True),
        (MeasureSpec.f_divergence("neg_log"), True),
        (MeasureSpec.f_divergence("power", alpha=0.5), True),
        (MeasureSpec.f_divergence("power", alpha=1.5), True),
        (MeasureSpec.f_divergence("power", alpha=2.0), False),
        (MeasureSpec.f_divergence("chi_square"), False),
        (MeasureSpec.f_divergence(calculus.power(1.5), caller_asserted=True), False),
        (MeasureSpec("f_divergence", f_pair=calculus.power(1.5), f_name="power", f_asserted=True), False),
    ])
    def test_recovery_flag(self, m, judged):
        assert m._row.recovers(m) is judged


class TestClusteringOncePerPair:
    """Each state pair clusters its spectra once, and every check of a run
    reads that clustering: the boundary check's second first gradient too."""

    def test_each_operator_is_clustered_once(self, tmp_path, monkeypatch):
        import dpisat.divergences as div

        counts = {}
        clustered = div.clustered_eigensystem

        def counting(op, *args):
            key = op.matrix.tobytes()
            counts[key] = counts.get(key, 0) + 1
            return clustered(op, *args)

        monkeypatch.setattr(div, "clustered_eigensystem", counting)
        rho, sigma = random_positive_state(4, 1), random_positive_state(4, 2)
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [{
            "name": "alpha-z", "measure": {"family": "alpha_z", "alpha": 0.7, "z": 0.9},
            "channel": {"builder": "depolarizing", "dim": 4, "p": 0.3},
            "rho": matrix_to_json(rho), "sigma": matrix_to_json(sigma),
            "checks": ["gap", "residual1", "residual2", "boundary", "alpha_z_crosscheck"],
        }])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        ch = depolarizing(4, 0.3)
        ops = [HermitianOperator(x) for x in (rho, sigma)]
        ops += [sat.apply(ch, op) for op in ops]
        assert sorted(counts) == sorted(op.matrix.tobytes() for op in ops)
        assert list(counts.values()) == [1, 1, 1, 1]


# A channel that does not saturate and one that does, for the scaled pairs.
SCALE_CHANNELS = [
    {"builder": "depolarizing", "dim": 4, "p": 0.3},
    {"builder": "unitary", "matrix": matrix_to_json(np.linalg.qr(
        np.random.default_rng(3).normal(size=(4, 4)) + 1j * np.random.default_rng(4).normal(size=(4, 4))
    )[0])},
]


def _scaled_petz_scenario(rho, sigma, channel, k):
    return {
        "name": "scaled-petz", "measure": {"family": "relative_entropy"}, "channel": channel,
        "rho": matrix_to_json(k * rho), "sigma": matrix_to_json(k * sigma), "checks": ["petz"],
        "tolerances": {"gap_tol": k * 1e-10},
    }


class TestPetzIsRelative:
    """``petz`` judges each recovery error against the norm of its state, so
    scaling both states, which the measures need not be normalized for,
    keeps its verdict."""

    def test_scaled_diagonal_pair_passes(self, tmp_path):
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [{
            "name": "scaled-petz", "measure": {"family": "relative_entropy"},
            "channel": {"builder": "depolarizing", "dim": 2, "p": 0.4},
            "rho": {"builder": "diag", "values": [6e7, 4e7]},
            "sigma": {"builder": "diag", "values": [3e7, 7e7]}, "checks": ["petz"],
        }])
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        # The absolute rule this replaces failed here: sigma's error is above 1e-9.
        assert load_report(tmp_path / "out", "scaled-petz")["checks"]["petz"]["recovery_error_sigma"] > 1e-9

    @pytest.mark.parametrize("channel", SCALE_CHANNELS, ids=["depolarizing", "unitary"])
    def test_verdict_is_scale_free(self, tmp_path, channel):
        rho, sigma = random_positive_state(4, 1), random_positive_state(4, 2)
        verdicts = []
        for k in (1e-3, 1.0, 1e6, 1e8):
            scen, out = tmp_path / f"scen{k}.json", tmp_path / f"out{k}"
            write_scenarios(scen, [_scaled_petz_scenario(rho, sigma, channel, k)])
            code = main(["run", str(scen), "--out", str(out)])
            petz = load_report(out, "scaled-petz")["checks"]["petz"]
            verdicts.append((code, petz["passed"], "judged" in petz))
        assert verdicts == [(0, True, False)] * 4


def _rotated(values, seed=7):
    """``U diag(values) U^H`` for a seeded random unitary U."""
    g = np.random.default_rng(seed)
    u = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))[0]
    return u @ np.diag(values) @ u.conj().T


SCALED_RHO = _rotated([0.4, 0.3, 0.2, 0.1])
SCALED_RANK3_RHO = _rotated([0.5, 0.3, 0.2, 0.0])
SCALED_SIGMA = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)


class TestScaledStates:
    """States need not be normalized. A scenario state is judged by the rule
    of the fused Hermiticity guard and the eigenvalue clusters, relative to
    max(1, scale), so scaling rho and sigma by k keeps every verdict."""

    KS = (1.0, 1e4, 1e6, 1e7, 1e8, 1e10)

    @staticmethod
    def _scenarios(channel, k):
        # gap_tol scales with the values; these gradients do not, so
        # residual_tol stays. The rank-3 rho is made exactly Hermitian, so
        # only the rule for its support is at stake.
        def scenario(name, measure, rho, checks):
            return {"name": name, "measure": measure, "channel": channel, "rho": matrix_to_json(rho),
                    "sigma": matrix_to_json(k * SCALED_SIGMA), "checks": checks,
                    "tolerances": {"gap_tol": k * 1e-8, "residual_tol": 1e-8}}

        full = ["gap", "residual1", "residual2", "petz"]
        rank3 = k * SCALED_RANK3_RHO
        return [
            scenario("relent", {"family": "relative_entropy"}, k * SCALED_RHO, full),
            scenario("fidelity", {"family": "fidelity"}, k * SCALED_RHO, full),
            scenario("xlogx", {"family": "f_divergence", "f": "x_log_x"}, k * SCALED_RHO, full),
            scenario("rank3", {"family": "relative_entropy"}, (rank3 + rank3.conj().T) / 2,
                     ["gap", "boundary", "tangent"]),
        ]

    @pytest.mark.parametrize("channel", SCALE_CHANNELS, ids=["depolarizing", "unitary"])
    def test_verdicts_are_scale_free(self, tmp_path, capsys, channel):
        verdicts = []
        for k in self.KS:
            scen, out = tmp_path / f"scen{k}.json", tmp_path / f"out{k}"
            scenarios = self._scenarios(channel, k)
            write_scenarios(scen, scenarios)
            assert main(["validate", str(scen)]) == 0
            code = main(["run", str(scen), "--out", str(out)])
            reports = [load_report(out, sc["name"]) for sc in scenarios]
            verdicts.append((code, [(r["saturated"], {c: v["passed"] for c, v in r["checks"].items()})
                                    for r in reports]))
            tangent = reports[-1]["checks"]["tangent"]
            assert (tangent["measured"], tangent["expected"]) == (15, 15), k
        capsys.readouterr()
        assert verdicts == [verdicts[0]] * len(self.KS)
        assert verdicts[0][0] == 0

    def test_sweep_admits_a_scaled_pair(self, tmp_path):
        def gaps(k):
            out = tmp_path / f"sweep{k}.csv"
            assert main([
                "sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=0.5:2.5:0.5",
                "--channel", json.dumps(SCALE_CHANNELS[0]),
                "--rho", json.dumps(matrix_to_json(k * SCALED_RHO)),
                "--sigma", json.dumps(matrix_to_json(k * SCALED_SIGMA)), "--out", str(out),
            ]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                return np.array([float(row["gap"]) for row in csv.DictReader(fh)])

        unit, scaled = gaps(1.0), gaps(1e7)
        assert unit.size == 4 and (unit > 0).all()
        np.testing.assert_allclose(scaled, unit, rtol=1e-12, atol=0)


class TestBuilderDimensionBound:
    """Every dimension a JSON builder makes is at most ``_MAX_BUILDER_DIM``;
    a larger one is a schema error at its field before anything is built."""

    BOUND = 1024

    @pytest.fixture
    def built(self, monkeypatch):
        """The builders record their sizes and build nothing."""
        import dpisat.channels as channels

        calls = []
        for name in ("identity", "depolarizing", "dephasing_pinching", "partial_trace"):
            monkeypatch.setattr(channels, name, lambda *args, name=name: calls.append((name, args[:2])))
        monkeypatch.setattr(cli, "random_positive_state", lambda *args: calls.append(("random_pos", args)))
        return calls

    CHANNELS = [
        ({"builder": "identity", "dim": BOUND + 1}, "dim", BOUND + 1),
        ({"builder": "depolarizing", "dim": BOUND + 1, "p": 0.5}, "dim", BOUND + 1),
        ({"builder": "dephasing_pinching", "dim": BOUND + 1}, "dim", BOUND + 1),
        ({"builder": "partial_trace", "dim_a": BOUND + 1, "dim_b": 1, "keep": "a"}, "dim_a", BOUND + 1),
        ({"builder": "partial_trace", "dim_a": 32, "dim_b": 33, "keep": "a"}, "dim_b", 32 * 33),
    ]

    @pytest.mark.parametrize("channel,field,size", CHANNELS)
    def test_channel_builders(self, built, channel, field, size):
        with pytest.raises(cli.SchemaError) as err:
            cli.channel_from_json(channel)
        assert (err.value.path, err.value.reason) == (
            f"channel.{field}", f"expected a dimension of at most {self.BOUND}, got {size}")
        assert built == []

    def test_random_state_builder(self, built):
        with pytest.raises(cli.SchemaError, match="at most 1024, got 1025"):
            cli._state_from_json({"builder": "random_pos", "dim": self.BOUND + 1, "seed": 1}, "rho", None)
        assert built == []

    def test_diag_state_builder(self, built):
        with pytest.raises(cli.SchemaError) as err:
            cli._state_from_json({"builder": "diag", "values": [0.5] * (self.BOUND + 1)}, "rho", None)
        assert (err.value.path, err.value.reason) == (
            "rho.values", f"expected a dimension of at most {self.BOUND}, got {self.BOUND + 1}")
        state = cli._state_from_json({"builder": "diag", "values": [0.5] * self.BOUND}, "rho", None)[0]
        assert state.shape == (self.BOUND, self.BOUND)

    def test_the_bound_itself_is_built(self, built):
        cli.channel_from_json({"builder": "depolarizing", "dim": self.BOUND, "p": 0.5})
        cli.channel_from_json({"builder": "partial_trace", "dim_a": 32, "dim_b": 32, "keep": "b"})
        cli._state_from_json({"builder": "random_pos", "dim": self.BOUND, "seed": 1}, "rho", None)
        assert built == [("depolarizing", (self.BOUND, 0.5)), ("partial_trace", (32, 32)),
                         ("random_pos", (self.BOUND, 1))]

    def test_run_and_validate(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        channel = {"builder": "depolarizing", "dim": 10 ** 9, "p": 0.5}
        write_scenarios(scen, [dict(DEPOLARIZING_SCENARIO, channel=channel)])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[0].channel.dim: expected a dimension of at most 1024, "
                "got 1000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("operand,value", [
        ("--channel", {"builder": "identity", "dim": 10 ** 12}),
        ("--rho", {"builder": "random_pos", "dim": 10 ** 9, "seed": 5}),
    ])
    def test_sweep_operands(self, tmp_path, capsys, operand, value):
        args = {"--channel": {"builder": "depolarizing", "dim": 2, "p": 0.4},
                "--rho": {"builder": "random_pos", "dim": 2, "seed": 5},
                "--sigma": {"builder": "random_pos", "dim": 2, "seed": 6}}
        args[operand] = value
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=1.5:2:0.5", "--out", str(out)]
        assert main(argv + [x for key, val in args.items() for x in (key, json.dumps(val))]) == 2
        field = "channel.dim" if operand == "--channel" else "rho.dim"
        assert capsys.readouterr().err.startswith(f"schema error at {field}: expected a dimension of at most")
        assert not out.exists()


class TestReportNameLength:
    """A report file name longer than 255 bytes is a schema error at the
    scenario's name, raised before any report is written."""

    def test_long_name(self, tmp_path, capsys):
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [PINCHING_SCENARIO, dict(PINCHING_SCENARIO, name="x" * 300)])
        for command in (["validate", str(scen)], ["run", str(scen), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                "schema error at scenario[1].name: the report file name has 305 bytes, more than 255\n")
        assert not out.exists()

    def test_longest_name(self, tmp_path):
        # 250 characters and ".json" make 255 bytes; a non-ASCII character
        # counts once, since the file name replaces it with "_".
        scen, out = tmp_path / "scen.json", tmp_path / "out"
        write_scenarios(scen, [dict(PINCHING_SCENARIO, name="é" + "x" * 249)])
        assert main(["run", str(scen), "--out", str(out)]) == 0
        assert os.listdir(out) == ["_" + "x" * 249 + ".json"]


class TestRankDeficientSigma:
    """sigma = U diag(0.5, 0.3, 0.2, 0) U^H as an explicit matrix: roundoff
    puts its kernel eigenvalue near +-4e-17, under the eigensolver's floor, so
    every command refuses it at every seed, as a schema error at sigma."""

    @staticmethod
    def _sigma(seed: int) -> dict:
        g = np.random.default_rng(seed)
        u = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))[0]
        return matrix_to_json(u @ np.diag([0.5, 0.3, 0.2, 0.0]) @ u.conj().T)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_command_refuses_it(self, tmp_path, capsys, seed):
        channel = {"builder": "depolarizing", "dim": 4, "p": 0.3}
        rho = {"builder": "diag", "values": [0.1, 0.2, 0.3, 0.4]}
        scen = tmp_path / "scen.json"
        write_scenarios(scen, [{"name": "singular-sigma", "measure": {"family": "relative_entropy"},
                                "channel": channel, "rho": rho, "sigma": self._sigma(seed), "checks": ["gap"]}])
        runs = {
            "validate": ["validate", str(scen)],
            "run": ["run", str(scen), "--out", str(tmp_path / "out")],
            "sweep": ["sweep", "--measure", "sandwiched_renyi", "--grid", "alpha=1.5:2.5:0.5",
                      "--channel", json.dumps(channel), "--rho", json.dumps(rho),
                      "--sigma", json.dumps(self._sigma(seed)), "--out", str(tmp_path / "sweep.csv")],
        }
        for command, argv in runs.items():
            assert main(argv) == 2, command
            path = "sigma" if command == "sweep" else r"scenario\[0\]\.sigma"
            assert re.match(rf"^schema error at {path}: operator is not strictly positive",
                            capsys.readouterr().err), command
        assert not (tmp_path / "out").exists() and not (tmp_path / "sweep.csv").exists()
