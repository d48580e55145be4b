"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

from dpisat import calculus
from dpisat.calculus import EXP, LOG, X_LOG_X, finite_difference_frechet, frechet_derivative, power
from dpisat.channels import apply, dephasing_pinching, depolarizing, unitary
from dpisat.cli import main
from dpisat.divergences import MeasureSpec, evaluate, grad1, grad2, scaling_check
from dpisat.linalg import PositiveOperator, PsdOperator, frobenius
from dpisat.saturation import (
    alpha2_petz_residual,
    boundary_residual_general,
    boundary_residual_relent,
    dpi_gap,
    hiai_residual,
    petz_map,
    residual1,
    residual2,
    tangent_space_rank,
)

from _fixtures import (
    boundary_saturating_fixtures,
    classical_kl,
    depolarizing_fixture,
    gen,
    measure_suite,
    permutation_measure_prepare,
    random_cptp,
    random_hermitian,
    random_positive,
    random_psd_rank,
    random_unitary,
    saturating_fixtures,
)


def verdict(number: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c01_frechet_formula_vs_finite_differences():
    start = time.perf_counter()
    pairs = (LOG, EXP, power(0.5), power(1.7), X_LOG_X)
    g = gen(1001)
    worst = 0.0
    for fp in pairs:
        for dim in range(2, 7):
            for _ in range(50):
                a = random_positive(g, dim)
                m = random_hermitian(g, dim)
                exact = frechet_derivative(a.op, m, fp)
                oracle = finite_difference_frechet(a.op, m, fp, h=1e-5)
                rel = np.linalg.norm(exact.matrix - oracle.matrix) / max(
                    1e-30, np.linalg.norm(oracle.matrix)
                )
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "frechet formula vs central differences",
        worst <= 1e-5 and elapsed < 10.0,
        f"worst rel err {worst:.2e} <= 1e-5, {elapsed:.1f}s < 10s",
    )


def test_c02_closed_form_gradients_vs_numeric_oracle():
    start = time.perf_counter()
    grad1_specs = [
        MeasureSpec.relative_entropy(),
        MeasureSpec.fidelity(),
        MeasureSpec.sandwiched_renyi(1.7),
        MeasureSpec.alpha_z(1.5, 1.2),
        MeasureSpec.f_divergence("x_log_x"),
    ]
    grad2_specs = [
        MeasureSpec.relative_entropy(),
        MeasureSpec.fidelity(),
        MeasureSpec.sandwiched_renyi(1.7),
        MeasureSpec.alpha_z(1.5, 1.2),
        MeasureSpec.f_divergence("x_log_x"),
    ]
    g = gen(1002)
    worst = 0.0

    def rel_err(exact, oracle):
        return np.linalg.norm(exact.matrix - oracle.matrix) / max(
            1.0, np.linalg.norm(oracle.matrix)
        )

    for dim in (2, 3, 4):
        for _ in range(50):
            rho, sigma = random_positive(g, dim), random_positive(g, dim)
            for m in grad1_specs:
                oracle = calculus.numeric_gradient(
                    lambda r: evaluate(m, PositiveOperator(r), sigma), rho.op
                )
                worst = max(worst, rel_err(grad1(m, rho, sigma), oracle))
            for m in grad2_specs:
                oracle = calculus.numeric_gradient(
                    lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
                )
                worst = max(worst, rel_err(grad2(m, rho, sigma), oracle))
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "closed-form gradients vs numeric gradient",
        worst <= 1e-5 and elapsed < 60.0,
        f"worst rel err {worst:.2e} <= 1e-5, {elapsed:.1f}s < 60s",
    )


def test_c03_forward_saturation_on_fixture_classes():
    start = time.perf_counter()
    worst_gap = worst_r1 = worst_r2 = 0.0
    for label, c, rho, sigma in saturating_fixtures():
        for m in measure_suite():
            worst_gap = max(worst_gap, abs(dpi_gap(m, c, rho, sigma)))
            worst_r1 = max(worst_r1, frobenius(residual1(m, c, rho, sigma)))
            worst_r2 = max(worst_r2, frobenius(residual2(m, c, rho, sigma)))
    elapsed = time.perf_counter() - start
    ok = (
        worst_gap <= 1e-8
        and worst_r1 <= 1e-8
        and worst_r2 <= 1e-8
        and elapsed < 30.0
    )
    verdict(
        3,
        "forward saturation on the four fixture classes",
        ok,
        f"gap {worst_gap:.1e}, r1 {worst_r1:.1e}, r2 {worst_r2:.1e} <= 1e-8; "
        f"{elapsed:.1f}s < 30s",
    )


def test_c04_converse_scaling_law():
    g = gen(1004)
    worst_scaling = 0.0
    for _ in range(20):
        k, kp = float(g.uniform(0.2, 3.0)), float(g.uniform(0.2, 3.0))
        branch = int(g.integers(0, 3))
        if branch == 0:
            alpha = float(g.uniform(0.05, 0.95))
            z = float(g.uniform(max(alpha, 1 - alpha), max(alpha, 1 - alpha) + 1.0))
        elif branch == 1:
            alpha = float(g.uniform(1.05, 2.0))
            z = float(g.uniform(alpha / 2.0, alpha))
        else:
            alpha = float(g.uniform(2.0, 4.0))
            z = float(g.uniform(alpha - 1.0, alpha))
        m = MeasureSpec.alpha_z(alpha, z)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        chk = scaling_check(m, rho, sigma, k, kp)
        worst_scaling = max(
            worst_scaling, abs(chk.lhs - chk.rhs) / max(1.0, abs(chk.lhs), abs(chk.rhs))
        )
    worst_gap = 0.0
    renyi = [m for m in measure_suite() if m.family in ("sandwiched_renyi", "alpha_z")]
    for label, c, rho, sigma in saturating_fixtures():
        for m in renyi:
            if frobenius(residual1(m, c, rho, sigma)) <= 1e-8:
                worst_gap = max(worst_gap, abs(dpi_gap(m, c, rho, sigma)))
    ok = worst_scaling <= 1e-10 and worst_gap <= 1e-8
    verdict(
        4,
        "scaling law and residual=>gap implication",
        ok,
        f"scaling mismatch {worst_scaling:.1e} <= 1e-10, implied gap {worst_gap:.1e} <= 1e-8",
    )


def test_c05_non_saturation_detection():
    c, rho, sigma = depolarizing_fixture()
    m = MeasureSpec.relative_entropy()
    gap = dpi_gap(m, c, rho, sigma)
    oracle = classical_kl([0.9, 0.1], [0.5, 0.5]) - classical_kl([0.7, 0.3], [0.5, 0.5])
    n1 = frobenius(residual1(m, c, rho, sigma))
    ok = abs(gap - oracle) <= 1e-6 and n1 > 1e-3
    verdict(
        5,
        "non-saturation detection on the depolarizing instance",
        ok,
        f"gap {gap:.6f} vs classical {oracle:.6f} (diff {abs(gap - oracle):.1e} <= 1e-6), "
        f"residual {n1:.3f} > 1e-3",
    )


def test_c06_petz_recovery_suite():
    g = gen(1006)
    cases = list(saturating_fixtures())
    cases.append(("depolarizing",) + depolarizing_fixture())
    cases.append(("random_cptp", random_cptp(g, 3, 2), random_positive(g, 3), random_positive(g, 3)))
    worst_sigma = 0.0
    worst_rho_saturating = 0.0
    equivalence_ok = True
    saturating_labels = {label for label, *_ in saturating_fixtures()}
    for label, c, rho, sigma in cases:
        recovery = petz_map(sigma, c)
        err_sigma = np.linalg.norm(apply(recovery, apply(c, sigma.op)).matrix - sigma.matrix)
        err_rho = np.linalg.norm(apply(recovery, apply(c, rho.op)).matrix - rho.matrix)
        worst_sigma = max(worst_sigma, err_sigma)
        if label in saturating_labels:
            worst_rho_saturating = max(worst_rho_saturating, err_rho)
        res = frobenius(alpha2_petz_residual(c, rho, sigma))
        if (res <= 1e-8) != (err_rho <= 1e-7):
            equivalence_ok = False
    ok = worst_sigma <= 1e-9 and worst_rho_saturating <= 1e-7 and equivalence_ok
    verdict(
        6,
        "Petz recovery suite",
        ok,
        f"sigma recovery {worst_sigma:.1e} <= 1e-9, saturating rho recovery "
        f"{worst_rho_saturating:.1e} <= 1e-7, alpha=2 equivalence {equivalence_ok}",
    )


def test_c07_boundary_suite():
    g = gen(1007)
    dims_ok = all(
        tangent_space_rank(random_psd_rank(g, n, n - k)) == n * n - k * k
        for n in (3, 4)
        for k in (1, 2)
    )
    worst_boundary = 0.0
    for label, c, rho, sigma in boundary_saturating_fixtures():
        worst_boundary = max(worst_boundary, frobenius(boundary_residual_relent(c, rho, sigma)))
        worst_boundary = max(
            worst_boundary,
            frobenius(boundary_residual_general(MeasureSpec.relative_entropy(), c, rho, sigma)),
        )
        worst_boundary = max(worst_boundary, float(np.linalg.norm(hiai_residual(c, rho, sigma))))
    worst_reduction = 0.0
    c = depolarizing(3, 0.3)
    rho, sigma = random_positive(g, 3), random_positive(g, 3)
    for m in [m for m in measure_suite() if m.family != "f_divergence"]:
        diff = np.linalg.norm(
            boundary_residual_general(m, c, PsdOperator(rho.op), sigma).matrix
            - residual1(m, c, rho, sigma).matrix
        )
        worst_reduction = max(worst_reduction, float(diff))
    ok = dims_ok and worst_boundary <= 1e-8 and worst_reduction <= 1e-9
    verdict(
        7,
        "boundary suite",
        ok,
        f"tangent dims n^2-k^2 {dims_ok}, rank-deficient residuals {worst_boundary:.1e} <= 1e-8, "
        f"full-rank reduction {worst_reduction:.1e} <= 1e-9",
    )


def test_c08_family_coincidences():
    g = gen(1008)
    worst_value = worst_grad = worst_fdiv = 0.0
    for _ in range(20):
        dim = int(g.integers(2, 5))
        rho, sigma = random_positive(g, dim), random_positive(g, dim)
        alpha = float(g.uniform(0.5, 3.0))
        if abs(alpha - 1.0) < 0.05:
            alpha = 1.5
        ms = MeasureSpec.sandwiched_renyi(alpha)
        ma = MeasureSpec.alpha_z(alpha, alpha)
        worst_value = max(worst_value, abs(evaluate(ms, rho, sigma) - evaluate(ma, rho, sigma)))
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(grad1(ms, rho, sigma).matrix - grad1(ma, rho, sigma).matrix)),
        )
        worst_fdiv = max(
            worst_fdiv,
            abs(
                evaluate(MeasureSpec.f_divergence("x_log_x"), rho, sigma)
                - evaluate(MeasureSpec.relative_entropy(), rho, sigma)
            ),
        )
    ok = worst_value <= 1e-10 and worst_grad <= 1e-10 and worst_fdiv <= 1e-10
    verdict(
        8,
        "family coincidences",
        ok,
        f"sandwiched vs alpha-z value {worst_value:.1e}, grad1 {worst_grad:.1e}, "
        f"f-divergence(x log x) vs relative entropy {worst_fdiv:.1e}; all <= 1e-10",
    )


def _random_measure(g) -> MeasureSpec:
    kind = int(g.integers(0, 5))
    if kind == 0:
        return MeasureSpec.relative_entropy()
    if kind == 1:
        return MeasureSpec.fidelity()
    if kind == 2:
        alpha = float(g.uniform(0.5, 3.0))
        while abs(alpha - 1.0) < 0.05:
            alpha = float(g.uniform(0.5, 3.0))
        return MeasureSpec.sandwiched_renyi(alpha)
    if kind == 3:
        branch = int(g.integers(0, 3))
        if branch == 0:
            alpha = float(g.uniform(0.05, 0.95))
            z = float(g.uniform(max(alpha, 1 - alpha), max(alpha, 1 - alpha) + 1.0))
        elif branch == 1:
            alpha = float(g.uniform(1.05, 2.0))
            z = float(g.uniform(alpha / 2.0, alpha))
        else:
            alpha = float(g.uniform(2.0, 4.0))
            z = float(g.uniform(alpha - 1.0, alpha))
        return MeasureSpec.alpha_z(alpha, z)
    name = ("x_log_x", "neg_log", "chi_square", "power")[int(g.integers(0, 4))]
    if name == "power":
        exponent = float(g.uniform(0.1, 2.0))
        while abs(exponent - 1.0) < 0.05:
            exponent = float(g.uniform(0.1, 2.0))
        return MeasureSpec.f_divergence("power", alpha=exponent)
    return MeasureSpec.f_divergence(name)


def _random_channel(g, dim):
    kind = int(g.integers(0, 5))
    if kind == 0:
        return unitary(random_unitary(g, dim))
    if kind == 1:
        return dephasing_pinching(dim)
    if kind == 2:
        return depolarizing(dim, float(g.uniform(0.0, 1.0)))
    if kind == 3:
        return permutation_measure_prepare(dim)
    return random_cptp(g, dim, int(g.integers(2, dim + 1)))


def test_c09_dpi_sanity_across_parameter_regions():
    start = time.perf_counter()
    g = gen(1009)
    worst = np.inf
    for _ in range(500):
        dim = int(g.integers(2, 5))
        m = _random_measure(g)
        c = _random_channel(g, dim)
        rho, sigma = random_positive(g, dim), random_positive(g, dim)
        gap = m.sign * (
            evaluate(m, rho, sigma)
            - evaluate(
                m,
                PositiveOperator(apply(c, rho.op)),
                PositiveOperator(apply(c, sigma.op)),
            )
        )
        worst = min(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 120.0
    verdict(
        9,
        "sign-adjusted gap nonnegative over 500 random draws",
        ok,
        f"min gap {worst:.2e} >= -1e-9, {elapsed:.1f}s < 120s",
    )


def test_c10_cli_determinism_and_exit_codes(tmp_path):
    scenario = [
        {
            "name": "acc-random",
            "measure": {"family": "sandwiched_renyi", "alpha": 2.0},
            "channel": {"builder": "depolarizing", "dim": 3, "p": 0.3},
            "rho": {"builder": "random_pos", "dim": 3, "seed": 9},
            "sigma": {"builder": "random_pos", "dim": 3, "seed": 10},
            "checks": ["gap", "residual1", "converse", "petz"],
        }
    ]
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(scenario), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["run", str(scen), "--out", str(out1)])
    code2 = main(["run", str(scen), "--out", str(out2)])
    rep1 = json.loads((out1 / "acc-random.json").read_text())
    rep2 = json.loads((out2 / "acc-random.json").read_text())
    rep1.pop("generated_at")
    rep2.pop("generated_at")
    deterministic = json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    failing = [dict(scenario[0], name="acc-fail", checks=["residual1"], tolerances={"gap_tol": 10.0})]
    scen_fail = tmp_path / "fail.json"
    scen_fail.write_text(json.dumps(failing), encoding="utf-8")
    code_fail = main(["run", str(scen_fail), "--out", str(tmp_path / "c")])

    broken = [dict(scenario[0], name="acc-broken", measure={"family": "nope"})]
    scen_broken = tmp_path / "broken.json"
    scen_broken.write_text(json.dumps(broken), encoding="utf-8")
    code_schema = main(["run", str(scen_broken), "--out", str(tmp_path / "d")])

    ok = code1 == 0 and code2 == 0 and deterministic and code_fail == 1 and code_schema == 2
    verdict(
        10,
        "CLI determinism and exit-code contract",
        ok,
        f"exit codes (0,0,1,2) = ({code1},{code2},{code_fail},{code_schema}), "
        f"byte-identical modulo timestamp: {deterministic}",
    )
