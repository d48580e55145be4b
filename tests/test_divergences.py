import dataclasses
import json
import math

import numpy as np
import pytest

from dpisat import calculus
from dpisat.divergences import (
    _FAMILY_TABLE,
    MeasureSpec,
    _Pair,
    _value,
    evaluate,
    evaluate_psd,
    grad1,
    grad2,
    grad2_method,
    measure_from_json,
    measure_to_json,
    scaling_check,
)
from dpisat.linalg import (
    HermitianOperator,
    MatrixFunctionDomainError,
    PositiveOperator,
    PsdOperator,
    SchemaError,
    hs_inner,
    spectral_decompose,
)

from _fixtures import (
    boundary_saturating_fixtures,
    classical_bhattacharyya,
    classical_fdiv,
    classical_kl,
    classical_renyi,
    diag_positive,
    fidelity_grad2_closed_form,
    gen,
    ill_conditioned_partial_trace,
    measure_suite,
    random_cptp,
    random_positive,
    random_psd_rank,
)
from dpisat.channels import apply, dephasing_pinching, depolarizing, unitary
from dpisat.cli import random_positive_state
from dpisat.saturation import dpi_gap

from _fixtures import random_unitary


class TestMeasureSpecValidation:
    def test_alpha_one_always_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            MeasureSpec.sandwiched_renyi(1.0)
        with pytest.raises(ValueError, match="pole"):
            MeasureSpec.alpha_z(1.0, 1.0, allow_non_dpi=True)

    @pytest.mark.parametrize("build", [
        lambda: MeasureSpec.sandwiched_renyi(math.inf, allow_non_dpi=True),
        lambda: MeasureSpec.sandwiched_renyi(math.nan, allow_non_dpi=True),
        lambda: MeasureSpec.alpha_z(1.5, math.inf, allow_non_dpi=True),
        lambda: MeasureSpec.alpha_z(math.nan, 1.5, allow_non_dpi=True),
        lambda: MeasureSpec("f_divergence", alpha=math.inf, f_pair=calculus.power(1.5), f_name="power",
                            f_asserted=True),
    ], ids=["sandwiched_inf", "sandwiched_nan", "alpha_z_inf_z", "alpha_z_nan_alpha", "fdiv_asserted_inf"])
    def test_non_finite_parameter_refused(self, build):
        with pytest.raises(ValueError, match=r"requires a finite (alpha|z), got (inf|nan)$"):
            build()

    def test_non_finite_power_exponent_refused(self):
        with pytest.raises(ValueError, match=r"^power requires a finite exponent, got nan$"):
            MeasureSpec.f_divergence("power", alpha=math.nan, caller_asserted=True)

    def test_sandwiched_region(self):
        with pytest.raises(ValueError, match="allow_non_dpi"):
            MeasureSpec.sandwiched_renyi(0.3)
        MeasureSpec.sandwiched_renyi(0.3, allow_non_dpi=True)
        MeasureSpec.sandwiched_renyi(0.5)

    def test_alpha_z_region_branches(self):
        MeasureSpec.alpha_z(0.7, 0.9)   # 0<a<1, z >= max(a, 1-a)
        MeasureSpec.alpha_z(1.5, 0.75)  # 1<a<=2, a/2 <= z <= a
        MeasureSpec.alpha_z(3.0, 2.5)   # a>=2, a-1 <= z <= a
        for alpha, z in ((0.7, 0.5), (1.5, 0.5), (1.5, 1.8), (3.0, 1.2), (3.0, 3.5)):
            with pytest.raises(ValueError, match="allow_non_dpi"):
                MeasureSpec.alpha_z(alpha, z)
            MeasureSpec.alpha_z(alpha, z, allow_non_dpi=True)

    def test_power_exponent_outside_dpi_needs_the_flag(self):
        power = {"family": "f_divergence", "f": "power", "alpha": 3}
        with pytest.raises(SchemaError, match=r"\(0,1\) or \(1,2\]"):
            measure_from_json(power)
        assert measure_from_json({**power, "allow_non_dpi": True}).sign == 1
        for allow in (False, True):
            for alpha in (1, -0.5):
                with pytest.raises(SchemaError, match="exponent"):
                    measure_from_json({**power, "alpha": alpha, "allow_non_dpi": allow})

    def test_gamma_derivation(self):
        assert MeasureSpec.sandwiched_renyi(2.0).gamma == pytest.approx(-0.25)
        assert MeasureSpec.alpha_z(2.0, 1.0).gamma == pytest.approx(-0.5)
        assert MeasureSpec.relative_entropy().gamma is None

    def test_signs(self):
        assert MeasureSpec.relative_entropy().sign == 1
        assert MeasureSpec.fidelity().sign == -1
        assert MeasureSpec.f_divergence("power", alpha=0.5).sign == -1
        assert MeasureSpec.f_divergence("power", alpha=1.5).sign == 1
        assert MeasureSpec.f_divergence("x_log_x").sign == 1

    def test_sign_is_the_familys(self):
        # A contradicting sign would flip every gap: relative entropy under
        # depolarizing noise has gap +0.678 on this pair, never -0.678.
        c = depolarizing(3, 0.4)
        rho, sigma = (PositiveOperator(HermitianOperator(random_positive_state(3, s))) for s in (1, 2))
        for build in (lambda **kw: MeasureSpec("relative_entropy", **kw),
                      lambda **kw: MeasureSpec.f_divergence("x_log_x", **kw)):
            with pytest.raises(ValueError, match="contradicts"):
                build(sign=-1)
            m = build(sign=1)
            assert m.sign == 1 and dpi_gap(m, c, rho, sigma) == pytest.approx(0.678, abs=1e-3)
        with pytest.raises(ValueError, match="contradicts"):
            MeasureSpec.f_divergence("power", alpha=0.5, sign=1)
        # replace passes the derived sign back.
        m = dataclasses.replace(MeasureSpec.f_divergence("power", alpha=0.5), allow_non_dpi=True)
        assert m.sign == -1 and m.allow_non_dpi
        assert dataclasses.replace(MeasureSpec.fidelity()).sign == -1

    def test_caller_asserted_f_may_give_its_own_sign(self):
        pair = calculus.power(0.5)
        assert MeasureSpec.f_divergence(pair, sign=1, caller_asserted=True).sign == 1
        assert MeasureSpec.f_divergence(pair, sign=-1, caller_asserted=True).sign == -1
        with pytest.raises(ValueError, match="contradicts"):
            MeasureSpec.f_divergence("x_log_x", sign=-1, caller_asserted=False)
        with pytest.raises(ValueError, match="sign must be"):
            MeasureSpec.f_divergence(pair, sign=2, caller_asserted=True)

    def test_a_parameter_outside_the_family_fields_is_rejected(self):
        for kwargs in ({"family": "relative_entropy", "alpha": 0.5},
                       {"family": "fidelity", "z": 0.5},
                       {"family": "sandwiched_renyi", "alpha": 1.5, "z": 1.5}):
            with pytest.raises(ValueError, match="takes no"):
                MeasureSpec(**kwargs)
        with pytest.raises(ValueError, match="takes no alpha"):
            MeasureSpec.f_divergence("x_log_x", alpha=0.5)

    def test_custom_f_requires_assertion(self):
        pair = calculus.power(1.5)
        with pytest.raises(ValueError, match="asserted"):
            MeasureSpec("f_divergence", f_pair=pair, f_name="custom")
        MeasureSpec("f_divergence", f_pair=pair, f_name="custom", f_asserted=True)

    def test_grad2_method_flag(self):
        assert grad2_method(MeasureSpec.f_divergence("x_log_x")) == "closed_form"
        assert grad2_method(MeasureSpec.relative_entropy()) == "closed_form"


class TestValues:
    def test_relent_self_is_zero(self):
        g = gen(400)
        rho = random_positive(g, 3)
        assert evaluate(MeasureSpec.relative_entropy(), rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relent_classical(self):
        rho = diag_positive([0.5, 0.5])
        sigma = diag_positive([0.75, 0.25])
        val = evaluate(MeasureSpec.relative_entropy(), rho, sigma)
        assert val == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)
        assert val == pytest.approx(classical_kl([0.5, 0.5], [0.75, 0.25]), abs=1e-12)

    def test_fidelity_classical(self):
        val = evaluate(
            MeasureSpec.fidelity(), diag_positive([0.5, 0.5]), diag_positive([0.75, 0.25])
        )
        assert val == pytest.approx(np.sqrt(0.375) + np.sqrt(0.125), abs=1e-12)

    def test_sandwiched_alpha2_classical(self):
        val = evaluate(
            MeasureSpec.sandwiched_renyi(2.0),
            diag_positive([0.5, 0.5]),
            diag_positive([0.75, 0.25]),
        )
        assert val == pytest.approx(np.log(0.25 / 0.75 + 0.25 / 0.25), abs=1e-12)

    def test_commuting_reduction_all_measures(self):
        p = [0.5, 0.3, 0.45]
        q = [0.2, 0.7, 0.4]
        rho, sigma = diag_positive(p), diag_positive(q)
        classical = {
            "relative_entropy": classical_kl(p, q),
            "fidelity": classical_bhattacharyya(p, q),
        }
        for m in measure_suite():
            val = evaluate(m, rho, sigma)
            if m.family in classical:
                expected = classical[m.family]
            elif m.family in ("sandwiched_renyi", "alpha_z"):
                expected = classical_renyi(m.alpha, p, q)
            else:
                expected = classical_fdiv(m.f_pair.f, p, q)
            assert val == pytest.approx(expected, abs=1e-10), m

    def test_fdiv_xlogx_is_relative_entropy(self):
        g = gen(401)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        lhs = evaluate(MeasureSpec.f_divergence("x_log_x"), rho, sigma)
        rhs = evaluate(MeasureSpec.relative_entropy(), rho, sigma)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_fdiv_neg_log_is_swapped_relative_entropy(self):
        g = gen(402)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        lhs = evaluate(MeasureSpec.f_divergence("neg_log"), rho, sigma)
        rhs = evaluate(MeasureSpec.relative_entropy(), sigma, rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_fdiv_power_matches_trace_form(self):
        # tr(rho^a sigma^(1-a)) computed directly from the eigensystems.
        g = gen(403)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        for alpha in (0.5, 1.5, 2.0):
            val = evaluate(MeasureSpec.f_divergence("power", alpha=alpha), rho, sigma)
            wr, vr = np.linalg.eigh(rho.matrix)
            ws, vs = np.linalg.eigh(sigma.matrix)
            direct = np.trace(
                (vr * wr ** alpha) @ vr.conj().T @ (vs * ws ** (1 - alpha)) @ vs.conj().T
            ).real
            assert val == pytest.approx(direct, abs=1e-10)

    def test_alpha_z_on_diagonal_independent_of_z(self):
        rho, sigma = diag_positive([0.5, 0.8]), diag_positive([0.3, 0.6])
        v1 = evaluate(MeasureSpec.alpha_z(1.5, 0.8), rho, sigma)
        v2 = evaluate(MeasureSpec.alpha_z(1.5, 1.5), rho, sigma)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_dimension_mismatch(self):
        g = gen(404)
        with pytest.raises(ValueError, match="dimension"):
            evaluate(MeasureSpec.relative_entropy(), random_positive(g, 2), random_positive(g, 3))


class TestGradients:
    def test_grad1_relent_at_equal_states(self):
        g = gen(410)
        rho = random_positive(g, 3)
        out = grad1(MeasureSpec.relative_entropy(), rho, rho)
        assert np.linalg.norm(out.matrix - np.eye(3)) <= 1e-10

    def test_grad1_fidelity_at_equal_states(self):
        g = gen(411)
        rho = random_positive(g, 3)
        out = grad1(MeasureSpec.fidelity(), rho, rho)
        assert np.linalg.norm(out.matrix - 0.5 * np.eye(3)) <= 1e-10

    def test_grad2_relent_at_equal_states(self):
        g = gen(412)
        rho = random_positive(g, 3)
        out = grad2(MeasureSpec.relative_entropy(), rho, rho)
        assert np.linalg.norm(out.matrix + np.eye(3)) <= 1e-10

    def test_grad2_fidelity_is_swapped_grad1(self):
        # F is symmetric, so grad2(r, s) = grad1(s, r); grad2 is the closed
        # form on the core of (r, s), grad1 at (s, r) reads another core.
        g = gen(413)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        lhs = grad2(MeasureSpec.fidelity(), rho, sigma).matrix
        rhs = grad1(MeasureSpec.fidelity(), sigma, rho).matrix
        expected = fidelity_grad2_closed_form(rho.matrix, sigma.matrix)
        assert np.linalg.norm(lhs - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_sandwiched_equals_alpha_z_diagonal(self):
        # Sandwiched Renyi is the alpha-z quasi-entropy on the line z = alpha,
        # through the same core, value and gradient path: bit for bit.
        from dpisat.saturation import build_report

        g = gen(414)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        c = depolarizing(3, 0.3)
        for alpha in (0.6, 1.4, 2.0, 2.7):
            ms = MeasureSpec.sandwiched_renyi(alpha)
            ma = MeasureSpec.alpha_z(alpha, alpha)
            assert evaluate(ms, rho, sigma) == evaluate(ma, rho, sigma)
            for grad in (grad1, grad2):
                assert np.array_equal(grad(ms, rho, sigma).matrix, grad(ma, rho, sigma).matrix)
            rs, ra = build_report(ms, c, rho, sigma), build_report(ma, c, rho, sigma)
            assert rs.gap == ra.gap
            assert np.array_equal(rs.residual1.matrix, ra.residual1.matrix)
            assert np.array_equal(rs.residual2.matrix, ra.residual2.matrix)

    def test_alpha_z_at_one_half_is_log_fidelity(self):
        # Q at (1/2, 1/2) is the fidelity: D = log F / (1/2 - 1) = -2 log F,
        # and its first gradient is -(2/F) times the fidelity's.
        g = gen(418)
        mf, ma = MeasureSpec.fidelity(), MeasureSpec.alpha_z(0.5, 0.5)
        for _ in range(3):
            rho, sigma = random_positive(g, 4), random_positive(g, 4)
            f = evaluate(mf, rho, sigma)
            assert evaluate(ma, rho, sigma) == pytest.approx(-2.0 * math.log(f), rel=1e-12)
            expected = -(2.0 / f) * grad1(mf, rho, sigma).matrix
            got = grad1(ma, rho, sigma).matrix
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_grad1_against_numeric_oracle(self, m):
        g = gen(hash(str(m)) % 2 ** 32)
        for _ in range(3):
            rho, sigma = random_positive(g, 3), random_positive(g, 3)
            exact = grad1(m, rho, sigma)
            oracle = calculus.numeric_gradient(
                lambda r: evaluate(m, PositiveOperator(r), sigma), rho.op
            )
            rel = np.linalg.norm(exact.matrix - oracle.matrix) / max(
                1.0, np.linalg.norm(oracle.matrix)
            )
            assert rel <= 1e-5

    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_grad2_against_numeric_oracle(self, m):
        g = gen(hash(str(m) + "2") % 2 ** 32)
        for _ in range(3):
            rho, sigma = random_positive(g, 3), random_positive(g, 3)
            exact = grad2(m, rho, sigma)
            oracle = calculus.numeric_gradient(
                lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
            )
            rel = np.linalg.norm(exact.matrix - oracle.matrix) / max(
                1.0, np.linalg.norm(oracle.matrix)
            )
            assert rel <= 1e-5

    def test_grad2_low_alpha_z_branch(self):
        g = gen(417)
        m = MeasureSpec.alpha_z(0.6, 0.8)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        exact = grad2(m, rho, sigma)
        oracle = calculus.numeric_gradient(
            lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
        )
        rel = np.linalg.norm(exact.matrix - oracle.matrix) / max(
            1.0, np.linalg.norm(oracle.matrix)
        )
        assert rel <= 1e-5

    def test_grad2_alpha_z_at_large_alpha(self):
        # Its outer power sigma^(-49.5) passes its self-check and grad2 runs.
        m = MeasureSpec.alpha_z(100, 1, allow_non_dpi=True)
        rho = PositiveOperator(HermitianOperator(np.array([[0.55, 0.05 + 0.02j], [0.05 - 0.02j, 0.45]])))
        sigma = PositiveOperator(HermitianOperator(np.array([[0.48, -0.03j], [0.03j, 0.52]])))
        exact = grad2(m, rho, sigma)
        oracle = calculus.numeric_gradient(
            lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
        )
        assert np.linalg.norm(exact.matrix - oracle.matrix) <= 1e-5 * np.linalg.norm(oracle.matrix)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "alpha_z grad2 at alpha = 100, z = 1 loses all accuracy when sigma's spectrum spans "
        "[0.17, 0.48]: sigma^(-49.5) spans 1e15..1e38 and the closed form cancels"))
    def test_grad2_alpha_z_at_large_alpha_on_spread_spectra(self):
        m = MeasureSpec.alpha_z(100, 1, allow_non_dpi=True)
        g = gen(710)
        ops = []
        for _ in range(2):
            x = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
            h = (x + x.conj().T) / 2
            a = np.eye(3) / 3 + 0.5 * h / np.linalg.norm(h, 2) / 3
            ops.append(PositiveOperator(HermitianOperator(a / np.trace(a).real)))
        rho, sigma = ops
        exact = grad2(m, rho, sigma)
        oracle = calculus.numeric_gradient(
            lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
        )
        assert np.linalg.norm(exact.matrix - oracle.matrix) <= 1e-5 * np.linalg.norm(oracle.matrix)

    def test_gradients_with_degenerate_sigma(self):
        # Repeated eigenvalues collapse into one projector; the divided
        # differences must fall back to the derivative branch cleanly.
        g = gen(416)
        rho = random_positive(g, 4)
        sigma = PositiveOperator(HermitianOperator(np.eye(4, dtype=complex) / 4.0))
        for m in (
            MeasureSpec.f_divergence("x_log_x"),
            MeasureSpec.f_divergence("chi_square"),
            MeasureSpec.alpha_z(1.5, 1.2),
        ):
            exact = grad1(m, rho, sigma)
            oracle = calculus.numeric_gradient(
                lambda r: evaluate(m, PositiveOperator(r), sigma), rho.op
            )
            assert np.linalg.norm(exact.matrix - oracle.matrix) <= 1e-5
            exact2 = grad2(m, rho, sigma)
            oracle2 = calculus.numeric_gradient(
                lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op
            )
            assert np.linalg.norm(exact2.matrix - oracle2.matrix) <= 1e-5

    def test_grad1_dualization_identity(self):
        # tr(grad1 M) equals the directional derivative of the value.
        g = gen(415)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        m = MeasureSpec.relative_entropy()
        grad = grad1(m, rho, sigma)
        direction = HermitianOperator(0.1 * np.diag([1.0, -0.5, 0.25]).astype(complex))
        h = 1e-5
        plus = PositiveOperator(HermitianOperator(rho.matrix + h * direction.matrix))
        minus = PositiveOperator(HermitianOperator(rho.matrix - h * direction.matrix))
        fd = (evaluate(m, plus, sigma) - evaluate(m, minus, sigma)) / (2 * h)
        assert hs_inner(grad, direction) == pytest.approx(fd, abs=1e-5)


def projector_sums(pair, rho, sigma):
    """Value and both gradients of the f-divergence as explicit double sums
    over the clustered eigenprojectors ``P_j`` of rho and ``Q_k`` of sigma.

    The gradients are returned as None when rho has a zero eigenvalue.
    """
    sd_r, sd_s = spectral_decompose(rho), spectral_decompose(sigma)
    n = sd_r.dim
    value = 0.0
    for mu, q in sd_s.items():
        for p, pj in sd_r.items():
            fx = pair.value_at_zero if p == 0.0 else pair.f(p / mu)
            value += mu * fx * np.trace(pj.matrix @ q.matrix).real
    if min(sd_r.eigenvalues) <= 0.0:
        return value, None, None

    def divided(fun, dfun, nodes, i, j):
        a, b = nodes[i], nodes[j]
        return dfun(a) if i == j else (fun(a) - fun(b)) / (a - b)

    g1 = np.zeros((n, n), dtype=complex)
    for mu, q in sd_s.items():
        h = lambda p, mu=mu: mu * pair.f(p / mu)
        dh = lambda p, mu=mu: pair.f_prime(p / mu)
        for i, (_, pi) in enumerate(sd_r.items()):
            for j, (_, pj) in enumerate(sd_r.items()):
                g1 += divided(h, dh, sd_r.eigenvalues, i, j) * (pi.matrix @ q.matrix @ pj.matrix)
    g2 = np.zeros((n, n), dtype=complex)
    for p, pa in sd_r.items():
        g = lambda mu, p=p: mu * pair.f(p / mu)
        dg = lambda mu, p=p: pair.f(p / mu) - p / mu * pair.f_prime(p / mu)
        for k, (_, qk) in enumerate(sd_s.items()):
            for l, (_, ql) in enumerate(sd_s.items()):
                g2 += divided(g, dg, sd_s.eigenvalues, k, l) * (qk.matrix @ pa.matrix @ ql.matrix)
    return value, g1, g2


def rotated(g, values) -> PositiveOperator:
    u = random_unitary(g, len(values))
    return PositiveOperator(HermitianOperator((u * np.asarray(values)) @ u.conj().T, herm_tol=1e-12))


F_DIVERGENCES = [m for m in measure_suite() if m.family == "f_divergence"]


class TestFdivClosedForm:
    """Value and gradients of the f-divergence on clustered and boundary
    spectra, against the projector double sums and finite differences."""

    @pytest.mark.parametrize("m", F_DIVERGENCES, ids=str)
    @pytest.mark.parametrize(
        "rho_values, sigma_values",
        [
            (None, [0.4, 0.4, 0.9, 1.3]),  # sigma: a pair cluster next to distinct ones
            ([0.5, 0.5, 0.5, 1.2], None),  # rho: a triple cluster
            ([0.3, 0.3, 0.8, 0.8], [0.6, 0.6, 0.6, 0.2]),
        ],
        ids=["sigma_cluster", "rho_cluster", "both_clustered"],
    )
    def test_clustered_spectra(self, m, rho_values, sigma_values):
        g = gen(450)
        rho = random_positive(g, 4) if rho_values is None else rotated(g, rho_values)
        sigma = random_positive(g, 4) if sigma_values is None else rotated(g, sigma_values)
        value, g1, g2 = projector_sums(m.f_pair, rho.op, sigma.op)
        assert evaluate(m, rho, sigma) == pytest.approx(value, abs=1e-12)
        for got, loops, oracle in (
            (
                grad1(m, rho, sigma),
                g1,
                calculus.numeric_gradient(lambda r: evaluate(m, PositiveOperator(r), sigma), rho.op),
            ),
            (
                grad2(m, rho, sigma),
                g2,
                calculus.numeric_gradient(lambda s: evaluate(m, rho, PositiveOperator(s)), sigma.op),
            ),
        ):
            scale = max(1.0, np.linalg.norm(loops))
            assert np.linalg.norm(got.matrix - loops) <= 1e-11 * scale
            assert np.linalg.norm(got.matrix - oracle.matrix) <= 1e-5 * scale

    @pytest.mark.parametrize("m", [m for m in F_DIVERGENCES if m.f_name != "neg_log"], ids=str)
    def test_rank_deficient_rho(self, m):
        g = gen(451)
        rho, sigma = random_psd_rank(g, 4, 2), random_positive(g, 4)
        value = projector_sums(m.f_pair, rho, sigma.op)[0]
        assert evaluate_psd(m, rho, sigma) == pytest.approx(value, abs=1e-12)

    def test_zero_eigenvalue_errors(self):
        rho = PsdOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex)))
        sigma = diag_positive([0.5, 0.5])
        with pytest.raises(ValueError) as info:
            evaluate_psd(MeasureSpec.f_divergence("neg_log"), rho, sigma)
        assert type(info.value) is ValueError
        assert str(info.value) == "f-divergence 'neg_log' has no continuous extension at 0"

    def test_caller_asserted_pair_outside_its_domain(self):
        # x log x declared on (0, 2) only: the ratio p_a/mu_k = 0.9/0.3 lies
        # outside, and every path that reads the table names it.
        pair = calculus.ScalarFunctionPair(
            "x_log_x_below_2", lambda x: x * np.log(x), lambda x: np.log(x) + 1.0, domain=(0.0, 2.0)
        )
        m = MeasureSpec.f_divergence(pair, caller_asserted=True)
        rho, sigma = diag_positive([0.9, 0.1]), diag_positive([0.3, 0.7])
        for call in (evaluate, grad1, grad2):
            with pytest.raises(MatrixFunctionDomainError) as info:
                call(m, rho, sigma)
            assert info.value.eigenvalue == pytest.approx(3.0)
            assert str(info.value) == f"x_log_x_below_2 is undefined at {info.value.eigenvalue!r}"

    def test_scalar_only_custom_f(self):
        # Built on math.log, so f and f' accept Python floats only.
        pair = calculus.ScalarFunctionPair(
            "x_log_x_scalar",
            lambda x: x * math.log(x),
            lambda x: math.log(x) + 1.0,
            domain=(0.0, math.inf),
            value_at_zero=0.0,
        )
        with pytest.raises(TypeError):
            pair.f(np.array([0.5, 2.0]))
        custom = MeasureSpec.f_divergence(pair, caller_asserted=True)
        registered = MeasureSpec.f_divergence("x_log_x")
        g = gen(452)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        assert evaluate(custom, rho, sigma) == pytest.approx(
            evaluate(registered, rho, sigma), abs=1e-12
        )
        for grad in (grad1, grad2):
            diff = grad(custom, rho, sigma).matrix - grad(registered, rho, sigma).matrix
            assert np.linalg.norm(diff) <= 1e-12
        psd = random_psd_rank(g, 3, 2)
        assert evaluate_psd(custom, psd, sigma) == pytest.approx(
            evaluate_psd(registered, psd, sigma), abs=1e-12
        )


class TestDpiMonotonicity:
    def test_sign_adjusted_gap_nonnegative(self):
        g = gen(420)
        channels = [
            unitary(random_unitary(g, 3)),
            dephasing_pinching(3),
            depolarizing(3, 0.35),
            random_cptp(g, 3, 2),
        ]
        for m in measure_suite():
            for c in channels:
                for _ in range(8):
                    rho, sigma = random_positive(g, 3), random_positive(g, 3)
                    before = evaluate(m, rho, sigma)
                    after = evaluate(
                        m,
                        PositiveOperator(apply(c, rho.op)),
                        PositiveOperator(apply(c, sigma.op)),
                    )
                    assert m.sign * (before - after) >= -1e-9, (m, c.dim_out)


class TestScalingCheck:
    def test_trivial_scale(self):
        g = gen(430)
        rho, sigma = random_positive(g, 2), random_positive(g, 2)
        chk = scaling_check(MeasureSpec.sandwiched_renyi(2.0), rho, sigma, 1.0, 1.0)
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12)

    def test_alpha2_shift(self):
        g = gen(431)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        chk = scaling_check(MeasureSpec.alpha_z(2.0, 2.0), rho, sigma, 2.0, 1.0)
        assert chk.lhs - chk.rhs == pytest.approx(0.0, abs=1e-10)
        base = evaluate(MeasureSpec.alpha_z(2.0, 2.0), rho, sigma)
        assert chk.rhs - base == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_fractional_parameters(self):
        g = gen(432)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        chk = scaling_check(MeasureSpec.alpha_z(0.7, 0.9), rho, sigma, 0.5, 3.0)
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-10)

    def test_rejects_non_renyi(self):
        g = gen(433)
        rho, sigma = random_positive(g, 2), random_positive(g, 2)
        with pytest.raises(ValueError, match="Renyi"):
            scaling_check(MeasureSpec.relative_entropy(), rho, sigma, 2.0, 1.0)


# (k, k') of B(k r, k' s), one factor at a time, so that a law is judged in
# log k and log k' apart: draws on the line k k' = 1 would pass a fidelity law
# without its sqrt(k k'). A binary float scales exactly by powers of 4, and so
# do their square roots: the scaled pair keeps the base pair's eigenvectors, so
# the law is judged, not a fresh roundoff of about eps cond(sigma).
SCALE_DRAWS = ((4.0, 1.0), (1.0, 4.0))

SCALING_SPECS = [m for m in measure_suite() if m._row.scaling is not None]


def _scaled(x, k: float):
    """k x, exactly; a rank-deficient x keeps its kernel, its zero threshold scaled with it.
    k times an exactly Hermitian matrix is exactly Hermitian, so the
    constructor finds no skew and keeps every bit."""
    op = HermitianOperator(k * x.matrix)
    return PsdOperator(op, k * x.zero_tol) if isinstance(x, PsdOperator) else PositiveOperator(op)


def scaling_law_states() -> list:
    """``(label, rho, sigma)``: random full-rank pairs at n = 2..6, the
    rank-deficient rho of the boundary fixtures, and sigma with eigenvalues
    {s, 5s, 1} under a partial trace."""
    g = gen(440)
    states = [(f"random_n{n}", random_positive(g, n), random_positive(g, n)) for n in range(2, 7)]
    states += [(label, rho, sigma) for label, _, rho, sigma in boundary_saturating_fixtures()]
    states += [(f"ill_conditioned_s{s:g}_seed{seed}", *ill_conditioned_partial_trace(s, seed)[1:])
               for s in (1e-9, 1e-12) for seed in (1, 2, 3)]
    return states


def scaling_law_misses(m: MeasureSpec, law) -> list:
    """Where ``B(k r, k' s)`` misses ``law(m, pt, B(r, s), k, k')`` by more than
    1e-10 relative, over :func:`scaling_law_states` and :data:`SCALE_DRAWS`."""
    misses = []
    for label, rho, sigma in scaling_law_states():
        pt = _Pair(rho, sigma)
        base = _value(m, pt)
        for k, k_prime in SCALE_DRAWS:
            lhs = _value(m, _Pair(_scaled(rho, k), _scaled(sigma, k_prime)))
            rhs = law(m, pt, base, k, k_prime)
            if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs), abs(rhs)):
                misses.append((label, k, k_prime, lhs, rhs))
    return misses


class TestScalingLaws:
    """Every scaling law of the family table, verified once here: ``converse``
    judges a report on the strength of these laws without re-evaluating them."""

    def test_every_law_is_covered(self):
        assert len(SCALING_SPECS) == 8
        assert {m.family for m in SCALING_SPECS} == {
            family for family, row in _FAMILY_TABLE.items() if row.scaling is not None}

    @pytest.mark.parametrize("m", SCALING_SPECS, ids=str)
    def test_law_holds(self, m):
        assert scaling_law_misses(m, m._row.scaling) == []

    # Wrong laws: off by 1 + 1e-6, or right on the line k k' = 1 only (a
    # dropped sqrt(k k') factor, a wrong split between log k and log k').
    WRONG_LAWS = {
        "relative_entropy_off_by_1e-6": (MeasureSpec.relative_entropy(), lambda m, *args: (
            (1.0 + 1e-6) * m._row.scaling(m, *args))),
        "fidelity_off_by_1e-6": (MeasureSpec.fidelity(), lambda m, *args: (1.0 + 1e-6) * m._row.scaling(m, *args)),
        "fidelity_without_sqrt_k_k_prime": (MeasureSpec.fidelity(), lambda m, pt, base, k, kp: base),
        "relative_entropy_log_split": (MeasureSpec.relative_entropy(), lambda m, pt, base, k, kp: (
            k * base + 2.0 * k * float(np.real(np.trace(pt.rho.matrix))) * math.log(k))),
        "sandwiched_1.3_log_split": (MeasureSpec.sandwiched_renyi(1.3), lambda m, pt, base, k, kp: (
            base + (m.alpha / (m.alpha - 1.0) + 1.0) * math.log(k))),
    }

    @pytest.mark.parametrize("name", WRONG_LAWS)
    def test_wrong_law_is_caught(self, name):
        m, wrong = self.WRONG_LAWS[name]
        assert scaling_law_misses(m, wrong)


class TestBoundaryEvaluation:
    def test_relent_psd_matches_support_formula(self):
        rho = PsdOperator(HermitianOperator(np.diag([0.7, 0.3, 0.0]).astype(complex)))
        sigma = diag_positive([0.5, 0.3, 0.2])
        val = evaluate_psd(MeasureSpec.relative_entropy(), rho, sigma)
        expected = (
            0.7 * np.log(0.7) + 0.3 * np.log(0.3)
            - (0.7 * np.log(0.5) + 0.3 * np.log(0.3))
        )
        assert val == pytest.approx(expected, abs=1e-12)

    def test_full_rank_agrees_with_evaluate(self):
        g = gen(440)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        for m in measure_suite():
            if m.f_name == "neg_log":
                continue
            assert evaluate_psd(m, PsdOperator(rho.op), sigma) == pytest.approx(
                evaluate(m, rho, sigma), abs=1e-10
            ), m

    def test_neg_log_rejected_on_boundary(self):
        rho = PsdOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex)))
        sigma = diag_positive([0.5, 0.5])
        with pytest.raises(ValueError, match="extension"):
            evaluate_psd(MeasureSpec.f_divergence("neg_log"), rho, sigma)


RANKS = [(n, k) for n in range(3, 7) for k in range(1, n)]


class TestFidelityBoundaryGrad2:
    """The fidelity's second gradient is ``1/2 s^{-1/2} X^{1/2} s^{-1/2}`` on
    the core ``X = s^{1/2} r s^{1/2}``; at a rank-deficient rho it equals
    ``1/2 r^{1/2} (r^{1/2} s r^{1/2})^{+,-1/2} r^{1/2}``, with ``+`` the
    pseudo-inverse power on the support of rho."""

    @staticmethod
    def grad2_at(rho, sigma):
        from dpisat.divergences import _grad2, _Pair

        return _grad2(MeasureSpec.fidelity(), _Pair(rho, sigma))

    @pytest.mark.parametrize("n,rank", RANKS)
    def test_closed_form(self, n, rank):
        g = gen(600 + 10 * n + rank)
        rho, sigma = random_psd_rank(g, n, rank), random_positive(g, n)
        w, v = np.linalg.eigh(rho.matrix)
        w[:n - rank] = 0.0
        r_half = (v * np.sqrt(w)) @ v.conj().T
        wx, vx = np.linalg.eigh(r_half @ sigma.matrix @ r_half)
        inv_half = np.zeros(n)
        inv_half[n - rank:] = wx[n - rank:] ** -0.5
        expected = 0.5 * r_half @ ((vx * inv_half) @ vx.conj().T) @ r_half
        got = self.grad2_at(rho, sigma)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n,rank", RANKS)
    def test_central_differences_along_sigma(self, n, rank):
        m, g = MeasureSpec.fidelity(), gen(700 + 10 * n + rank)
        rho, sigma = random_psd_rank(g, n, rank), random_positive(g, n)
        oracle = calculus.numeric_gradient(lambda s: evaluate_psd(m, rho, PositiveOperator(s)), sigma.op)
        got = self.grad2_at(rho, sigma)
        assert np.linalg.norm(got - oracle.matrix) <= 1e-7 * np.linalg.norm(got)

    def test_full_rank_clamps_nothing(self):
        # At full rank no core eigenvalue is set to 0, so grad2 is the
        # ordinary closed form, and grad1 at the swapped pair by symmetry.
        from dpisat.divergences import _Pair

        g = gen(640)
        rho, sigma = random_positive(g, 4), random_positive(g, 4)
        pt = _Pair(rho, sigma)
        assert pt.kernel == 0
        x = pt.core(0.5, 1.0)[1]
        raw = np.linalg.eigh(x.matrix)[0]
        np.testing.assert_array_equal(x.eigensystem[0], np.maximum(raw, 0.0))
        got = grad2(MeasureSpec.fidelity(), rho, sigma).matrix
        expected = fidelity_grad2_closed_form(rho.matrix, sigma.matrix)
        swapped = grad1(MeasureSpec.fidelity(), sigma, rho).matrix
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.linalg.norm(got - swapped) <= 1e-13 * np.linalg.norm(swapped)


class TestMeasureJson:
    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_roundtrip(self, m):
        back = measure_from_json(measure_to_json(m))
        assert back.family == m.family
        assert back.alpha == m.alpha
        assert back.z == m.z
        assert back.f_name == m.f_name
        assert back.sign == m.sign

    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_roundtrip_with_allow_non_dpi(self, m):
        # Relative entropy and fidelity take no parameter, so they have no
        # data-processing region to leave and keep no flag.
        if m.family not in ("relative_entropy", "fidelity"):
            m = dataclasses.replace(m, allow_non_dpi=True)
        obj = measure_to_json(m)
        back = measure_from_json(json.loads(json.dumps(obj)))
        assert measure_to_json(back) == obj
        fields = ("family", "alpha", "z", "f_name", "sign", "allow_non_dpi")
        assert [getattr(back, f) for f in fields] == [getattr(m, f) for f in fields]

    def test_unknown_family(self):
        with pytest.raises(SchemaError, match="family"):
            measure_from_json({"family": "trace_distance"})

    def test_out_of_region_is_schema_error(self):
        with pytest.raises(SchemaError):
            measure_from_json({"family": "alpha_z", "alpha": 1.5, "z": 0.5})
        m = measure_from_json({"family": "alpha_z", "alpha": 1.5, "z": 0.5, "allow_non_dpi": True})
        assert m.allow_non_dpi

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}], ids=repr)
    def test_allow_non_dpi_must_be_a_bool(self, flag):
        obj = {"family": "sandwiched_renyi", "alpha": 0.2, "allow_non_dpi": flag}
        with pytest.raises(SchemaError) as info:
            measure_from_json(obj)
        assert info.value.path == "measure.allow_non_dpi"
        assert info.value.reason == f"expected true or false, got {flag!r}"

    def test_allow_non_dpi_bools(self):
        obj = {"family": "sandwiched_renyi", "alpha": 0.2}
        assert measure_from_json(dict(obj, allow_non_dpi=True)).allow_non_dpi
        with pytest.raises(SchemaError) as info:
            measure_from_json(dict(obj, allow_non_dpi=False))
        assert info.value.path == "measure"
