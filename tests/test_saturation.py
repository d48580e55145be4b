import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpisat.channels import (
    KrausChannel,
    adjoint_apply,
    apply,
    compose,
    dephasing_pinching,
    depolarizing,
    identity,
    partial_trace,
    unitary,
)
from dpisat.divergences import MeasureSpec, _grad1, _grad2, _value, evaluate, evaluate_psd, grad1, grad2
from dpisat.linalg import (
    HermitianOperator,
    HermiticityError,
    PositiveOperator,
    PositivityError,
    PsdOperator,
    frobenius,
    hermitize,
    hs_inner,
    log_cross,
    matrix_function,
    zeroth_power,
)
from dpisat.saturation import (
    BoundaryCaseError,
    ConverseViolationError,
    _alpha_z_crosscheck,
    _residual,
    alpha2_petz_residual,
    alpha_z_crosscheck,
    boundary_gap,
    boundary_residual_general,
    boundary_residual_relent,
    build_report,
    converse_certificate,
    dpi_gap,
    hiai_residual,
    normalized_sandwiched_residual,
    petz_map,
    report_to_json,
    residual1,
    residual2,
    tangent_membership,
    tangent_project,
    tangent_space_rank,
)

from _fixtures import (
    boundary_saturating_fixtures,
    classical_kl,
    count_eigh,
    depolarizing_fixture,
    diag_positive,
    diag_psd,
    fd_tangent_gradient,
    fidelity_grad2_closed_form,
    gen,
    ill_conditioned_partial_trace,
    isometric_embedding,
    measure_suite,
    random_cptp,
    random_hermitian,
    random_positive,
    random_psd_rank,
    random_unitary,
)


class TestDpiGap:
    def test_saturating_fixtures_have_zero_gap(self):
        from _fixtures import saturating_fixtures

        for label, c, rho, sigma in saturating_fixtures():
            for m in measure_suite():
                gap = dpi_gap(m, c, rho, sigma)
                assert abs(gap) <= 1e-10, (label, m)

    def test_depolarizing_gap_matches_classical_arithmetic(self):
        c, rho, sigma = depolarizing_fixture()
        gap = dpi_gap(MeasureSpec.relative_entropy(), c, rho, sigma)
        oracle = classical_kl([0.9, 0.1], [0.5, 0.5]) - classical_kl([0.7, 0.3], [0.5, 0.5])
        assert gap == pytest.approx(oracle, abs=1e-12)
        assert gap == pytest.approx(0.2857813286634453, abs=1e-12)

    def test_rank_deficient_routes_to_boundary(self):
        # A rank-deficient PsdOperator takes the boundary pairs in dpi_gap as
        # in boundary_gap; the same state as an array must be positive.
        rho = diag_psd([0.7, 0.3, 0.0])
        sigma = diag_positive([0.5, 0.3, 0.2])
        m, c = MeasureSpec.relative_entropy(), dephasing_pinching(3)
        assert dpi_gap(m, c, rho, sigma) == boundary_gap(m, c, rho, sigma)
        assert abs(dpi_gap(m, c, rho, sigma)) <= 1e-12
        with pytest.raises(BoundaryCaseError):
            dpi_gap(m, c, rho.matrix, sigma)

    def test_boundary_advice_only_for_a_singular_rho(self):
        # Every function takes a rank-deficient rho given as a PsdOperator,
        # but needs sigma and L(sigma) strictly positive. A full-rank rho has
        # L(rho) >= c L(sigma), so a singular L(sigma) is named first.
        m, sigma = MeasureSpec.relative_entropy(), diag_positive([0.5, 0.3, 0.2])
        singular = np.diag([0.7, 0.3, 0.0]).astype(complex)
        for rho in (singular, HermitianOperator(singular)):
            with pytest.raises(BoundaryCaseError,
                               match=r"^rho is not strictly positive .*; pass a rank-deficient rho as a PsdOperator$"):
                dpi_gap(m, dephasing_pinching(3), rho, sigma)
        embed = isometric_embedding()
        for rho, sig, what in ((diag_positive([0.6, 0.4]), diag_positive([0.3, 0.7]), "channel image of sigma"),
                               (diag_positive([0.6, 0.4]), diag_psd([1.0, 0.0]), "sigma")):
            with pytest.raises(BoundaryCaseError, match=rf"^{what} is not strictly positive") as info:
                dpi_gap(m, embed, rho, sig)
            assert "pass a rank-deficient rho" not in str(info.value)

    def test_boundary_gap_extension(self):
        rho = diag_psd([0.7, 0.3, 0.0])
        sigma = diag_positive([0.5, 0.3, 0.2])
        gap = boundary_gap(MeasureSpec.relative_entropy(), dephasing_pinching(3), rho, sigma)
        assert gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tail", [-1e-8, 1e-8])
    def test_image_keeps_the_zero_threshold_of_rho(self, tail):
        # A trace-preserving channel keeps tr L(rho) = tr rho, so L(rho) is
        # snapped at rho's own threshold; the identity's image is rho itself.
        rho = PsdOperator(HermitianOperator(np.diag([5e7, 5e7, tail]).astype(complex)), zero_tol=1e-2)
        sigma = diag_positive([3e7, 5e7, 2e7])
        assert rho.rank == 2
        assert boundary_gap(MeasureSpec.relative_entropy(), identity(3), rho, sigma) == 0.0

    def test_unitary_boundary_gap_vanishes_for_spectral_families(self):
        # A unitary saturates exactly. The kernel of rho must stay an exact
        # zero of each core: roundoff there, raised to a power below 1,
        # reached 1e-3 for alpha_z(0.3, 2).
        from _fixtures import random_unitary
        from dpisat.channels import unitary

        specs = [MeasureSpec.alpha_z(a, z) for a, z in ((0.3, 2.0), (0.5, 1.0), (0.6, 0.6), (0.7, 0.9))]
        specs += [m for m in measure_suite() if m.family in ("fidelity", "sandwiched_renyi", "alpha_z")]
        for seed in range(20):
            g = gen(seed)
            rho, sigma = random_psd_rank(g, 4, 2), random_positive(g, 4)
            c = unitary(random_unitary(g, 4))
            for m in specs:
                assert abs(boundary_gap(m, c, rho, sigma)) <= 1e-12, (seed, m.family, m.alpha, m.z)


class TestResiduals:
    def test_saturating_fixtures_residuals_vanish(self):
        from _fixtures import saturating_fixtures

        for label, c, rho, sigma in saturating_fixtures():
            for m in measure_suite():
                n1 = frobenius(residual1(m, c, rho, sigma))
                assert n1 <= 1e-8, (label, m, n1)
                n2 = frobenius(residual2(m, c, rho, sigma))
                assert n2 <= 1e-8, (label, m, n2)

    def test_relent_pinching_both_sides_independently(self):
        # log r - log s == L*(log Lr - log Ls) evaluated from scratch on both
        # sides (the adjoint of a pinching is the pinching itself).
        c = dephasing_pinching(3)
        rho, sigma = diag_positive([0.5, 0.3, 0.4]), diag_positive([0.2, 0.9, 0.35])
        lhs = (
            matrix_function(rho.op, np.log).matrix
            - matrix_function(sigma.op, np.log).matrix
        )
        inner = (
            matrix_function(apply(c, rho.op), np.log).matrix
            - matrix_function(apply(c, sigma.op), np.log).matrix
        )
        rhs = adjoint_apply(c, HermitianOperator(inner)).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-9
        n1 = frobenius(residual1(MeasureSpec.relative_entropy(), c, rho, sigma))
        assert n1 <= 1e-9

    def test_depolarizing_residual_is_large(self):
        c, rho, sigma = depolarizing_fixture()
        n1 = frobenius(residual1(MeasureSpec.relative_entropy(), c, rho, sigma))
        assert n1 > 0.1
        n2 = frobenius(residual2(MeasureSpec.relative_entropy(), c, rho, sigma))
        assert n2 > 1e-3

    def test_fidelity_residual2_is_swapped_residual1(self):
        # F is symmetric, so residual2(r, s) = residual1(s, r); both match the
        # closed form of grad2 taken by plain numpy eigensolves.
        g = gen(500)
        c = depolarizing(3, 0.4)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        m = MeasureSpec.fidelity()
        lhs = residual2(m, c, rho, sigma).matrix
        rhs = residual1(m, c, sigma, rho).matrix
        r_out, s_out = apply(c, rho.op).matrix, apply(c, sigma.op).matrix
        inner = adjoint_apply(c, hermitize(fidelity_grad2_closed_form(r_out, s_out))).matrix
        expected = fidelity_grad2_closed_form(rho.matrix, sigma.matrix) - inner
        assert np.linalg.norm(lhs - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_normalized_sandwiched_residual(self):
        from _fixtures import saturating_fixtures

        label, c, rho, sigma = saturating_fixtures()[1]  # pinching fixture
        res = normalized_sandwiched_residual(c, rho, sigma, alpha=2.0)
        assert frobenius(res) <= 1e-10
        c_dep, rho_d, sigma_d = depolarizing_fixture()
        with pytest.raises(ValueError, match="saturation"):
            normalized_sandwiched_residual(c_dep, rho_d, sigma_d, alpha=2.0)

    def test_detection_power_probe(self):
        # Gap > 1e-3 should come with a visible residual. A miss is logged,
        # not asserted: only the forward direction is guaranteed in general.
        g = gen(501)
        m = MeasureSpec.relative_entropy()
        checked = 0
        misses = []
        while checked < 100:
            c = random_cptp(g, 3, 2)
            rho, sigma = random_positive(g, 3), random_positive(g, 3)
            gap = dpi_gap(m, c, rho, sigma)
            if gap <= 1e-3:
                continue
            checked += 1
            n1 = frobenius(residual1(m, c, rho, sigma))
            if n1 <= 1e-6:
                misses.append((gap, n1))
        if misses:
            warnings.warn(f"residual1 missed {len(misses)} non-saturating draws: {misses[:3]}")


class TestConverse:
    def test_scaling_law_families_certify(self):
        from _fixtures import saturating_fixtures

        label, c, rho, sigma = saturating_fixtures()[1]
        for m in (
            MeasureSpec.relative_entropy(),
            MeasureSpec.fidelity(),
            MeasureSpec.sandwiched_renyi(2.0),
            MeasureSpec.alpha_z(1.5, 1.2),
        ):
            cert = converse_certificate(m, c, rho, sigma)
            assert cert.scaling_verified
            assert cert.implied_gap_zero
            assert abs(cert.gap) <= 1e-8

    def test_partial_trace_product_additivity(self):
        # D(rho_A x tau || sigma_A x tau) equals D(rho_A || sigma_A), so the
        # traced-out factor saturates; both values computed independently.
        g = gen(510)
        rho_a, sigma_a = random_positive(g, 2), random_positive(g, 2)
        tau = random_positive(g, 2)
        tau_m = tau.matrix / np.trace(tau.matrix).real
        rho = PositiveOperator(HermitianOperator(np.kron(rho_a.matrix, tau_m)))
        sigma = PositiveOperator(HermitianOperator(np.kron(sigma_a.matrix, tau_m)))
        m = MeasureSpec.relative_entropy()
        joint = evaluate(m, rho, sigma)
        reduced = evaluate(m, rho_a, sigma_a)
        assert joint == pytest.approx(reduced, abs=1e-10)
        cert = converse_certificate(m, partial_trace(2, 2, "a"), rho, sigma)
        assert cert.implied_gap_zero

    def test_non_saturating_reports_without_asserting(self):
        c, rho, sigma = depolarizing_fixture()
        cert = converse_certificate(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert cert.residual1_norm > 0.1
        assert not cert.implied_gap_zero

    def test_refuses_f_divergence(self):
        c, rho, sigma = depolarizing_fixture()
        with pytest.raises(ValueError, match="scaling law"):
            converse_certificate(MeasureSpec.f_divergence("x_log_x"), c, rho, sigma)

    def test_violation_raises(self):
        # residual_tol = 10 calls the residual of 1.39 vanishing; the gap is 0.286.
        c, rho, sigma = depolarizing_fixture()
        message = r"residual norm 1\.39\de\+00 <= 1\.0e\+01 but \|gap\| = 2\.858e-01"
        with pytest.raises(ConverseViolationError, match=message):
            converse_certificate(MeasureSpec.relative_entropy(), c, rho, sigma, residual_tol=10.0)

    def test_no_law_is_refused_before_any_eigensolve(self, monkeypatch):
        # Arrays, not operators: reading a state would eigensolve it.
        rho, sigma = np.diag([0.9, 0.1]).astype(complex), np.diag([0.5, 0.5]).astype(complex)
        calls = count_eigh(monkeypatch)
        with pytest.raises(ValueError, match="family 'f_divergence' has no verified scaling law"):
            converse_certificate(MeasureSpec.f_divergence("chi_square"), depolarizing(2, 0.5), rho, sigma)
        assert calls == []


class TestEulerIdentity:
    """An oracle for both gradients of every family, from Euler's theorem.

    A jointly 1-homogeneous B (relative entropy, fidelity, the f-divergences)
    has ``B(r, s) = <r, grad1 B> + <s, grad2 B>``; with ``<r, L*G> = <L r, G>``
    the report's residuals give ``sign gap = <r, R1> + <s, R2>`` exactly. A
    Renyi D = log Q / (a - 1) has ``<r, grad1 D> + <s, grad2 D> = 1/(a - 1)`` on
    both pairs, so its residuals pair to 0 whatever the gradients; the
    quasi-entropy Q is 1-homogeneous, and its gradients ``(a - 1) Q grad D``
    give ``Q - Q' = <r, R1^Q> + <s, R2^Q>``. No finite difference is taken.

    The identity sees each gradient through its pairing with its own state
    only: a change that pairs to the same number on both pairs passes, such
    as a multiple of the identity added to the relative entropy's grad2,
    whose pairing with s is tr s on both sides of a trace-preserving L."""

    CHANNELS = [
        (depolarizing(4, 0.3), 4),
        (depolarizing(5, 0.6), 5),
        (partial_trace(2, 3, "a"), 6),
        (partial_trace(3, 2, "b"), 6),
    ]

    @staticmethod
    def euler_sides(m, c, rho, sigma):
        """Both sides of the identity for the report of ``(m, c, rho, sigma)``."""
        rep = build_report(m, c, rho, sigma, with_petz=False)
        if not m._row.renyi:
            return m.sign * rep.gap, hs_inner(rho, rep.residual1) + hs_inner(sigma, rep.residual2)
        a = m._row.point(m)[0]

        def quasi(p):
            return math.exp((a - 1.0) * _value(m, p))

        def side(grad, p):
            return (a - 1.0) * quasi(p) * grad(m, p)

        pt, pt_out = rep.pairs
        r1, r2 = (hermitize(_residual(c, partial(side, grad), pt, pt_out)) for grad in (_grad1, _grad2))
        return quasi(pt) - quasi(pt_out), hs_inner(rho, r1) + hs_inner(sigma, r2)

    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_full_rank(self, m):
        g = gen(450)
        for c, n in self.CHANNELS:
            lhs, rhs = self.euler_sides(m, c, random_positive(g, n), random_positive(g, n))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (c.dim_in, lhs, rhs)

    @pytest.mark.parametrize("m", [m for m in measure_suite() if not m._row.renyi and m.f_name != "neg_log"],
                             ids=str)
    @pytest.mark.parametrize("rank", [2, 3])
    def test_rank_deficient_rho(self, m, rank):
        # residual1 is the tangent residual; <r, .> does not see the
        # kernel-kernel block that the tangent projection drops.
        g = gen(451)
        for c, n in self.CHANNELS:
            rho = random_psd_rank(g, n, rank)
            lhs, rhs = self.euler_sides(m, c, rho, random_positive(g, n))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (c.dim_in, lhs, rhs)


class TestTangentSpace:
    def test_full_rank_projection_is_identity(self):
        g = gen(520)
        rho = PsdOperator(random_positive(g, 3).op)
        m = random_hermitian(g, 3)
        out = tangent_project(rho, m)
        assert np.linalg.norm(out.matrix - m.matrix) <= 1e-12

    def test_off_diagonal_block_survives(self):
        rho = diag_psd([1.0, 0.0])
        sigma_x = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
        out = tangent_project(rho, sigma_x)
        assert np.linalg.norm(out.matrix - sigma_x.matrix) <= 1e-14

    def test_kernel_block_is_killed(self):
        rho = diag_psd([1.0, 0.0])
        m = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        out = tangent_project(rho, m)
        assert np.linalg.norm(out.matrix) <= 1e-14

    def test_non_hermitian_operand_is_refused(self):
        # Its kernel block [[0]] is zero, so the block alone would call it tangent.
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(HermiticityError):
            tangent_membership(diag_psd([1.0, 0.0]), m)
        with pytest.raises(HermiticityError):
            tangent_project(diag_psd([1.0, 0.0]), m)

    def test_idempotent_and_orthogonal(self):
        g = gen(521)
        rho = random_psd_rank(g, 4, 2)
        m = random_hermitian(g, 4)
        once = tangent_project(rho, m)
        twice = tangent_project(rho, once)
        assert np.linalg.norm(once.matrix - twice.matrix) <= 1e-12
        complement = HermitianOperator(m.matrix - once.matrix)
        assert abs(hs_inner(complement, once)) <= 1e-10

    def test_membership_full_rank(self):
        g = gen(522)
        rho = PsdOperator(random_positive(g, 3).op)
        assert tangent_membership(rho, random_hermitian(g, 3))

    def test_shape_mismatch_is_named_alike(self):
        g = gen(525)
        rho, m = random_psd_rank(g, 4, 2), random_hermitian(g, 3)
        for check in (tangent_project, tangent_membership):
            with pytest.raises(ValueError, match=r"^dimension mismatch: \(3, 3\) vs \(4, 4\)$"):
                check(rho, m)

    def test_membership_kernel_projector_fails(self):
        g = gen(523)
        rho = random_psd_rank(g, 3, 2)
        null_vec = rho.eigenvectors[:, 0]
        proj = HermitianOperator(np.outer(null_vec, null_vec.conj()))
        assert not tangent_membership(rho, proj)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_generator_form_is_tangent(self, seed):
        # M = D rho + rho D^H lies in the tangent space for any linear D.
        g = gen(seed)
        rho = random_psd_rank(g, 4, 2)
        delta = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
        m = delta @ rho.matrix + rho.matrix @ delta.conj().T
        assert tangent_membership(rho, HermitianOperator(m, herm_tol=1e-8))

    def test_tangent_dimension(self):
        g = gen(524)
        for n in (3, 4):
            for k in (1, 2):
                rho = random_psd_rank(g, n, n - k)
                assert tangent_space_rank(rho) == n * n - k * k


def _boundary_residuals_by_hand(c, pt, pt_out):
    """The relative entropy's three boundary residuals on the pairs
    ``(pt, pt_out)``, each a separate product per call: the zeros-log
    residual ``logx(r) - log(s)|_rest - L*(...)|_rest``, the tangent-space
    gradient residual and Hiai's asymmetric one."""
    from dpisat.channels import _act_adjoint
    from dpisat.linalg import _logm

    def tangent(rho, m):
        q = np.eye(rho.dim) - zeroth_power(rho).matrix
        return m - q @ m @ q

    def extended(p):
        q = np.eye(p.rho.dim) - zeroth_power(p.rho).matrix
        log_sigma = _logm(p.sigma)
        return hermitize(log_cross(p.rho).matrix - log_sigma + q @ log_sigma @ q
                         + zeroth_power(p.rho).matrix)

    lhs = log_cross(pt.rho).matrix - tangent(pt.rho, _logm(pt.sigma))
    inner = log_cross(pt_out.rho).matrix - tangent(pt_out.rho, _logm(pt_out.sigma))
    relent = hermitize(lhs - tangent(pt.rho, adjoint_apply(c, hermitize(inner)).matrix))
    back = adjoint_apply(c, extended(pt_out)).matrix
    general = hermitize(extended(pt).matrix - tangent(pt.rho, back))

    def side(p):
        return log_cross(p.rho).matrix - _logm(p.sigma) @ zeroth_power(p.rho).matrix

    return relent, general, side(pt) - _act_adjoint(c, side(pt_out))


class TestBoundaryResiduals:
    def test_saturating_rank_deficient_fixtures_vanish(self):
        for label, c, rho, sigma in boundary_saturating_fixtures():
            assert frobenius(boundary_residual_relent(c, rho, sigma)) <= 1e-8, label
            m = MeasureSpec.relative_entropy()
            assert frobenius(boundary_residual_general(m, c, rho, sigma)) <= 1e-8, label
            assert np.linalg.norm(hiai_residual(c, rho, sigma)) <= 1e-8, label

    def test_depolarizing_rank_deficient_nonzero(self):
        rho = diag_psd([0.7, 0.3, 0.0])
        sigma = diag_positive([0.5, 0.3, 0.2])
        c = depolarizing(3, 0.4)
        assert frobenius(boundary_residual_relent(c, rho, sigma)) > 1e-2
        assert boundary_gap(MeasureSpec.relative_entropy(), c, rho, sigma) > 1e-3

    def test_zeros_log_residual_is_the_tangent_residual_via_support_lemma(self):
        # For trace-preserving L, <rho, L*(Q')> = tr(L(rho) Q') = 0 puts the
        # PSD operator L*(Q') on the kernel of rho, so the tangent projection
        # of L*(P') = 1 - L*(Q') is P: the zeros-log residual, built here by
        # hand, is the relative entropy's tangent-space gradient residual,
        # which boundary_residual_general (and so boundary_residual_relent)
        # returns.
        from dpisat.saturation import _pairs

        def error_and_norm(c, rho, sigma):
            expected = _boundary_residuals_by_hand(c, *_pairs(c, rho, sigma))[0].matrix
            res = boundary_residual_general(MeasureSpec.relative_entropy(), c, rho, sigma)
            return frobenius(res.matrix - expected), frobenius(expected)

        g = gen(531)
        # Non-saturating draws: depolarizing at n = 2..6 and random 3-Kraus
        # channels at n = 4, over ranks 1..n-1.
        draws = [(depolarizing(n, g.uniform(0.1, 0.9)), n, 1 + i % (n - 1)) for n in range(2, 7) for i in range(12)]
        draws += [(random_cptp(g, 4, 4), 4, 1 + i % 3) for i in range(40)]
        for c, n, rank in draws:
            error, norm = error_and_norm(c, random_psd_rank(g, n, rank), random_positive(g, n))
            assert norm > 1e-3 and error <= 1e-13 * norm, (c.dim_in, rank)
        # Saturating (identity) or not, on the channels of the fixtures.
        g = gen(534)
        cases = [(c, random_psd_rank(g, 3, 2), random_positive(g, 3))
                 for c in (depolarizing(3, 0.4), dephasing_pinching(3), identity(3))]
        for c in (dephasing_pinching(4), partial_trace(2, 2, "a"), depolarizing(4, 0.3)):
            cases += [(c, random_psd_rank(g, 4, 2), random_positive(g, 4)) for _ in range(3)]
        for c, rho, sigma in cases:
            assert error_and_norm(c, rho, sigma)[0] <= 1e-13, c

    def test_support_lemma_directly(self):
        # rho^0 L*(L(rho)^0) rho^0 recovers rho^0 for CPTP maps.
        g = gen(532)
        rho = random_psd_rank(g, 3, 2)
        for c in (depolarizing(3, 0.4), random_cptp(g, 3, 2)):
            p_in = zeroth_power(rho).matrix
            p_out = zeroth_power(PsdOperator(apply(c, rho.op))).matrix
            back = adjoint_apply(c, HermitianOperator(p_out)).matrix
            assert np.linalg.norm(p_in @ back - p_in) <= 1e-9, c

    def test_boundary_general_full_rank_reduction_all_families(self):
        g = gen(533)
        c = depolarizing(3, 0.3)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        for m in [m for m in measure_suite() if m.family != "f_divergence"]:
            gen_res = boundary_residual_general(m, c, PsdOperator(rho.op), sigma)
            ref = residual1(m, c, rho, sigma)
            assert np.linalg.norm(gen_res.matrix - ref.matrix) <= 1e-9, m

    def test_boundary_fd_path_on_saturating_fixture(self):
        # A loose bound; TestTangentGradient holds every family to 1e-10.
        label, c, rho, sigma = boundary_saturating_fixtures()[0]
        for m in (MeasureSpec.fidelity(), MeasureSpec.sandwiched_renyi(2.0)):
            res = boundary_residual_general(m, c, rho, sigma)
            assert frobenius(res) <= 1e-3, m

    def test_boundary_fd_rejects_undefined_family(self):
        label, c, rho, sigma = boundary_saturating_fixtures()[0]
        with pytest.raises(ValueError):
            boundary_residual_general(MeasureSpec.f_divergence("neg_log"), c, rho, sigma)

    def test_pinching_diagonal_zeros_log_value(self):
        # Closed-form check of the left side: diag(log(0.7/0.5), 0, 0).
        rho = diag_psd([0.7, 0.3, 0.0])
        sigma = diag_positive([0.5, 0.3, 0.2])
        p = zeroth_power(rho).matrix
        q = np.eye(3) - p
        lhs = log_cross(rho).matrix - (
            matrix_function(sigma.op, np.log).matrix
            - q @ matrix_function(sigma.op, np.log).matrix @ q
        )
        np.testing.assert_allclose(
            lhs, np.diag([np.log(0.7 / 0.5), 0.0, 0.0]), atol=1e-12
        )


class TestPetz:
    def test_identity_channel_gives_identity_map(self):
        g = gen(540)
        sigma = random_positive(g, 3)
        recovery = petz_map(sigma, identity(3))
        a = random_hermitian(g, 3)
        assert np.linalg.norm(apply(recovery, a).matrix - a.matrix) <= 1e-12

    def test_sigma_always_recovered(self):
        from _fixtures import saturating_fixtures

        g = gen(541)
        cases = [(c, sigma) for _, c, _, sigma in saturating_fixtures()]
        cases.append((depolarizing_fixture()[0], depolarizing_fixture()[2]))
        cases.append((random_cptp(g, 3, 2), random_positive(g, 3)))
        for c, sigma in cases:
            recovery = petz_map(sigma, c)
            out = apply(recovery, apply(c, sigma.op))
            assert np.linalg.norm(out.matrix - sigma.matrix) <= 1e-9

    def test_saturating_fixtures_recover_rho(self):
        from _fixtures import saturating_fixtures

        for label, c, rho, sigma in saturating_fixtures():
            recovery = petz_map(sigma, c)
            out = apply(recovery, apply(c, rho.op))
            assert np.linalg.norm(out.matrix - rho.matrix) <= 1e-9, label

    def test_alpha2_residual_zero_for_equal_states(self):
        g = gen(542)
        c = depolarizing(3, 0.4)
        rho = random_positive(g, 3)
        assert frobenius(alpha2_petz_residual(c, rho, rho)) <= 1e-12

    def test_alpha2_residual_matches_prefactored_gradient_residual(self):
        # residual1 at alpha=2 decomposes into the Petz condition pieces with
        # the scalar prefactors 2 / tr[(s^-1/4 r s^-1/4)^2] on each side.
        g = gen(543)
        c = depolarizing(3, 0.4)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        m = MeasureSpec.sandwiched_renyi(2.0)

        def pieces(r, s):
            ws, vs = np.linalg.eigh(s.matrix)
            s_g = (vs * ws ** -0.25) @ vs.conj().T
            x = s_g @ r.matrix @ s_g
            trace = np.trace(x @ x).real
            s_half_inv = (vs * ws ** -0.5) @ vs.conj().T
            return 2.0 / trace, s_half_inv @ r.matrix @ s_half_inv

        c1, lhs = pieces(rho, sigma)
        rho_out = PositiveOperator(apply(c, rho.op))
        sigma_out = PositiveOperator(apply(c, sigma.op))
        c2, inner = pieces(rho_out, sigma_out)
        manual = c1 * lhs - c2 * adjoint_apply(c, HermitianOperator(inner, herm_tol=1e-8)).matrix
        actual = residual1(m, c, rho, sigma)
        assert np.linalg.norm(actual.matrix - manual) <= 1e-10

    def test_alpha2_equivalence_across_fixture_suite(self):
        from _fixtures import saturating_fixtures

        cases = list(saturating_fixtures())
        cases.append(("depolarizing",) + depolarizing_fixture())
        for label, c, rho, sigma in cases:
            res = frobenius(alpha2_petz_residual(c, rho, sigma))
            recovery = petz_map(sigma, c)
            err = np.linalg.norm(apply(recovery, apply(c, rho.op)).matrix - rho.matrix)
            assert (res <= 1e-8) == (err <= 1e-7), (label, res, err)

    def test_petz_map_rejects_rank_deficient_image(self):
        # A measure-and-prepare channel into a larger space leaves part of
        # the output space unreachable, so the image of sigma is singular.
        from dpisat.channels import measure_prepare

        povm = [np.eye(2, dtype=complex)]
        state = np.zeros((3, 3), dtype=complex)
        state[0, 0] = 1.0
        c = measure_prepare(povm, [state])
        sigma = diag_positive([0.5, 0.5])
        with pytest.raises(Exception, match="rank deficient"):
            petz_map(sigma, c)

    @pytest.mark.parametrize("c,eigh", [(depolarizing(4, 0.3), 0), (partial_trace(2, 2, "a"), 1)],
                             ids=["depolarizing", "partial_trace"])
    def test_petz_map_eigensolves_only_an_image_of_unknown_eigensystem(self, monkeypatch, c, eigh):
        sigma = random_positive(gen(544), 4)
        calls = count_eigh(monkeypatch)
        petz_map(sigma, c)
        assert len(calls) == eigh

    def test_petz_map_rank_deficient_image_is_a_positivity_error(self):
        from dpisat.channels import measure_prepare

        state = np.diag([1.0, 0.0, 0.0]).astype(complex)
        c = measure_prepare([np.eye(2, dtype=complex)], [state])
        with pytest.raises(PositivityError, match=r"^channel image of sigma is rank deficient: operator is not"):
            petz_map(diag_positive([0.5, 0.5]), c)


class TestAlphaZCrosscheck:
    def test_unitary_all_vanish(self):
        from _fixtures import random_unitary
        from dpisat.channels import unitary

        g = gen(550)
        c = unitary(random_unitary(g, 3))
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        res = alpha_z_crosscheck(c, rho, sigma, alpha=1.5, z=1.2)
        assert res.gradient_residual <= 1e-10
        assert res.chehade_residual <= 1e-10
        assert res.zhang_residual <= 1e-10

    def test_pinching_diagonal_all_vanish(self):
        c = dephasing_pinching(3)
        rho, sigma = diag_positive([0.5, 0.3, 0.4]), diag_positive([0.2, 0.9, 0.35])
        for alpha, z in ((0.7, 0.9), (1.5, 1.2), (2.5, 2.0)):
            res = alpha_z_crosscheck(c, rho, sigma, alpha=alpha, z=z)
            assert max(res.gradient_residual, res.chehade_residual, res.zhang_residual) <= 1e-10

    def test_depolarizing_all_detect(self):
        g = gen(551)
        c = depolarizing(3, 0.4)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        res = alpha_z_crosscheck(c, rho, sigma, alpha=1.5, z=1.2)
        assert res.gradient_residual > 1e-3
        assert res.chehade_residual > 1e-3
        assert res.zhang_residual > 1e-3


class TestReport:
    def test_saturating_report(self):
        from _fixtures import saturating_fixtures

        label, c, rho, sigma = saturating_fixtures()[1]
        rep = build_report(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert rep.saturated
        assert rep.residual1_frobenius <= rep.residual_tol
        assert rep.petz_recovery_error_rho <= 1e-9
        out = report_to_json(rep, include_matrices=True)
        assert out["schema_version"] == "v1"
        assert out["saturated"] is True
        assert "residual1" in out

    def test_images_are_the_report_pair(self):
        c, rho, sigma = depolarizing_fixture()
        rep = build_report(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert rep.rho_out is rep.pairs[1].rho and rep.sigma_out is rep.pairs[1].sigma
        for out, state in ((rep.rho_out, rho), (rep.sigma_out, sigma)):
            np.testing.assert_array_equal(out.matrix, apply(c, state).matrix)
        bare = dataclasses.replace(rep, pairs=None)
        assert bare.rho_out is None and bare.sigma_out is None

    def test_non_saturating_report(self):
        c, rho, sigma = depolarizing_fixture()
        rep = build_report(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert not rep.saturated
        assert rep.gap == pytest.approx(0.2857813286634453, abs=1e-12)
        assert rep.petz_recovery_error_sigma <= 1e-9
        assert rep.petz_recovery_error_rho > 1e-3


class TestSinglePassReport:
    """build_report takes each channel image once and evaluates the Petz
    recovery through the adjoint, with no recovery KrausChannel."""

    @staticmethod
    def _cases():
        g = gen(570)
        wide = random_cptp(g, 4, 4, n_kraus=7)  # Kraus rank above the dimension
        yield "random_cptp", wide, random_positive(g, 4), random_positive(g, 4)
        yield "depolarizing", depolarizing(6, 0.4), random_positive(g, 6), random_positive(g, 6)

    def test_two_applies_four_adjoints_no_recovery_channel(self, monkeypatch):
        import dpisat.saturation as sat
        from dpisat.channels import KrausChannel

        _, c, rho, sigma = next(self._cases())
        calls = {"apply": 0, "_act_adjoint": 0, "KrausChannel": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sat, "apply", counted("apply", sat.apply))
        monkeypatch.setattr(sat, "_act_adjoint", counted("_act_adjoint", sat._act_adjoint))
        monkeypatch.setattr(
            KrausChannel, "__post_init__", counted("KrausChannel", KrausChannel.__post_init__)
        )
        build_report(MeasureSpec.relative_entropy(), c, rho, sigma, with_petz=True)
        assert calls == {"apply": 2, "_act_adjoint": 4, "KrausChannel": 0}

    def test_agrees_with_standalone_functions(self):
        for label, c, rho, sigma in self._cases():
            recovery = petz_map(sigma, c)
            err_rho = np.linalg.norm(apply(recovery, apply(c, rho.op)).matrix - rho.matrix)
            err_sigma = np.linalg.norm(apply(recovery, apply(c, sigma.op)).matrix - sigma.matrix)
            for m in measure_suite():
                rep = build_report(m, c, rho, sigma)
                assert rep.gap == pytest.approx(dpi_gap(m, c, rho, sigma), abs=1e-12), label
                for res, func in ((rep.residual1, residual1), (rep.residual2, residual2)):
                    diff = res.matrix - func(m, c, rho, sigma).matrix
                    assert np.linalg.norm(diff) <= 1e-12, (label, m)
                assert rep.petz_recovery_error_rho == pytest.approx(err_rho, abs=1e-12), label
                assert rep.petz_recovery_error_sigma == pytest.approx(err_sigma, abs=1e-12), label
                assert rep.petz_recovery_error_sigma <= 1e-9, label

    def test_ill_conditioned_image_raises_recovery_tp_error(self):
        from _fixtures import random_unitary
        from dpisat.channels import unitary

        g = gen(571)
        v = random_unitary(g, 3)
        sigma = PositiveOperator(
            HermitianOperator(v @ np.diag([0.6, 0.4, 1e-12]) @ v.conj().T, herm_tol=1e-8)
        )
        c = unitary(random_unitary(g, 3))
        rho = random_positive(g, 3)
        message = r"Petz recovery map is not trace preserving: \|\|\(Ls\)\^\{-1/2\} L\(s\) \(Ls\)\^\{-1/2\} - I\|\|_F = "
        with pytest.raises(ValueError, match=message):
            petz_map(sigma, c)
        with pytest.raises(ValueError, match=message):
            build_report(MeasureSpec.relative_entropy(), c, rho, sigma)
        rep = build_report(MeasureSpec.relative_entropy(), c, rho, sigma, with_petz=False)
        assert rep.petz_recovery_error_rho is None

    def test_f_divergence_calls_f_and_f_prime_once_per_entry(self):
        # The value and both gradients share each pair's table of f(p_a/mu_k)
        # and f'(p_a/mu_k): one call per entry of the n x n ratio table.
        from dpisat.calculus import X_LOG_X, ScalarFunctionPair

        calls = {"f": 0, "f_prime": 0}

        def counted(name, func):
            def wrapper(x):
                calls[name] += 1
                return func(x)
            return wrapper

        pair = ScalarFunctionPair("counted_x_log_x", counted("f", X_LOG_X.f), counted("f_prime", X_LOG_X.f_prime),
                                  domain=X_LOG_X.domain, value_at_zero=X_LOG_X.value_at_zero)
        m = MeasureSpec.f_divergence(pair, caller_asserted=True)
        for _, c, rho, sigma in self._cases():
            calls.update(f=0, f_prime=0)  # the pair's self-check at construction called both
            rep = build_report(m, c, rho, sigma)
            entries = 2 * rho.dim ** 2  # (rho, sigma) and its image, both n x n here
            assert calls == {"f": entries, "f_prime": entries}
            ref = build_report(MeasureSpec.f_divergence("x_log_x"), c, rho, sigma)
            assert (rep.gap, rep.residual1_frobenius, rep.residual2_frobenius) == (
                ref.gap, ref.residual1_frobenius, ref.residual2_frobenius)


# Every spec with a value on the boundary, that is with f(0+).
BOUNDARY_SPECS = [m for m in measure_suite() if m.f_name != "neg_log"]


def _tangent_grad(m, rho, sigma) -> np.ndarray:
    from dpisat.divergences import _grad1, _Pair

    return _grad1(m, _Pair(rho, sigma))


class TestTangentGradient:
    """The closed-form gradient on the tangent space of the PSD cone, for
    every family with a value on the boundary."""

    @pytest.mark.parametrize("m", BOUNDARY_SPECS, ids=str)
    def test_matches_finite_difference_oracle(self, m):
        # The oracle's O(h) bias shrinks linearly with the step.
        g = gen(590)
        for rank in (1, 2, 3):
            rho, sigma = random_psd_rank(g, 4, rank), random_positive(g, 4)
            closed = _tangent_grad(m, rho, sigma)
            for h, bound in ((1e-5, 1e-3), (1e-6, 1e-4)):
                oracle = fd_tangent_gradient(m, rho, sigma, h)
                assert np.linalg.norm(closed - oracle) <= bound * np.linalg.norm(closed), (rank, h)

    @pytest.mark.parametrize("m", BOUNDARY_SPECS, ids=str)
    def test_is_tangent(self, m):
        g = gen(591)
        rho, sigma = random_psd_rank(g, 4, 2), random_positive(g, 4)
        assert tangent_membership(rho, _tangent_grad(m, rho, sigma), tol=1e-12)

    @pytest.mark.parametrize("m", BOUNDARY_SPECS, ids=str)
    def test_residual_vanishes_on_saturating_fixtures(self, m):
        for label, c, rho, sigma in boundary_saturating_fixtures():
            assert frobenius(boundary_residual_general(m, c, rho, sigma)) <= 1e-10, label

    def test_neg_log_has_no_boundary_gradient(self):
        m = MeasureSpec.f_divergence("neg_log")
        for label, c, rho, sigma in boundary_saturating_fixtures():
            with pytest.raises(ValueError, match="no continuous extension at 0"):
                boundary_residual_general(m, c, rho, sigma)

    @pytest.mark.parametrize("m", measure_suite(), ids=str)
    def test_full_rank_psd_is_the_ordinary_gradient(self, m):
        from dpisat.divergences import grad1

        g = gen(592)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        np.testing.assert_array_equal(
            _tangent_grad(m, PsdOperator(rho.op), sigma), grad1(m, rho, sigma).matrix
        )

    def test_rank_one_fidelity(self):
        # On the rank-one stratum F(r, s) = sqrt(tr(r s)), so at r = |v><v|
        # the tangent gradient is the projection of s / (2 sqrt(<v|s|v>)):
        # for v = e_0, the first row and column of s over 2 sqrt(s_00).
        sigma = HermitianOperator(np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05j], [0.0, -0.05j, 0.2]]))
        got = _tangent_grad(MeasureSpec.fidelity(), diag_psd([1.0, 0.0, 0.0]), PositiveOperator(sigma))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, :] = sigma.matrix[0, :]
        expected[:, 0] = sigma.matrix[:, 0]
        np.testing.assert_allclose(got, expected / (2.0 * math.sqrt(0.5)), atol=1e-13)


class TestNormalizedSandwichedEigensolves:
    def test_reads_the_gap_core(self, monkeypatch):
        # _pairs eigensolves the two channel images, the gap one sandwiched
        # core per pair; the residual powers those same cores.
        from _fixtures import saturating_fixtures

        label, c, rho, sigma = saturating_fixtures()[1]  # pinching fixture
        inputs = count_eigh(monkeypatch)
        res = normalized_sandwiched_residual(c, rho, sigma, alpha=2.0)
        assert len(inputs) == 4
        assert frobenius(res) <= 1e-10


class TestTangentRankBatched:
    """tangent_space_rank reads the rank from the kernel projector's spectrum;
    it equals the one measured by SVD from tangent_project, one Hermitian
    basis element at a time."""

    @staticmethod
    def _reference_rank(rho, tol=1e-8):
        from dpisat.calculus import hermitian_basis

        rows = []
        for b in hermitian_basis(rho.dim):
            proj = tangent_project(rho, b).matrix
            rows.append(np.concatenate([proj.real.ravel(), proj.imag.ravel()]))
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        return int(np.count_nonzero(svals > tol * svals[0]))

    def test_matches_per_element_projection(self):
        g = gen(580)
        cases = [rho for _, _, rho, _ in boundary_saturating_fixtures()]
        cases += [random_psd_rank(g, n, r) for n in range(1, 9) for r in range(1, n + 1)]
        cases.append(diag_psd([1.0, 1e-11, 0.5]))  # snapped below zero_tol
        # Spectra spread over 1e-9..1, rotated, above a kernel of each size.
        for n in (3, 5, 8):
            for r in range(1, n + 1):
                u = random_unitary(g, n)
                values = np.concatenate([np.logspace(-9, 0, r), np.zeros(n - r)])
                cases.append(PsdOperator(hermitize((u * values) @ u.conj().T)))
        for rho in cases:
            k = rho.dim - rho.rank
            assert tangent_space_rank(rho) == self._reference_rank(rho) == rho.dim ** 2 - k * k

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_large_n_takes_no_svd(self, monkeypatch, n):
        def no_svd(*args, **kwargs):
            raise AssertionError("tangent_space_rank took an SVD")

        g = gen(581 + n)
        cases = [random_psd_rank(g, n, r) for r in (1, n // 2, n - 1, n)]
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for rho in cases:
            k = rho.dim - rho.rank
            assert tangent_space_rank(rho) == n * n - k * k


# Formulas of the measures before the shared spectral cores, each taking its
# own eigensolves; the shared path must reproduce them to the last bit.


def _ref_powm(w, v, p):
    return (v * w ** p) @ v.conj().T


def _ref_sym(a):
    return (a + a.conj().T) / 2.0


def _ref_renyi_trace(alpha, z, rho, sigma):
    gamma = (1.0 - alpha) / (2.0 * z)
    ws, vs = np.linalg.eigh(sigma)
    s_g = _ref_powm(ws, vs, gamma)
    if alpha == z:  # r^1 = r
        r_az = rho
    else:
        wr, vr = np.linalg.eigh(rho)
        wr = np.maximum(wr, 0.0)
        r_az = (vr * wr ** (alpha / z)) @ vr.conj().T
    wx, vx = np.linalg.eigh(_ref_sym(s_g @ r_az @ s_g))
    return gamma, ws, vs, s_g, wx, vx


def _ref_fidelity_grad1(rho, sigma):
    ws, vs = np.linalg.eigh(sigma)
    s_half = _ref_powm(ws, vs, 0.5)
    wy, vy = np.linalg.eigh(_ref_sym(s_half @ rho @ s_half))
    return hermitize(0.5 * s_half @ _ref_powm(wy, vy, -0.5) @ s_half)


def _ref_value(m, r, s):
    if m.family == "relative_entropy":
        wr = np.linalg.eigh(r)[0]
        ws, vs = np.linalg.eigh(s)
        log_sigma = (vs * np.log(ws)) @ vs.conj().T
        return float(np.sum(wr * np.log(wr)) - np.real(np.trace(r @ log_sigma)))
    if m.family == "fidelity":
        ws, vs = np.linalg.eigh(s)
        s_half = _ref_powm(ws, vs, 0.5)
        wy = np.linalg.eigh(_ref_sym(s_half @ r @ s_half))[0]
        return float(np.sum(np.sqrt(np.maximum(wy, 0.0))))
    alpha, z = m.alpha, (m.z if m.family == "alpha_z" else m.alpha)
    wx = _ref_renyi_trace(alpha, z, r, s)[4]
    return math.log(float(np.sum(np.maximum(wx, 0.0) ** z))) / (alpha - 1.0)


def _ref_grad1(m, r, s):
    from dpisat.calculus import frechet_derivative, power

    if m.family == "relative_entropy":
        wr, vr = np.linalg.eigh(r)
        ws, vs = np.linalg.eigh(s)
        out = (vr * np.log(wr)) @ vr.conj().T - (vs * np.log(ws)) @ vs.conj().T
        return hermitize(out + np.eye(r.shape[0]))
    if m.family == "fidelity":
        return _ref_fidelity_grad1(r, s)
    if m.family == "sandwiched_renyi":
        alpha = m.alpha
        _, _, _, s_g, wx, vx = _ref_renyi_trace(alpha, alpha, r, s)
        trace = float(np.sum(wx ** alpha))
        core = s_g @ _ref_powm(wx, vx, alpha - 1.0) @ s_g
        return hermitize(alpha / ((alpha - 1.0) * trace) * core)
    alpha, z = m.alpha, m.z
    _, _, _, s_g, wx, vx = _ref_renyi_trace(alpha, z, r, s)
    trace = float(np.sum(wx ** z))
    w = _ref_sym(s_g @ _ref_powm(wx, vx, z - 1.0) @ s_g)
    deriv = frechet_derivative(hermitize(r), hermitize(w), power(alpha / z))
    return hermitize(z / ((alpha - 1.0) * trace) * deriv.matrix)


def _ref_grad2(m, r, s):
    from dpisat.calculus import LOG, frechet_derivative, power

    if m.family == "relative_entropy":
        return hermitize(-frechet_derivative(hermitize(s), hermitize(r), LOG).matrix)
    if m.family == "fidelity":  # 1/2 s^{-1/2} X^{1/2} s^{-1/2} on the core X of (r, s)
        _, ws, vs, _, wx, vx = _ref_renyi_trace(0.5, 0.5, r, s)
        s_neg_half = _ref_powm(ws, vs, -0.5)
        return hermitize(0.5 * s_neg_half @ _ref_powm(np.maximum(wx, 0.0), vx, 0.5) @ s_neg_half)
    alpha, z = m.alpha, (m.z if m.family == "alpha_z" else m.alpha)
    gamma, ws, vs, s_g, wx, vx = _ref_renyi_trace(alpha, z, r, s)
    trace = float(np.sum(wx ** z))
    x_z = _ref_powm(wx, vx, z)
    s_neg_g = _ref_powm(ws, vs, -gamma)
    anti = x_z @ s_neg_g + s_neg_g @ x_z
    deriv = frechet_derivative(hermitize(s), hermitize(anti), power(gamma))
    return hermitize(z / ((alpha - 1.0) * trace) * deriv.matrix)


def _ref_condition_operator(rho, sigma, alpha, z, outer_exp, core_exp):
    ws, vs = np.linalg.eigh(sigma)
    s_inner = _ref_powm(ws, vs, (1.0 - alpha) / (2.0 * z))
    s_outer = _ref_powm(ws, vs, outer_exp)
    r_az = rho if alpha == z else _ref_powm(*np.linalg.eigh(rho), alpha / z)  # r^1 = r
    core = _ref_sym(s_inner @ r_az @ s_inner)
    wc, vc = np.linalg.eigh(core)
    return s_outer @ _ref_powm(wc, vc, core_exp) @ s_outer


def _equivalent_specs():
    """``(first, second, to_second)``: specs whose values are a monotone map
    ``to_second`` of one quantity, so their DPI gaps vanish together."""
    cases = [("fidelity/alpha_z(1/2,1/2)", MeasureSpec.fidelity(), MeasureSpec.alpha_z(0.5, 0.5),
              lambda v: -2.0 * math.log(v))]
    cases += [(f"sandwiched/alpha_z(a,a)/a{a}", MeasureSpec.sandwiched_renyi(a), MeasureSpec.alpha_z(a, a),
               lambda v: v) for a in (0.7, 1.5)]
    # The Petz-Renyi line: Q = tr r^a s^(1-a) is the power f-divergence.
    cases += [(f"alpha_z(a,1)/power/a{a}", MeasureSpec.alpha_z(a, 1.0), MeasureSpec.f_divergence("power", alpha=a),
               lambda v, a=a: math.exp((a - 1.0) * v)) for a in (0.3, 0.7, 1.5)]
    cases.append(("relative_entropy/x_log_x", MeasureSpec.relative_entropy(), MeasureSpec.f_divergence("x_log_x"),
                  lambda v: v))
    return [pytest.param(first, second, to_second, id=label) for label, first, second, to_second in cases]


class TestEquivalentSpecs:
    """Two specs that are monotone functions of one quantity give the same
    values through that map, the same ``recovers`` answer, and the same
    ``saturated`` verdict on saturating fixtures and on the Fuchs-Caves
    measurement, which saturates the fidelity without recovery."""

    @staticmethod
    def _cases():
        from _fixtures import fuchs_caves, saturating_fixtures

        cases = [(label, c, rho, sigma) for label, c, rho, sigma in saturating_fixtures()]
        return cases + [(f"fuchs_caves_n{n}", *fuchs_caves(n)) for n in (2, 3, 4)]

    @pytest.mark.parametrize("first,second,to_second", _equivalent_specs())
    def test_values_match_through_the_map(self, first, second, to_second):
        g = gen(620)
        pairs = [(random_positive(g, n), random_positive(g, n)) for n in (2, 3, 4)]
        pairs += [(rho, sigma) for _, _, rho, sigma in self._cases()]
        for rho, sigma in pairs:
            want = evaluate(second, rho, sigma)
            assert abs(to_second(evaluate(first, rho, sigma)) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("first,second,to_second", _equivalent_specs())
    def test_recovers_and_saturated_agree(self, first, second, to_second):
        assert first._row.recovers(first) is second._row.recovers(second)
        verdicts = []
        for label, c, rho, sigma in self._cases():
            pair = [build_report(m, c, rho, sigma, with_petz=False).saturated for m in (first, second)]
            assert pair[0] is pair[1], label
            verdicts.append(pair[0])
        # The fixtures saturate every spec; Fuchs-Caves saturates the fidelity only.
        assert verdicts == [True] * 4 + [first.family == "fidelity"] * 3


_CLOSED_FORM_BUDGET = {"relative_entropy": 2, "fidelity": 4, "sandwiched_renyi": 4, "alpha_z": 4, "f_divergence": 2}


class TestSharedSpectralCores:
    """Each operator and each spectral core of a report is eigensolved once.

    Under a channel whose images are eigensolved (the saturating fixtures but
    the unitary, and a random channel) sharing leaves every number
    bit-identical to separate eigensolves. A closed-form image (depolarizing,
    unitary) takes its eigensystem from its input's in ``apply``,
    ``(a w + b tr A, U V)``, which differs from an eigensolve of the image by
    roundoff; so its numbers agree with separate eigensolves to roundoff, not
    bit for bit, unless the states are diagonal and every eigensolve is
    exact."""

    SPECTRAL = ("relative_entropy", "fidelity", "sandwiched_renyi", "alpha_z")

    @staticmethod
    def _fixtures():
        from _fixtures import saturating_fixtures

        g = gen(590)
        cases = [(label, c, rho, sigma) for label, c, rho, sigma in saturating_fixtures() if label != "unitary"]
        cases.append(("random_cptp", random_cptp(g, 4, 3), random_positive(g, 4), random_positive(g, 4)))
        return cases

    def test_value_and_gradients_equal_separate_eigensolves(self):
        from dpisat.divergences import grad1, grad2

        for label, c, rho, sigma in self._fixtures():
            points = [(rho, sigma), (PositiveOperator(apply(c, rho.op)), PositiveOperator(apply(c, sigma.op)))]
            for m in measure_suite():
                if m.family not in self.SPECTRAL:
                    continue
                for r, s in points:
                    a, b = r.matrix.copy(), s.matrix.copy()
                    assert evaluate(m, r, s) == _ref_value(m, a, b), (label, m)
                    assert np.array_equal(grad1(m, r, s).matrix, _ref_grad1(m, a, b).matrix), (label, m)
                    assert np.array_equal(grad2(m, r, s).matrix, _ref_grad2(m, a, b).matrix), (label, m)

    def test_report_equals_separate_eigensolves(self):
        for label, c, rho, sigma in self._fixtures():
            r_out, s_out = apply(c, rho.op).matrix, apply(c, sigma.op).matrix
            for m in measure_suite():
                if m.family not in self.SPECTRAL:
                    continue
                rep = build_report(m, c, rho, sigma, with_petz=False)
                gap = m.sign * (_ref_value(m, rho.matrix, sigma.matrix) - _ref_value(m, r_out, s_out))
                assert rep.gap == gap, (label, m)
                for ref, res in ((_ref_grad1, rep.residual1), (_ref_grad2, rep.residual2)):
                    inner = adjoint_apply(c, ref(m, r_out, s_out)).matrix
                    expected = hermitize(ref(m, rho.matrix, sigma.matrix).matrix - inner)
                    assert np.array_equal(res.matrix, expected.matrix), (label, m)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_depolarizing_report_within_roundoff_of_separate_eigensolves(self, n):
        g = gen(592 + n)
        c, rho, sigma = depolarizing(n, 0.3), random_positive(g, n), random_positive(g, n)
        r_out, s_out = apply(c, rho.op).matrix, apply(c, sigma.op).matrix
        for m in measure_suite():
            if m.family not in self.SPECTRAL:
                continue
            rep = build_report(m, c, rho, sigma, with_petz=False)
            gap = m.sign * (_ref_value(m, rho.matrix, sigma.matrix) - _ref_value(m, r_out, s_out))
            assert abs(rep.gap - gap) <= 1e-12 * abs(gap), (n, m)
            for ref, res in ((_ref_grad1, rep.residual1), (_ref_grad2, rep.residual2)):
                grad = ref(m, rho.matrix, sigma.matrix).matrix
                expected = grad - adjoint_apply(c, ref(m, r_out, s_out)).matrix
                assert np.linalg.norm(res.matrix - expected) <= 1e-13 * np.linalg.norm(grad), (n, m)

    def test_unitary_report_within_roundoff_of_separate_eigensolves(self):
        # The saturating unitary fixture, whose images read (w, U V): its gap
        # is itself roundoff, so the gap is judged on the scale of the values
        # it subtracts, with the same 1e-12.
        from _fixtures import saturating_fixtures

        label, c, rho, sigma = saturating_fixtures()[0]
        assert label == "unitary"
        r_out, s_out = apply(c, rho.op).matrix, apply(c, sigma.op).matrix
        for m in measure_suite():
            if m.family not in self.SPECTRAL:
                continue
            rep = build_report(m, c, rho, sigma, with_petz=False)
            value = _ref_value(m, rho.matrix, sigma.matrix)
            gap = m.sign * (value - _ref_value(m, r_out, s_out))
            assert abs(rep.gap - gap) <= 1e-12 * abs(value), m
            for ref, res in ((_ref_grad1, rep.residual1), (_ref_grad2, rep.residual2)):
                grad = ref(m, rho.matrix, sigma.matrix).matrix
                expected = grad - adjoint_apply(c, ref(m, r_out, s_out)).matrix
                assert np.linalg.norm(res.matrix - expected) <= 1e-13 * np.linalg.norm(grad), m
        for alpha, z, norms, scale in self._crosscheck_references(c, rho, sigma):
            res = alpha_z_crosscheck(c, rho, sigma, alpha, z)
            for got, want in zip((res.chehade_residual, res.zhang_residual), norms):
                assert abs(got - want) <= 1e-13 * scale, (alpha, z)

    @staticmethod
    def _crosscheck_references(c, rho, sigma):
        """``(alpha, z, norms, scale)``: the two condition residual norms from
        separate eigensolves, and the norm of the larger condition operator."""
        r_out, s_out = apply(c, rho.op).matrix, apply(c, sigma.op).matrix
        for alpha, z in ((0.7, 0.9), (1.5, 1.2), (2.5, 2.0), (1.5, 1.5)):
            norms, scale = [], 0.0
            for outer_exp, core_exp in (
                ((1.0 - z) / (2.0 * z), z - 1.0), ((1.0 - alpha) / (2.0 * z), alpha - 1.0),
            ):
                f_in = _ref_condition_operator(rho.matrix, sigma.matrix, alpha, z, outer_exp, core_exp)
                f_out = _ref_condition_operator(r_out, s_out, alpha, z, outer_exp, core_exp)
                norms.append(float(np.linalg.norm(f_in - adjoint_apply(c, hermitize(f_out)).matrix)))
                scale = max(scale, float(np.linalg.norm(f_in)))
            yield alpha, z, tuple(norms), scale

    def test_crosscheck_conditions_equal_separate_eigensolves(self):
        for label, c, rho, sigma in self._fixtures():
            for alpha, z, norms, _ in self._crosscheck_references(c, rho, sigma):
                res = alpha_z_crosscheck(c, rho, sigma, alpha, z)
                assert (res.chehade_residual, res.zhang_residual) == norms, (label, alpha, z)

    @pytest.mark.parametrize(
        "c,expected",
        [
            # The closed-form images take their eigensystems from rho and sigma.
            (depolarizing(4, 0.3), _CLOSED_FORM_BUDGET),
            (unitary(random_unitary(gen(594), 4)), _CLOSED_FORM_BUDGET),
            (identity(4), _CLOSED_FORM_BUDGET),
            # A composition of two records is a record.
            (compose(unitary(random_unitary(gen(595), 4)), depolarizing(4, 0.3)), _CLOSED_FORM_BUDGET),
            (partial_trace(2, 2, "a"), {"relative_entropy": 4, "fidelity": 6, "sandwiched_renyi": 6,
                                        "alpha_z": 6, "f_divergence": 4}),
        ],
        ids=["depolarizing", "unitary", "identity", "composed_record", "partial_trace"],
    )
    def test_eigensolve_budget_per_report(self, monkeypatch, c, expected):
        # rho and sigma arrive as plain arrays, so both inputs, and the images
        # of any channel without a closed form, are eigensolved inside it.
        from _fixtures import count_eigh

        g = gen(591)
        rho, sigma = random_positive(g, 4).matrix, random_positive(g, 4).matrix
        for m in measure_suite():
            calls = count_eigh(monkeypatch)
            build_report(m, c, rho, sigma)
            assert len(calls) == expected[m.family] <= 6, m
            monkeypatch.undo()


class TestValidationAtBoundary:
    """Every operator is made by one constructor, whose one Hermiticity check
    runs where a matrix becomes an operator: on the inputs, the two channel
    images and the two residuals of a report. The cores between pass
    symmetrized arrays and run it nowhere."""

    @staticmethod
    def _count_checks(monkeypatch) -> list:
        """Record the dimension of every run of the Hermiticity check."""
        runs = []
        check = HermitianOperator.__post_init__

        def counted(self):
            check(self)
            runs.append(self.dim)

        monkeypatch.setattr(HermitianOperator, "__post_init__", counted)
        return runs

    def test_report_on_operators_checks_images_and_residuals(self, monkeypatch):
        c = depolarizing(4, 0.3)
        g = gen(592)
        rho, sigma = random_positive(g, 4), random_positive(g, 4)
        runs = self._count_checks(monkeypatch)
        for m in measure_suite():
            del runs[:]
            build_report(m, c, rho, sigma)
            assert len(runs) == 4, m

    def test_array_inputs_are_checked_once_each(self, monkeypatch):
        c = depolarizing(3, 0.4)
        g = gen(593)
        rho, sigma = random_positive(g, 3).matrix, random_positive(g, 3).matrix
        runs = self._count_checks(monkeypatch)
        build_report(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert runs == [3] * 6


class TestBoundarySpectralProducts:
    """One boundary check forms the support projector, the support log of
    rho and log sigma once per pair, reading them from the pair."""

    @staticmethod
    def _count(monkeypatch) -> dict:
        """Count the support projectors (``_spectral_map``) and the logarithms
        (``_logm``) of rho, a :class:`PsdOperator` here, and of sigma that the
        dpisat modules form outside linalg."""
        import sys

        import dpisat.linalg as la

        calls = {"_spectral_map": 0, "_logm(rho)": 0, "_logm(sigma)": 0}
        for name in ("_spectral_map", "_logm"):
            func = getattr(la, name)

            def wrapper(*args, _name=name, _func=func, **kwargs):
                if _name == "_logm":
                    _name += "(rho)" if isinstance(args[0], PsdOperator) else "(sigma)"
                calls[_name] += 1
                return _func(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("dpisat.") and mod is not la and vars(mod).get(name) is func:
                    monkeypatch.setattr(mod, name, wrapper)
        return calls

    def test_two_of_each_per_check_and_same_bits(self, monkeypatch):
        from functools import partial

        from dpisat.divergences import _grad1
        from dpisat.saturation import _hiai_residual, _pairs, _residual

        m = MeasureSpec.relative_entropy()
        for label, c, rho, sigma in boundary_saturating_fixtures():
            ref = _boundary_residuals_by_hand(c, *_pairs(c, rho, sigma))[1:]
            with monkeypatch.context() as mp:
                calls = self._count(mp)
                pt, pt_out = _pairs(c, rho, sigma)
                got = (
                    # The tangent residual, the residual1 of a boundary report
                    # and the zeros-log residual of the boundary check.
                    hermitize(_residual(c, partial(_grad1, m), pt, pt_out, tangent=True)),
                    _hiai_residual(c, pt, pt_out),
                )
            assert calls == {"_spectral_map": 2, "_logm(rho)": 2, "_logm(sigma)": 2}, label
            # The pairs project the relative entropy's closed-form gradient,
            # the hand formula adds its projected terms: the same operator up
            # to roundoff, on the scale of the gradient itself.
            scale = frobenius(_grad1(m, pt))
            for res, expected in zip(got, ref):
                error = frobenius(getattr(res, "matrix", res) - getattr(expected, "matrix", expected))
                assert error <= 1e-13 * scale, label


class TestIllConditionedRenyiCores:
    """A state with an eigenvalue near roundoff gives a Renyi core
    ``X = s^g r^{a/z} s^g`` whose computed spectrum dips just below zero.
    X is PSD by construction, so the value and both gradients read that
    spectrum clamped at zero, and fractional powers of X stay finite."""

    def test_gradients_finite_and_reports_build(self):
        from dpisat.divergences import _Pair, grad1, grad2

        specs = (
            MeasureSpec.alpha_z(2.5, 2.2),
            MeasureSpec.alpha_z(2.5, 1.7),
            MeasureSpec.alpha_z(1.8, 1.3),
            MeasureSpec.sandwiched_renyi(2.5),
        )
        g = gen(0)
        c = depolarizing(4, 0.3)
        dipped = 0
        for _ in range(50):
            w = np.concatenate(([10.0 ** g.uniform(-16, -13)], g.uniform(0.1, 1.0, 3)))
            u, sigma = random_unitary(g, 4), random_positive(g, 4)
            try:
                rho = PositiveOperator(hermitize((u * w) @ u.conj().T))
            except PositivityError:  # roundoff put the smallest eigenvalue at or below zero
                continue
            for m in specs:
                alpha, z = m.alpha, m.z or m.alpha
                core = _Pair(rho, sigma).core(m.gamma, alpha / z)[1]
                dipped += np.linalg.eigvalsh(core.matrix)[0] < 0.0
                assert math.isfinite(evaluate(m, rho, sigma)), m
                assert np.isfinite(grad1(m, rho, sigma).matrix).all(), m
                assert np.isfinite(grad2(m, rho, sigma).matrix).all(), m
                rep = build_report(m, c, rho, sigma)
                assert math.isfinite(rep.residual1_frobenius) and math.isfinite(rep.residual2_frobenius), m
        assert dipped >= 10  # the draws reach the clamped spectra

    def test_z_below_one_needs_a_positive_core(self):
        # For z < 1 the first gradient reads X^{z-1}; a clamped core
        # eigenvalue on the support of rho makes it a PositivityError, never a
        # silent 0 in place of a huge entry.
        from dpisat.divergences import _Pair, _quasi_entropy, grad1

        specs = (MeasureSpec.fidelity(), MeasureSpec.sandwiched_renyi(0.6), MeasureSpec.alpha_z(0.7, 0.9))
        g = gen(0)
        raised = dict.fromkeys(specs, 0)
        for _ in range(200):
            w = np.concatenate(([10.0 ** g.uniform(-16, -13)], g.uniform(0.1, 1.0, 3)))
            u, sigma = random_unitary(g, 4), random_positive(g, 4)
            try:
                rho = PositiveOperator(hermitize((u * w) @ u.conj().T))
            except PositivityError:  # roundoff put the smallest eigenvalue at or below zero
                continue
            for m in specs:
                clamped = (_quasi_entropy(m, _Pair(rho, sigma)).core.eigensystem[0] <= 0.0).any()
                if clamped:
                    with pytest.raises(PositivityError, match="z < 1"):
                        grad1(m, rho, sigma)
                    raised[m] += 1
                else:
                    assert np.isfinite(grad1(m, rho, sigma).matrix).all(), m
        assert raised[specs[1]] >= 1, raised  # the draws reach the guard


class TestIllConditionedFidelity:
    """``rho (x) tau`` and ``sigma (x) tau`` under the partial trace over tau
    saturate exactly, with cond(sigma) about 1/s. The fidelity's second
    gradient, ``1/2 s^{-1/2} X^{1/2} s^{-1/2}`` on the pair's core, keeps
    ``residual2`` within the residual tolerance there."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4])
    def test_report_saturates(self, s, seed):
        c, rho, sigma = ill_conditioned_partial_trace(s, seed)
        rep = build_report(MeasureSpec.fidelity(), c, rho, sigma)
        assert report_to_json(rep)["saturated"] is True
        assert rep.residual2_frobenius <= rep.residual_tol


def _guard_passes(arr: np.ndarray) -> bool:
    """The predicate of the fused guard in ``hermitize``: finite, and
    ``max|A - A^H| <= 1e-8 max(1, max|A|)``."""
    scale = float(np.max(np.abs(arr)))
    return scale < math.inf and float(np.max(np.abs(arr - arr.conj().T))) <= 1e-8 * max(1.0, scale)


class TestHermitianByConstruction:
    """Private cores pass symmetrized arrays and never run the fused guard;
    it runs on the two channel images and on each value a public function
    returns. The guard this drops from the cores is kept here, as a check on
    every internal symmetrization."""

    @staticmethod
    def _count_guards(monkeypatch) -> list:
        """Count ``hermitize`` runs, wrapped in every dpisat module that binds it."""
        import sys

        import dpisat.linalg as la

        runs = []
        func = la.hermitize

        def counted(*args, **kwargs):
            runs.append(1)
            return func(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("dpisat.") and vars(mod).get("hermitize") is func:
                monkeypatch.setattr(mod, "hermitize", counted)
        return runs

    @staticmethod
    def _check_symmetrizations(monkeypatch) -> dict:
        """Wrap ``_symmetrized`` where the cores bind it; record per module
        how many inputs pass the guard's predicate and how many fail it."""
        import dpisat.calculus as calc
        import dpisat.divergences as div
        import dpisat.saturation as sat

        seen = {}
        for mod in (calc, div, sat):
            func = mod._symmetrized
            tally = seen.setdefault(mod.__name__, {"passed": 0, "failed": 0})

            def checked(arr, adj=None, _func=func, _tally=tally):
                _tally["passed" if _guard_passes(arr) else "failed"] += 1
                return _func(arr, adj)

            monkeypatch.setattr(mod, "_symmetrized", checked)
        return seen

    @staticmethod
    def _report_cases():
        from _fixtures import saturating_fixtures

        g = gen(595)
        cases = list(saturating_fixtures())
        cases.append(("depolarizing_fixture",) + depolarizing_fixture())
        cases.append(("depolarizing_n6", depolarizing(6, 0.4), random_positive(g, 6), random_positive(g, 6)))
        return cases

    def test_four_guards_per_report(self, monkeypatch):
        g = gen(594)
        c, rho, sigma = depolarizing(6, 0.4), random_positive(g, 6), random_positive(g, 6)
        runs = self._count_guards(monkeypatch)
        for m in measure_suite():
            runs.clear()
            build_report(m, c, rho, sigma)
            # The two channel images and the two residuals.
            assert len(runs) == 4, m
        # A public residual: the two images and the value it returns.
        runs.clear()
        residual1(MeasureSpec.relative_entropy(), c, rho, sigma)
        assert len(runs) == 3

    def test_internal_symmetrizations_pass_the_guard(self, monkeypatch):
        seen = self._check_symmetrizations(monkeypatch)
        for label, c, rho, sigma in self._report_cases():
            for m in measure_suite():
                build_report(m, c, rho, sigma)
        for label, c, rho, sigma in boundary_saturating_fixtures():
            boundary_residual_relent(c, rho, sigma)
            for m in BOUNDARY_SPECS:
                boundary_residual_general(m, c, rho, sigma)
        for name, tally in seen.items():
            assert tally["failed"] == 0, (name, tally)
            assert tally["passed"] > 0, name

    def test_public_results_still_guarded(self, monkeypatch):
        # A core that returned a skewed array reaches the public guard, which
        # rejects it exactly as it would a skewed public input.
        import dpisat.divergences as div
        from dpisat.divergences import grad1
        from dpisat.linalg import HermiticityError

        c, rho, sigma = depolarizing_fixture()
        monkeypatch.setattr(div, "_grad1", lambda m, pt: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(HermiticityError):
            grad1(MeasureSpec.relative_entropy(), rho, sigma)


class TestOneResidualForm:
    """Every Hermitian saturation residual is ``X(r, s) - L*(X(L r, L s))``
    taken by one helper: each adjoint a residual acts through is taken inside
    ``_residual``, once per condition."""

    @staticmethod
    def _track(monkeypatch) -> dict:
        import dpisat.saturation as sat

        calls = {"_residual": 0, "adjoint_inside": 0, "adjoint_outside": 0}
        depth = [0]
        residual, act_adjoint = sat._residual, sat._act_adjoint

        def tracked_residual(*args, **kwargs):
            calls["_residual"] += 1
            depth[0] += 1
            try:
                return residual(*args, **kwargs)
            finally:
                depth[0] -= 1

        def tracked_adjoint(*args, **kwargs):
            calls["adjoint_inside" if depth[0] else "adjoint_outside"] += 1
            return act_adjoint(*args, **kwargs)

        monkeypatch.setattr(sat, "_residual", tracked_residual)
        monkeypatch.setattr(sat, "_act_adjoint", tracked_adjoint)
        return calls

    def test_every_hermitian_residual_takes_its_adjoint_in_the_helper(self, monkeypatch):
        g = gen(1200)
        c, rho, sigma = depolarizing(3, 0.3), random_positive(g, 3), random_positive(g, 3)
        # A unitary channel saturates, as the normalized residual requires.
        c_unitary = unitary(random_unitary(g, 3))
        _, c_psd, rho_psd, sigma_psd = boundary_saturating_fixtures()[0]
        m = MeasureSpec.sandwiched_renyi(2.0)
        cases = [
            (lambda: residual1(m, c, rho, sigma), 1),
            (lambda: residual2(m, c, rho, sigma), 1),
            (lambda: normalized_sandwiched_residual(c_unitary, rho, sigma, alpha=2.0), 1),
            (lambda: converse_certificate(m, c, rho, sigma, residual_tol=0.0), 1),
            (lambda: alpha2_petz_residual(c, rho, sigma), 1),
            (lambda: alpha_z_crosscheck(c, rho, sigma, 1.5, 1.2), 3),
            (lambda: build_report(m, c, rho, sigma, with_petz=False), 2),
            (lambda: boundary_residual_relent(c_psd, rho_psd, sigma_psd), 1),
            (lambda: boundary_residual_general(m, c_psd, rho_psd, sigma_psd), 1),
        ]
        calls = self._track(monkeypatch)
        for i, (run, conditions) in enumerate(cases):
            calls.update(dict.fromkeys(calls, 0))
            run()
            assert calls == {"_residual": conditions, "adjoint_inside": conditions, "adjoint_outside": 0}, i


class TestOneBoundaryRule:
    """A rank-deficient PsdOperator rho takes the boundary pair in every
    public function, whatever the sign of the roundoff on its kernel: each
    reads the same numbers as build_report, the boundary-named functions and
    the private gradients, bit for bit. Read as positive, such a rho sends a
    residual through log(1e-17), about 36; read by its sign, it raises."""

    MEASURES = (MeasureSpec.relative_entropy(), MeasureSpec.fidelity(), MeasureSpec.sandwiched_renyi(2.0),
                MeasureSpec.alpha_z(1.5, 1.2), MeasureSpec.f_divergence("x_log_x"))

    @staticmethod
    def _rotated(seed: int, values) -> PsdOperator:
        g = np.random.default_rng(seed)
        n = len(values)
        u = np.linalg.qr(g.normal(size=(n, n)) + 1j * g.normal(size=(n, n)))[0]
        return PsdOperator(HermitianOperator(u @ np.diag(values) @ u.conj().T))

    @classmethod
    def _cases(cls):
        """The rank-3 states at n = 4, whose kernel eigenvalue is +1e-17 to
        +3e-17 at seeds 0..3 and about -4e-17 at seeds 4 and 5, then rotated
        rank-2 states at n = 5 under a dense Kraus channel."""
        sigma4 = diag_positive([0.1, 0.2, 0.3, 0.4])
        cases = [(f"n4-seed{s}", depolarizing(4, 0.3), cls._rotated(s, [0.5, 0.3, 0.2, 0.0]), sigma4)
                 for s in range(6)]
        g = gen(3030)
        cases += [(f"n5-seed{s}", random_cptp(g, 5, 5), cls._rotated(s, [0.6, 0.4, 0.0, 0.0, 0.0]),
                   random_positive(g, 5)) for s in range(10, 14)]
        return cases

    def test_kernel_roundoff_takes_both_signs(self):
        signs = {np.sign(rho.op.eigensystem[0][0]) for _, _, rho, _ in self._cases()[:6]}
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("m", MEASURES, ids=lambda m: f"{m.family}-{m.alpha}-{m.z}")
    def test_every_function_reads_the_boundary_pair(self, m):
        for label, c, rho, sigma in self._cases():
            report = build_report(m, c, rho, sigma)
            pt = report.pairs[0]
            assert pt.kernel == rho.dim - rho.rank, label
            assert dpi_gap(m, c, rho, sigma) == boundary_gap(m, c, rho, sigma) == report.gap, label
            r1 = residual1(m, c, rho, sigma).matrix
            np.testing.assert_array_equal(r1, report.residual1.matrix, err_msg=label)
            np.testing.assert_array_equal(r1, boundary_residual_general(m, c, rho, sigma).matrix, err_msg=label)
            np.testing.assert_array_equal(residual2(m, c, rho, sigma).matrix, report.residual2.matrix,
                                          err_msg=label)
            assert evaluate(m, rho, sigma) == evaluate_psd(m, rho, sigma) == _value(m, pt), label
            np.testing.assert_array_equal(grad1(m, rho, sigma).matrix, hermitize(_grad1(m, pt)).matrix,
                                          err_msg=label)
            np.testing.assert_array_equal(grad2(m, rho, sigma).matrix, hermitize(_grad2(m, pt)).matrix,
                                          err_msg=label)
            if m._row.scaling is not None:
                cert = converse_certificate(m, c, rho, sigma)
                assert (cert.residual1_norm, cert.gap) == (report.residual1_frobenius, report.gap), label
            if m.family == "alpha_z":
                expected = _alpha_z_crosscheck(c, *report.pairs, m, report.residual1_frobenius)
                assert alpha_z_crosscheck(c, rho, sigma, m.alpha, m.z) == expected, label

    def test_neg_log_has_no_value_at_any_seed(self):
        m = MeasureSpec.f_divergence("neg_log")
        for label, c, rho, sigma in self._cases():
            for run in (lambda: dpi_gap(m, c, rho, sigma), lambda: residual1(m, c, rho, sigma),
                        lambda: evaluate(m, rho, sigma), lambda: grad1(m, rho, sigma)):
                with pytest.raises(ValueError, match=r"^f-divergence 'neg_log' has no continuous extension at 0$"):
                    run()

    @pytest.mark.parametrize("tail", [-1e-8, 1e-8])
    def test_a_declared_threshold_places_rho_at_either_sign(self, tail):
        # zero_tol = 1e-2 declares the tail a kernel, so rho is on the boundary
        # whatever its sign; as a positive state it would read log(1e-8).
        rho = PsdOperator(HermitianOperator(np.diag([5e7, 5e7, tail]).astype(complex)), zero_tol=1e-2)
        sigma, c, m = diag_positive([3e7, 5e7, 2e7]), depolarizing(3, 0.3), MeasureSpec.relative_entropy()
        report = build_report(m, c, rho, sigma)
        assert dpi_gap(m, c, rho, sigma) == boundary_gap(m, c, rho, sigma) == report.gap
        np.testing.assert_array_equal(residual1(m, c, rho, sigma).matrix, report.residual1.matrix)
        np.testing.assert_array_equal(grad1(m, rho, sigma).matrix, hermitize(_grad1(m, report.pairs[0])).matrix)
        assert evaluate(m, rho, sigma) == evaluate_psd(m, rho, sigma)

    @pytest.mark.parametrize("tail", [-1e-8, 1e-8])
    def test_a_declared_singular_sigma_is_refused_at_either_sign(self, tail):
        from dpisat.divergences import scaling_check

        singular = PsdOperator(HermitianOperator(np.diag([5e7, 5e7, tail]).astype(complex)), zero_tol=1e-2)
        rho, c = diag_positive([3e7, 5e7, 2e7]), depolarizing(3, 0.3)
        m = MeasureSpec.sandwiched_renyi(2.0)
        with pytest.raises(BoundaryCaseError, match=r"^sigma is not strictly positive .*declared kernel"):
            dpi_gap(m, c, rho, singular)
        with pytest.raises(BoundaryCaseError, match=r"^sigma is not strictly positive"):
            petz_map(singular, c)
        with pytest.raises(PositivityError, match="declared kernel"):
            scaling_check(m, singular, rho, 2.0, 3.0)


class TestEigensolverFloor:
    """A state given as an array is strictly positive only above the
    eigensolver's floor ``n eps max|w|``: a kernel eigenvalue that roundoff put
    at +1e-17 is refused as one at -4e-17 is, so a rank-deficient rho, sigma or
    channel image raises at every seed instead of reading log(1e-17)."""

    @staticmethod
    def _rotated_rank3(seed: int) -> np.ndarray:
        g = np.random.default_rng(seed)
        u = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))[0]
        return u @ np.diag([0.5, 0.3, 0.2, 0.0]) @ u.conj().T

    def test_seeded_kernels_take_both_signs(self):
        signs = {np.sign(HermitianOperator(self._rotated_rank3(s)).eigensystem[0][0]) for s in range(6)}
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_arrays_are_refused_at_either_sign(self, seed):
        m, c = MeasureSpec.relative_entropy(), depolarizing(4, 0.3)
        singular, positive = self._rotated_rank3(seed), np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        with pytest.raises(BoundaryCaseError,
                           match=r"^rho is not strictly positive .*; pass a rank-deficient rho as a PsdOperator$"):
            residual1(m, c, singular, positive)
        with pytest.raises(BoundaryCaseError, match=r"^sigma is not strictly positive \(operator is not") as info:
            dpi_gap(m, c, positive, singular)
        assert "PsdOperator" not in str(info.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_isometric_embedding_images_are_refused(self, seed):
        # V maps C^2 into C^4, so L(sigma) has a two-dimensional kernel whose
        # roundoff sign is not read.
        g = gen(3100 + seed)
        v = random_unitary(g, 4)[:, :2]
        rho, sigma = random_positive(g, 2), random_positive(g, 2)
        with pytest.raises(BoundaryCaseError, match=r"^channel image of sigma is not strictly positive"):
            build_report(MeasureSpec.relative_entropy(), KrausChannel([v]), rho, sigma)
