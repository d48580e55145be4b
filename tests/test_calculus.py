import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpisat.calculus import (
    EXP,
    IDENTITY,
    LOG,
    NumericGradientError,
    LinearFunctionalSample,
    ScalarFunctionPair,
    _loewner_matrix,
    dualize,
    finite_difference_frechet,
    frechet_derivative,
    hermitian_basis,
    numeric_gradient,
    power,
    sample_functional,
)
from dpisat.linalg import HermitianOperator, MatrixFunctionDomainError, hs_inner

from _fixtures import gen, random_hermitian, random_positive

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestScalarFunctionPair:
    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError, match="self-check"):
            ScalarFunctionPair("broken", lambda x: x ** 2, lambda x: 3.0 * x)

    @pytest.mark.parametrize("domain", [(1.0, math.inf), (-math.inf, 0.0)])
    def test_mismatched_pair_on_a_half_infinite_domain_rejected(self, domain):
        with pytest.raises(ValueError, match="self-check"):
            ScalarFunctionPair("bad", lambda x: x ** 2, lambda x: 0.0, domain=domain)

    @pytest.mark.parametrize("exponent", [-49.5, -25.0, 100.0, 150.0])
    def test_steep_powers_pass_their_self_check(self, exponent):
        # The step is relative to |x|, so x = 0.01 is differenced at its own scale.
        assert power(exponent).f(2.0) == 2.0 ** exponent

    def test_non_finite_points_are_skipped(self):
        # x**-200 overflows at x = 0.01; those points are skipped, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScalarFunctionPair("steep", lambda x: x ** -200.0, lambda x: -200.0 * x ** -201.0,
                               domain=(0.0, math.inf))

    def test_registered_pairs_exist(self):
        for pair in (IDENTITY, LOG, EXP, power(0.37), power(2.0)):
            assert pair.f_prime(1.0) == pytest.approx(pair.f_prime(1.0))

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_power_refuses_a_non_finite_exponent(self, exponent):
        with pytest.raises(ValueError, match=r"^power requires a finite exponent"):
            power(exponent)

    def test_power_zero_exponent(self):
        assert power(0.0).f(3.0) == 1.0
        assert power(0.0).f_prime(3.0) == 0.0


class TestHermitianBasis:
    def test_orthonormal_and_complete(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert hs_inner(a, b) == pytest.approx(expected, abs=1e-12)

    def test_completeness_expansion(self):
        g = gen(200)
        m = random_hermitian(g, 3)
        rebuilt = sum(hs_inner(m, b) * b.matrix for b in hermitian_basis(3))
        assert np.linalg.norm(rebuilt - m.matrix) <= 1e-12


class TestFrechetDerivative:
    def test_identity_function_returns_direction(self):
        g = gen(210)
        a, m = random_hermitian(g, 4), random_hermitian(g, 4)
        out = frechet_derivative(a, m, IDENTITY)
        assert np.linalg.norm(out.matrix - m.matrix) <= 1e-12

    def test_square_function_divided_difference(self):
        # d(A^2)(M) = AM + MA; for A = diag(1,2), M = sigma_x the off-diagonal
        # picks up (1 - 4)/(1 - 2) = 3.
        a = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        m = HermitianOperator(SIGMA_X)
        oracle = a.matrix @ m.matrix + m.matrix @ a.matrix
        np.testing.assert_allclose(oracle, [[0, 3], [3, 0]], atol=1e-14)
        out = frechet_derivative(a, m, power(2.0))
        np.testing.assert_allclose(out.matrix, [[0, 3], [3, 0]], atol=1e-12)

    def test_log_matches_central_difference(self):
        g = gen(211)
        a = random_positive(g, 4)
        m = random_hermitian(g, 4)
        exact = frechet_derivative(a.op, m, LOG)
        fd = finite_difference_frechet(a.op, m, LOG, h=1e-5)
        rel = np.linalg.norm(exact.matrix - fd.matrix) / np.linalg.norm(fd.matrix)
        assert rel <= 1e-6

    def test_linearity(self):
        g = gen(212)
        a = random_positive(g, 4)
        m1, m2 = random_hermitian(g, 4), random_hermitian(g, 4)
        combo = HermitianOperator(0.7 * m1.matrix - 1.3 * m2.matrix)
        lhs = frechet_derivative(a.op, combo, LOG).matrix
        rhs = (
            0.7 * frechet_derivative(a.op, m1, LOG).matrix
            - 1.3 * frechet_derivative(a.op, m2, LOG).matrix
        )
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_output_hermitian(self):
        g = gen(213)
        a, m = random_positive(g, 5), random_hermitian(g, 5)
        out = frechet_derivative(a.op, m, power(1.7)).matrix
        assert np.linalg.norm(out - out.conj().T) <= 1e-10

    def test_exp_series_truncation_oracle(self):
        # Linear coefficient of exp(A + eps M) from the explicit 30-term sum
        # sum_m (1/m!) sum_{n<m} A^n M A^{m-1-n}.
        g = gen(214)
        x = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        a = HermitianOperator(0.25 * (x + x.conj().T))
        m = random_hermitian(g, 3, scale=0.3)
        powers = [np.eye(3, dtype=complex)]
        for _ in range(30):
            powers.append(powers[-1] @ a.matrix)
        series = np.zeros((3, 3), dtype=complex)
        fact = 1.0
        for order in range(1, 31):
            fact *= order
            for n in range(order):
                series += powers[n] @ m.matrix @ powers[order - 1 - n] / fact
        out = frechet_derivative(a, m, EXP)
        assert np.linalg.norm(out.matrix - series) <= 1e-9

    def test_commuting_case_reduces_to_fprime_times_direction(self):
        g = gen(215)
        q = np.linalg.qr(g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4)))[0]
        a = HermitianOperator(q @ np.diag([0.5, 1.0, 1.7, 2.4]) @ q.conj().T, herm_tol=1e-8)
        m = HermitianOperator(q @ np.diag([1.0, -2.0, 0.3, 0.9]) @ q.conj().T, herm_tol=1e-8)
        out = frechet_derivative(a, m, LOG)
        w, v = np.linalg.eigh(a.matrix)
        fprime_a = (v / w) @ v.conj().T
        assert np.linalg.norm(out.matrix - fprime_a @ m.matrix) <= 1e-10

    def test_domain_error_propagates(self):
        a = HermitianOperator(np.diag([1.0, -1.0]).astype(complex))
        m = HermitianOperator(SIGMA_X)
        with pytest.raises(MatrixFunctionDomainError):
            frechet_derivative(a, m, LOG)

    def test_scalar_only_pair(self):
        # A pair built on math.log accepts Python floats, not arrays.
        math_log = ScalarFunctionPair(
            "math_log", math.log, lambda x: 1.0 / x, domain=(0.0, math.inf)
        )
        g = gen(216)
        a, m = random_positive(g, 4), random_hermitian(g, 4)
        out = frechet_derivative(a.op, m, math_log).matrix
        assert np.linalg.norm(out - frechet_derivative(a.op, m, LOG).matrix) <= 1e-13


class TestLoewnerMatrix:
    REPS = np.array([0.5, 0.5, 1.5, 2.0])

    def test_entries(self):
        fv, fpv = np.log(self.REPS), 1.0 / self.REPS
        k = _loewner_matrix(self.REPS, fv, fpv)
        assert k[0, 1] == k[1, 0] == k[0, 0] == 2.0
        assert k[2, 3] == (np.log(1.5) - np.log(2.0)) / (1.5 - 2.0)
        assert k[3, 1] == (np.log(2.0) - np.log(0.5)) / (2.0 - 0.5)

    def test_leading_batch_axes(self):
        pairs = (LOG, EXP, power(1.7), IDENTITY)
        fv = np.array([[p.f(x) for x in self.REPS] for p in pairs]).reshape(2, 2, 4)
        fpv = np.array([[p.f_prime(x) for x in self.REPS] for p in pairs]).reshape(2, 2, 4)
        batched = _loewner_matrix(self.REPS, fv, fpv)
        assert batched.shape == (2, 2, 4, 4)
        for i in range(2):
            for j in range(2):
                single = _loewner_matrix(self.REPS, fv[i, j], fpv[i, j])
                assert np.array_equal(batched[i, j], single)


class TestFiniteDifferenceFrechet:
    def test_identity(self):
        # No truncation error for a linear function, so a large step keeps
        # the eigendecomposition noise of the oracle far below 1e-12.
        g = gen(220)
        a, m = random_hermitian(g, 3), random_hermitian(g, 3)
        out = finite_difference_frechet(a, m, IDENTITY, h=0.5)
        assert np.linalg.norm(out.matrix - m.matrix) <= 1e-12

    def test_square_second_order_accuracy(self):
        a = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        m = HermitianOperator(SIGMA_X)
        out = finite_difference_frechet(a, m, power(2.0), h=1e-4)
        assert np.linalg.norm(out.matrix - np.array([[0, 3], [3, 0]])) <= 1e-7

    def test_cross_oracle_fractional_power(self):
        g = gen(221)
        a = random_positive(g, 3)
        m = random_hermitian(g, 3)
        exact = frechet_derivative(a.op, m, power(0.37))
        fd = finite_difference_frechet(a.op, m, power(0.37), h=1e-5)
        rel = np.linalg.norm(exact.matrix - fd.matrix) / np.linalg.norm(fd.matrix)
        assert rel <= 1e-6


class TestDualize:
    def test_trace_functional_gives_identity(self):
        sample = sample_functional(lambda b: np.trace(b.matrix).real, 3)
        out = dualize(sample)
        assert np.linalg.norm(out.matrix - np.eye(3)) <= 1e-12

    def test_known_operator_recovered(self):
        g = gen(230)
        c = random_hermitian(g, 3)
        sample = sample_functional(lambda b: hs_inner(c, b), 3)
        assert np.linalg.norm(dualize(sample).matrix - c.matrix) <= 1e-12

    def test_incomplete_sample_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            LinearFunctionalSample(3, np.zeros(8))

    def test_relative_entropy_functional_dualizes_to_gradient(self):
        from dpisat.divergences import MeasureSpec, grad1
        from dpisat.linalg import matrix_function

        g = gen(231)
        rho, sigma = random_positive(g, 3), random_positive(g, 3)
        kernel = (
            matrix_function(rho.op, np.log).matrix
            - matrix_function(sigma.op, np.log).matrix
            + np.eye(3)
        )
        sample = sample_functional(
            lambda b: np.trace(kernel @ b.matrix).real, 3
        )
        closed = grad1(MeasureSpec.relative_entropy(), rho, sigma)
        assert np.linalg.norm(dualize(sample).matrix - closed.matrix) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    def test_roundtrip_is_identity(self, seed, n):
        g = gen(seed)
        target = random_hermitian(g, n)
        sample = sample_functional(lambda b: hs_inner(target, b), n)
        assert np.linalg.norm(dualize(sample).matrix - target.matrix) <= 1e-12


class TestNumericGradient:
    def test_trace_map(self):
        g = gen(240)
        at = random_hermitian(g, 3)
        out = numeric_gradient(lambda x: np.trace(x.matrix).real, at)
        assert np.linalg.norm(out.matrix - np.eye(3)) <= 1e-9

    def test_quadratic_trace_map(self):
        g = gen(241)
        at = random_hermitian(g, 3)
        out = numeric_gradient(lambda x: np.trace(x.matrix @ x.matrix).real, at)
        assert np.linalg.norm(out.matrix - 2.0 * at.matrix) <= 1e-6

    def test_probe_failure_identifies_direction(self):
        g = gen(242)
        at = random_hermitian(g, 2)

        def bad_map(x):
            raise RuntimeError("boom")

        with pytest.raises(NumericGradientError) as err:
            numeric_gradient(bad_map, at)
        assert err.value.direction_index == 0
        assert "direction 0" in str(err.value)
