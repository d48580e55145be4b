"""An eigensolver-free oracle for Frechet derivatives, from Stieltjes integrals.

For A > 0 and a Hermitian direction E, with ``R(t) = (A + t)^{-1}``:

    D log(A)[E]  = int_0^inf R(t) E R(t) dt,
    D A^p[E]     = (sin p pi / pi) int_0^inf t^p R(t) E R(t) dt   (0 < p < 1),
    log A        = int_0^inf ((1 + t)^{-1} - R(t)) dt,
    D(A log A)[E] = E log A + A D log(A)[E]                       (product rule).

Each integral is taken with the trapezoid rule in ``u = log t`` at step
``h = 0.5``. Every integrand is analytic in the strip ``|Im u| < pi``, so the
rule's error falls like ``exp(-2 pi^2 / h)``, about 1e-17 relative; the tails
are cut where they fall below ``exp(-40)``. The oracle takes linear solves
only, so it shares no code with the eigensystem path it judges (Bhatia,
*Matrix Analysis*, ch. V; Higham, *Functions of Matrices*, ch. 11).

The Renyi gradients are a scalar times the Frechet derivative of a power
along a direction; the scalar and the direction are formed with numpy's
``eigh``, and only the derivative is the oracle's.

The closed forms are judged at ``1e3 eps cond(A)``. The clustering of
``linalg._too_close`` merges small eigenvalues closer than 1e-8 in absolute
terms, where the closed form misses the oracle by 0.015 (x log x) to 0.60
(log), and moves two eigenvalues 1e-9 apart at 0.3 to their mean, where it
misses by about 1e-9. Those cases are strict expected failures until
clustering is gone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpisat.calculus import LOG, X_LOG_X, frechet_derivative, power
from dpisat.divergences import MeasureSpec, grad1, grad2
from dpisat.linalg import HermitianOperator, PositiveOperator

from _fixtures import gen, random_hermitian, random_unitary

_H = 0.5
_TAIL = 40.0
_EPS = np.finfo(float).eps


def _nodes(a: np.ndarray, low_decay: float, high_decay: float) -> np.ndarray:
    """Quadrature nodes ``t = e^u`` covering the spectrum of ``a``: the
    integrand decays like ``e^{low_decay u}`` below ``lambda_min`` and
    ``e^{-high_decay u}`` above ``lambda_max``. Both bounds come from
    Frobenius norms, ``lambda_max <= |A|_F`` and ``lambda_min >= 1/|A^-1|_F``."""
    lo = -math.log(np.linalg.norm(np.linalg.inv(a))) - _TAIL / low_decay
    hi = math.log(np.linalg.norm(a)) + _TAIL / high_decay
    return np.exp(np.arange(lo, hi + _H, _H))


def _resolvents(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``(A + t)^{-1}`` at every node, by linear solves."""
    eye = np.eye(a.shape[0])
    return np.linalg.solve(a[None] + t[:, None, None] * eye, np.broadcast_to(eye, (t.size,) + a.shape))


def _stieltjes(a: np.ndarray, e: np.ndarray, weight_power: float, low_decay: float, high_decay: float):
    """``int_0^inf t^weight_power R(t) E R(t) dt`` by the trapezoid rule in log t."""
    t = _nodes(a, low_decay, high_decay)
    r = _resolvents(a, t)
    w = _H * t ** (weight_power + 1.0)  # dt = t du
    return np.einsum("k,kij,jl,klm->im", w, r, e, r)


def oracle_dlog(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    return _stieltjes(a, e, 0.0, 1.0, 1.0)


def oracle_dpower(a: np.ndarray, e: np.ndarray, p: float) -> np.ndarray:
    assert 0.0 < p < 1.0
    return math.sin(p * math.pi) / math.pi * _stieltjes(a, e, p, 1.0 + p, 1.0 - p)


def oracle_log(a: np.ndarray) -> np.ndarray:
    t = _nodes(a, 1.0, 1.0)
    eye = np.eye(a.shape[0])
    integrand = eye[None] / (1.0 + t)[:, None, None] - _resolvents(a, t)
    return np.einsum("k,kij->ij", _H * t, integrand)


def oracle_dxlogx(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    # Both orders of the product rule are exact, as A and log A commute; their
    # mean is Hermitian.
    log_a, dlog = oracle_log(a), oracle_dlog(a, e)
    left, right = e @ log_a + a @ dlog, log_a @ e + dlog @ a
    return 0.5 * (left + right)


def oracle(a: np.ndarray, e: np.ndarray, name: str) -> np.ndarray:
    if name == "log":
        return oracle_dlog(a, e)
    if name == "x_log_x":
        return oracle_dxlogx(a, e)
    return oracle_dpower(a, e, float(name.removeprefix("power")))


PAIRS = {"log": LOG, "x_log_x": X_LOG_X, "power0.5": power(0.5), "power0.3": power(0.3)}


def rotated(spectrum, seed: int) -> tuple:
    """``U diag(spectrum) U^H`` for a seeded unitary U, and a seeded Hermitian
    direction of norm about 1."""
    g = gen(seed)
    u = random_unitary(g, len(spectrum))
    a = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return 0.5 * (a + a.conj().T), random_hermitian(g, len(spectrum)).matrix


def relative_miss(closed: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(closed - reference) / np.linalg.norm(reference))


def tolerance(spectrum) -> float:
    return 1e3 * _EPS * max(spectrum) / min(spectrum)


# Spread spectra: no two eigenvalues within the clustering tolerance.
SPREAD = {
    "unit": [0.1, 0.3, 0.6, 1.0],
    "cond1e3": [1e-3, 1e-2, 0.2, 1.0],
    "cond1e6": [1e-6, 1e-3, 0.05, 0.4, 1.0],
    "large": [0.5, 3.0, 40.0, 200.0],
}

# Eigenvalues that ``linalg._too_close`` merges. It judges closeness absolutely
# below 1, so on the small ones every registered function misses: log by
# 0.44-0.60, the powers by 0.22-0.45 and x log x by 0.015-0.033. The
# near-degenerate pair moves to its mean, by 5e-10: misses of 3e-10 to 2e-9.
CLUSTERED = {
    "near_zero_pair": [1e-9, 5e-9, 0.5, 1.0],
    "scaled_1e-10": [1e-10, 2e-10, 3e-10, 4e-10],
    "scaled_1e-13": [1e-13, 2e-13, 3e-13, 4e-13],
    "near_degenerate": [0.3, 0.3 + 1e-9, 0.6, 1.0],
}
CLUSTERING_DEFECT = (
    "linalg._too_close tests |a-b| <= tol*max(1,|a|,|b|), absolute below 1, so "
    "distinct small eigenvalues merge into one cluster, and a cluster's mean "
    "moves each of its eigenvalues"
)


class TestOracle:
    """The oracle against forms it shares nothing with: at a diagonal A the
    derivative along E is the Loewner matrix of f, written out entry by
    entry, times E entrywise."""

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_matches_divided_differences_at_a_diagonal(self, name):
        lam = np.array([1e-4, 0.02, 0.7, 5.0])
        e = random_hermitian(gen(3), 4).matrix
        f, fp = PAIRS[name].f, PAIRS[name].f_prime
        loewner = np.array([[fp(a) if i == j else (f(a) - f(b)) / (a - b)
                             for j, b in enumerate(lam)] for i, a in enumerate(lam)])
        assert relative_miss(oracle(np.diag(lam), e, name), loewner * e) <= 1e-13

    def test_log_matches_the_diagonal_log(self):
        lam = np.array([1e-9, 1e-3, 0.5, 30.0])
        assert np.abs(oracle_log(np.diag(lam)) - np.diag(np.log(lam))).max() <= 1e-12

    def test_about_190_nodes_at_unit_scale(self):
        assert 150 <= _nodes(np.diag([0.1, 1.0]), 1.0, 1.0).size <= 200


class TestFrechetAgainstOracle:
    @pytest.mark.parametrize("name", list(PAIRS))
    @pytest.mark.parametrize("label", list(SPREAD))
    def test_spread_spectra(self, label, name):
        spectrum = SPREAD[label]
        a, e = rotated(spectrum, seed=len(label))
        closed = frechet_derivative(HermitianOperator(a), HermitianOperator(e), PAIRS[name]).matrix
        assert relative_miss(closed, oracle(a, e, name)) <= tolerance(spectrum)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=CLUSTERING_DEFECT)
    @pytest.mark.parametrize("name", list(PAIRS))
    @pytest.mark.parametrize("label", list(CLUSTERED))
    def test_clustered_small_eigenvalues(self, label, name):
        spectrum = CLUSTERED[label]
        a, e = rotated(spectrum, seed=5)
        closed = frechet_derivative(HermitianOperator(a), HermitianOperator(e), PAIRS[name]).matrix
        assert relative_miss(closed, oracle(a, e, name)) <= tolerance(spectrum)


def spectrum_pair(spectrum, seed: int):
    """``(rho, sigma)`` with sigma of the given spectrum and a seeded rho."""
    sigma, _ = rotated(spectrum, seed)
    g = gen(seed + 100)
    x = g.normal(size=sigma.shape) + 1j * g.normal(size=sigma.shape)
    rho = x @ x.conj().T / sigma.shape[0] + 0.1 * np.eye(sigma.shape[0])
    return rho, sigma


class TestRelativeEntropyGrad2:
    """``grad2`` of ``tr r log r - tr r log s`` is ``-D log(s)[r]``."""

    @pytest.mark.parametrize("label", list(SPREAD))
    def test_spread_spectra(self, label):
        rho, sigma = spectrum_pair(SPREAD[label], seed=len(label))
        closed = grad2(MeasureSpec.relative_entropy(), PositiveOperator(HermitianOperator(rho)),
                       PositiveOperator(HermitianOperator(sigma))).matrix
        assert relative_miss(closed, -oracle_dlog(sigma, rho)) <= tolerance(SPREAD[label])

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=CLUSTERING_DEFECT)
    @pytest.mark.parametrize("label", list(CLUSTERED))
    def test_clustered_small_eigenvalues(self, label):
        spectrum = CLUSTERED[label]
        rho, sigma = spectrum_pair(spectrum, seed=5)
        closed = grad2(MeasureSpec.relative_entropy(), PositiveOperator(HermitianOperator(rho)),
                       PositiveOperator(HermitianOperator(sigma))).matrix
        assert relative_miss(closed, -oracle_dlog(sigma, rho)) <= tolerance(spectrum)


def spectral(a: np.ndarray, f) -> np.ndarray:
    """``f(A)`` for a Hermitian A, by numpy's ``eigh``."""
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return (v * f(w)) @ v.conj().T


def alpha_z_grad1_reference(rho, sigma, alpha: float, z: float) -> np.ndarray:
    """grad1 of ``log tr X^z / (a-1)``, ``X = s^g r^{a/z} s^g``, ``g = (1-a)/2z``:
    ``c D r^{a/z}[s^g X^{z-1} s^g]`` with ``c = z / ((a-1) tr X^z)``."""
    s_g = spectral(sigma, lambda w: w ** ((1.0 - alpha) / (2.0 * z)))
    x = s_g @ spectral(rho, lambda w: w ** (alpha / z)) @ s_g
    x_z1 = spectral(x, lambda w: w ** (z - 1.0))
    c = z / ((alpha - 1.0) * np.trace(x_z1 @ x).real)
    return c * oracle_dpower(rho, s_g @ x_z1 @ s_g, alpha / z)


def sandwiched_grad2_reference(rho, sigma, alpha: float) -> np.ndarray:
    """grad2 of ``log tr X^a / (a-1)``, ``X = s^g r s^g``, ``g = (1-a)/2a``:
    ``c D s^g[X^a s^-g + s^-g X^a]`` with ``c = a / ((a-1) tr X^a)``."""
    g = (1.0 - alpha) / (2.0 * alpha)
    s_g, s_neg_g = spectral(sigma, lambda w: w ** g), spectral(sigma, lambda w: w ** -g)
    x_a = spectral(s_g @ rho @ s_g, lambda w: w ** alpha)
    c = alpha / ((alpha - 1.0) * np.trace(x_a).real)
    return c * oracle_dpower(sigma, x_a @ s_neg_g + s_neg_g @ x_a, g)


def positive(a: np.ndarray) -> PositiveOperator:
    return PositiveOperator(HermitianOperator(a))


def renyi_chain_miss(piece: str, spectrum, seed: int) -> float:
    """The closed-form gradient's miss of its reference, on the state of the
    given spectrum (rho for grad1, sigma for grad2) and a seeded other state."""
    other, state = spectrum_pair(spectrum, seed)
    if piece == "alpha_z_grad1":  # D r^{7/9}
        rho, sigma = state, other
        closed = grad1(MeasureSpec.alpha_z(0.7, 0.9), *map(positive, (rho, sigma)))
        reference = alpha_z_grad1_reference(rho, sigma, 0.7, 0.9)
    else:  # sandwiched_grad2: D s^{1/3}
        rho, sigma = other, state
        closed = grad2(MeasureSpec.sandwiched_renyi(0.6), *map(positive, (rho, sigma)))
        reference = sandwiched_grad2_reference(rho, sigma, 0.6)
    return relative_miss(closed.matrix, reference)


RENYI_CHAIN = ("alpha_z_grad1", "sandwiched_grad2")


class TestRenyiChain:
    """alpha-z (0.7, 0.9) grad1 takes the Frechet derivative of r^{7/9}, and
    sandwiched alpha = 0.6 grad2 that of s^{1/3}."""

    @pytest.mark.parametrize("piece", RENYI_CHAIN)
    @pytest.mark.parametrize("label", list(SPREAD))
    def test_spread_spectra(self, label, piece):
        assert renyi_chain_miss(piece, SPREAD[label], seed=len(label)) <= tolerance(SPREAD[label])

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=CLUSTERING_DEFECT)
    @pytest.mark.parametrize("piece", RENYI_CHAIN)
    @pytest.mark.parametrize("label", list(CLUSTERED))
    def test_clustered_small_eigenvalues(self, label, piece):
        assert renyi_chain_miss(piece, CLUSTERED[label], seed=5) <= tolerance(CLUSTERED[label])
