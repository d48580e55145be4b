"""Frechet derivatives of matrix functions and Hilbert-Schmidt dualization.

The directional derivative of a spectral function ``f`` at a Hermitian
operator ``A = sum_j lambda_j P_j`` acting on a Hermitian direction ``M`` is

    df|_A(M) = sum_j f'(lambda_j) P_j M P_j
             + sum_{j != k} [(f(lambda_j) - f(lambda_k)) / (lambda_j - lambda_k)] P_j M P_k,

i.e. first divided differences off the diagonal blocks and ``f'`` on them.
One Frechet path, ``_frechet(spectrum, pair, direction)``, serves
:func:`frechet_derivative` and every closed-form gradient. Eigenvalue
clustering is decided in :mod:`dpisat.linalg`; a clustered eigensystem gives
each eigenvalue its cluster's representative, so the ``f'`` branch is taken
where representatives are equal, and this module reads no cluster ids and
needs no secondary degeneracy threshold.

Also provided: central finite-difference oracles for both the Frechet
derivative and scalar gradients, and the dualization that turns a linear
functional on Hermitian operators into the unique Hermitian gradient
operator under ``<A, B> = tr(AB)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_CLUSTER_TOL,
    HermitianOperator,
    MatrixFunctionDomainError,
    _operator,
    _scalar_values,
    _symmetrized,
    as_matrix,
    clustered_eigensystem,
    hermitize,
    matrix_function,
)

__all__ = [
    "ScalarFunctionPair",
    "LinearFunctionalSample",
    "NumericGradientError",
    "IDENTITY",
    "LOG",
    "EXP",
    "X_LOG_X",
    "NEG_LOG",
    "CHI_SQUARE",
    "power",
    "FUNCTION_REGISTRY",
    "resolve_function",
    "hermitian_basis",
    "sample_functional",
    "dualize",
    "frechet_derivative",
    "finite_difference_frechet",
    "numeric_gradient",
]


class NumericGradientError(RuntimeError):
    """A probe evaluation failed; carries the basis direction index."""

    def __init__(self, direction_index: int, message: str):
        self.direction_index = direction_index
        super().__init__(message)


def _sample_points(domain) -> np.ndarray:
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        return np.linspace(-3.0, 3.0, 20)
    if math.isinf(lo) or math.isinf(hi):  # 10^-2 .. 10^2 away from the finite end
        return hi - np.logspace(-2, 2, 20) if math.isinf(lo) else lo + np.logspace(-2, 2, 20)
    span = hi - lo
    return np.linspace(lo + 0.05 * span, hi - 0.05 * span, 20)


@dataclass(frozen=True, eq=False)
class ScalarFunctionPair:
    """A scalar function together with its analytic derivative.

    At construction the pair is self-checked: on 20 sampled points of the
    declared open ``domain``, a central difference of ``f`` with step
    ``1e-6 |x|`` must match ``f_prime`` to relative 1e-6; a point where
    either is not finite is skipped. This catches mismatched pairs early.

    ``value_at_zero`` records the continuous extension ``f(0+)`` where one
    exists; it is consulted when a function is applied to an operator with
    vanishing eigenvalues.
    """

    name: str
    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    domain: tuple = (-math.inf, math.inf)
    value_at_zero: float | None = None

    def __post_init__(self):
        for x in _sample_points(self.domain):
            h = 1e-6 * (abs(x) or 1.0)
            with np.errstate(all="ignore"):  # an overflow gives inf, and its point is skipped
                f_lo, f_hi, fp = self.f(x - h), self.f(x + h), self.f_prime(x)
                fd = (f_hi - f_lo) / (2.0 * h)
            if np.isfinite([f_lo, f_hi, fp]).all() and abs(fd - fp) > 1e-6 * max(1.0, abs(fp)):
                raise ValueError(
                    f"function pair {self.name!r} failed its derivative self-check "
                    f"at x={x!r}: finite difference {fd!r} vs declared {fp!r}"
                )


IDENTITY = ScalarFunctionPair("identity", lambda x: x, lambda x: 1.0, value_at_zero=0.0)
LOG = ScalarFunctionPair("log", np.log, lambda x: 1.0 / x, domain=(0.0, math.inf))
EXP = ScalarFunctionPair("exp", np.exp, np.exp)
X_LOG_X = ScalarFunctionPair(
    "x_log_x", lambda x: x * np.log(x), lambda x: np.log(x) + 1.0,
    domain=(0.0, math.inf), value_at_zero=0.0,
)
NEG_LOG = ScalarFunctionPair(
    "neg_log", lambda x: -np.log(x), lambda x: -1.0 / x, domain=(0.0, math.inf)
)
CHI_SQUARE = ScalarFunctionPair(
    "chi_square", lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
    domain=(0.0, math.inf), value_at_zero=1.0,
)


@lru_cache(maxsize=None)
def power(exponent: float) -> ScalarFunctionPair:
    """The power function ``x**exponent`` on the positive half line."""
    e = float(exponent)
    if not math.isfinite(e):
        raise ValueError(f"power requires a finite exponent, got {e!r}")
    if e == 0.0:
        return ScalarFunctionPair(
            "power[0]", lambda x: 1.0, lambda x: 0.0, domain=(0.0, math.inf),
            value_at_zero=1.0,
        )
    return ScalarFunctionPair(
        f"power[{e}]",
        lambda x: x ** e,
        lambda x: e * x ** (e - 1.0),
        domain=(0.0, math.inf),
        value_at_zero=0.0 if e > 0 else None,
    )


FUNCTION_REGISTRY = {
    "identity": IDENTITY,
    "log": LOG,
    "exp": EXP,
    "x_log_x": X_LOG_X,
    "neg_log": NEG_LOG,
    "chi_square": CHI_SQUARE,
}


def resolve_function(name: str, exponent: float | None = None) -> ScalarFunctionPair:
    """Look up a registered pair by name (``power`` requires an exponent)."""
    if name == "power":
        if exponent is None:
            raise ValueError("the 'power' function requires an exponent")
        return power(float(exponent))
    try:
        return FUNCTION_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scalar function {name!r}") from None


@lru_cache(maxsize=None)
def hermitian_basis(n: int):
    """Orthonormal basis of n x n Hermitian matrices under ``tr(AB)``.

    Order: the n diagonal units ``E_kk``; then for each pair k < l the
    symmetric element ``(E_kl + E_lk)/sqrt(2)`` followed by the antisymmetric
    element ``i (E_kl - E_lk)/sqrt(2)``.
    """
    basis = []
    for k in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[k, k] = 1.0
        basis.append(HermitianOperator(e))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[k, l] = sym[l, k] = inv_sqrt2
            basis.append(HermitianOperator(sym))
            anti = np.zeros((n, n), dtype=np.complex128)
            anti[k, l] = 1j * inv_sqrt2
            anti[l, k] = -1j * inv_sqrt2
            basis.append(HermitianOperator(anti))
    return tuple(basis)


@dataclass(frozen=True, eq=False)
class LinearFunctionalSample:
    """Values of a linear functional on the full canonical Hermitian basis.

    ``values[i]`` is the functional evaluated on ``hermitian_basis(dim)[i]``;
    a complete sample has exactly ``dim**2`` entries.
    """

    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.dim * self.dim,):
            raise ValueError(
                f"incomplete sample: expected {self.dim * self.dim} basis values, "
                f"got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def sample_functional(functional, dim: int) -> LinearFunctionalSample:
    """Evaluate a functional on every canonical Hermitian basis element."""
    vals = [float(functional(b)) for b in hermitian_basis(dim)]
    return LinearFunctionalSample(dim, np.array(vals))


def dualize(sample: LinearFunctionalSample) -> HermitianOperator:
    """The unique Hermitian G with ``tr(G B_i) = values[i]`` for all basis B_i.

    Since the basis is orthonormal, ``G = sum_i values[i] * B_i``.
    """
    basis = hermitian_basis(sample.dim)
    out = np.zeros((sample.dim, sample.dim), dtype=np.complex128)
    for val, b in zip(sample.values, basis):
        out += val * b.matrix
    return hermitize(out)


def _pair_values(x: np.ndarray, pair: ScalarFunctionPair, at_zero: float | None = None):
    """``f`` and ``f'`` at every entry of ``x``. Given ``at_zero``, an entry
    equal to 0 takes ``(at_zero, 0)``; every other entry must lie in the
    pair's domain, where both values must be finite."""
    live = None if at_zero is None else x != 0.0
    pts = x if live is None or live.all() else x[live]
    lo, hi = pair.domain
    inside = (lo < pts) & (pts < hi)
    if not inside.all():
        bad = float(pts[~inside][0])
        raise MatrixFunctionDomainError(bad, f"{pair.name} is undefined at {bad!r}")
    with np.errstate(all="ignore"):
        fvals, fpvals = _scalar_values(pair.f, pts), _scalar_values(pair.f_prime, pts)
    finite = np.isfinite(fvals) & np.isfinite(fpvals)
    if not finite.all():
        bad = float(pts[~finite][0])
        raise MatrixFunctionDomainError(bad, f"{pair.name} or its derivative is undefined at {bad!r}")
    if pts is x:
        return fvals, fpvals
    fx, fpx = np.full(x.shape, float(at_zero)), np.zeros(x.shape)
    fx[live], fpx[live] = fvals, fpvals
    return fx, fpx


def _loewner_matrix(reps, fvals, fpvals) -> np.ndarray:
    """Divided-difference kernel ``[..., n, n]`` from ``f``/``f'`` at the cluster
    representatives ``reps``, batched over any leading axes of ``fvals``/``fpvals``
    (the f-divergence gradients use one). Equal representatives -> f', distinct
    -> first divided difference; they are equal exactly within a cluster, as
    clusters are split by more than the tolerance and a mean lies inside its run."""
    same = reps[:, None] == reps[None, :]
    denom = np.where(same, 1.0, reps[:, None] - reps[None, :])
    kernel = (fvals[..., :, None] - fvals[..., None, :]) / denom
    return np.where(same, fpvals[..., :, None], kernel)


def _frechet(spectrum, pair: ScalarFunctionPair, m: np.ndarray, at_zero: float | None = None) -> np.ndarray:
    """``V (K o V^H M V) V^H``, symmetrized: the Frechet derivative along ``m``
    of the matrix function of ``pair`` at the clustered eigensystem
    ``spectrum = (reps, V)``, K its Loewner kernel from :func:`_pair_values`
    (``at_zero`` as there)."""
    reps, v = spectrum
    kernel = _loewner_matrix(reps, *_pair_values(reps, pair, at_zero))
    return _symmetrized(v @ (kernel * (v.conj().T @ m @ v)) @ v.conj().T)


def frechet_derivative(A, M, fp: ScalarFunctionPair,
                       cluster_tol: float = DEFAULT_CLUSTER_TOL) -> HermitianOperator:
    """Directional derivative of the matrix function ``fp.f`` at A along M.

    Linear in M. A and M must be Hermitian: an array is admitted as a
    :class:`HermitianOperator`.
    """
    a, m = _operator(A), _operator(M)
    if a.dim != m.dim:
        raise ValueError(f"dimension mismatch: {a.matrix.shape} vs {m.matrix.shape}")
    # (reps, vectors): equal representatives mark a cluster, so its ids are not read.
    return hermitize(_frechet(clustered_eigensystem(a, cluster_tol)[::2], fp, m.matrix))


def finite_difference_frechet(A, M, f, h: float = 1e-5) -> HermitianOperator:
    """Central-difference oracle ``(f(A + hM) - f(A - hM)) / (2h)``."""
    a, m = as_matrix(A), as_matrix(M)
    plus = matrix_function(hermitize(a + h * m), f)
    minus = matrix_function(hermitize(a - h * m), f)
    return hermitize((plus.matrix - minus.matrix) / (2.0 * h))


def numeric_gradient(scalar_map, at) -> HermitianOperator:
    """Finite-difference gradient of a scalar function of a Hermitian operator.

    Central differences along every canonical basis direction with step
    ``h = 1e-5 * max(1, ||at||_F)``, dualized into a Hermitian operator.
    The estimate carries an O(h^2) bias.
    """
    base = as_matrix(at)
    n = base.shape[0]
    h = 1e-5 * max(1.0, float(np.linalg.norm(base)))
    vals = np.empty(n * n)
    for i, b in enumerate(hermitian_basis(n)):
        try:
            f_plus = float(scalar_map(hermitize(base + h * b.matrix)))
            f_minus = float(scalar_map(hermitize(base - h * b.matrix)))
        except Exception as exc:
            raise NumericGradientError(
                i, f"scalar map failed while probing basis direction {i}: {exc}"
            ) from exc
        vals[i] = (f_plus - f_minus) / (2.0 * h)
    return dualize(LinearFunctionalSample(n, vals))
