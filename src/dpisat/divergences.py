"""Quantum distinguishability measures and their closed-form matrix gradients.

Five families are supported, all with natural logarithms and without any
normalization requirement on the states:

* relative entropy        ``D(r||s) = tr(r log r) - tr(r log s)``
* fidelity                ``F(r, s) = tr sqrt(sqrt(s) r sqrt(s))``
  (monotone *increasing* under channels, hence ``sign = -1``)
* sandwiched Renyi        ``(1/(a-1)) log tr[(s^g r s^g)^a]``, ``g = (1-a)/(2a)``
* alpha-z Renyi           ``(1/(a-1)) log tr[(s^g r^{a/z} s^g)^z]``, ``g = (1-a)/(2z)``
* f-divergence            ``sum_{jk} mu_k f(p_j/mu_k) tr(P_j Q_k)`` over the
  spectra ``r = sum p_j P_j`` and ``s = sum mu_k Q_k``

A family's rules, and which saturation checks apply to it, live in its row
of ``_FAMILY_TABLE``; no other code names a family.

Fidelity and sandwiched Renyi are the points ``(1/2, 1/2)`` and ``(a, a)`` of
the alpha-z quasi-entropy ``Q = tr X^z``, ``X = s^g r^{a/z} s^g`` (``F = Q``),
and share its core, value and gradient path. For ``z < 1`` the first gradient
reads ``X^{z-1}``, so it raises :class:`PositivityError` unless X is positive
on the support of r. The fidelity's second gradient is the closed form
``(1/2) s^{-1/2} X^{1/2} s^{-1/2}`` on the same core ``X = s^{1/2} r s^{1/2}``,
which needs no inverse power of X, so it holds at a rank-deficient r too.

Parameter combinations outside the known data-processing regions are
rejected at construction unless explicitly overridden. Every gradient, in
either argument, is closed form; the f-divergence ones use the Petz form
``sum_j tr P_j g_j(s)``, ``g_j(mu) = mu f(p_j/mu)`` (Hiai, Mosonyi, Petz and
Beny, Rev. Math. Phys. 23, 2011). A rank-deficient :class:`PsdOperator`
first state stays on the boundary of the PSD cone in every public function;
there every family with a value has its first gradient on the tangent space:
its row's closed form, projected once, in ``_grad1``.

A state pair clusters the spectra of rho and sigma once, in
``_Pair.spectrum``; the f-divergence table and every closed-form gradient
read them, the Frechet ones through ``calculus._frechet(spectrum, pair,
direction)``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import (
    LOG,
    ScalarFunctionPair,
    _frechet,
    _loewner_matrix,
    _pair_values,
    power,
    resolve_function,
)
from .linalg import (
    HermitianOperator,
    PositivityError,
    PsdOperator,
    SchemaError,
    _as_positive,
    _as_psd,
    _eigh,
    _fields,
    _logm,
    _number,
    _powm,
    _schema_at,
    _spectral_map,
    _spectrum,
    _symmetrized,
    clustered_eigensystem,
    hermitize,
)

__all__ = [
    "FAMILIES",
    "MeasureSpec",
    "ScalingCheck",
    "evaluate",
    "evaluate_psd",
    "grad1",
    "grad2",
    "grad2_method",
    "scaling_check",
    "measure_to_json",
    "measure_from_json",
]

_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A tagged choice of distinguishability measure with its parameters.

    ``sign`` is +1 when the measure decreases under channels and -1 when it
    increases (fidelity, and f-divergences built from operator-concave
    powers); it is the family's, and only a caller-asserted f may give its
    own. ``allow_non_dpi`` admits Renyi parameters outside the known
    data-processing regions, and power f-divergence exponents above 2; the
    pole at ``alpha = 1`` and the linear power ``x^1`` are always rejected.
    """

    family: str
    alpha: float | None = None
    z: float | None = None
    f_pair: ScalarFunctionPair | None = None
    f_name: str | None = None
    f_asserted: bool = False
    sign: int | None = None
    allow_non_dpi: bool = False

    def __post_init__(self):
        if self.family not in _FAMILY_TABLE:
            raise ValueError(f"unknown measure family {self.family!r}")
        fields = _measure_fields(self.family, self.f_name)
        given = {"alpha": self.alpha, "z": self.z, "f": self.f_pair}
        unused = [key for key, val in given.items() if val is not None and key not in fields]
        if unused:
            raise ValueError(f"{self.family} takes no {' or '.join(unused)} parameter")
        for key in ("alpha", "z"):
            if given[key] is not None and not math.isfinite(given[key]):
                raise ValueError(f"{self.family} requires a finite {key}, got {given[key]!r}")
        self._row.check(self)
        sign = self._row.sign(self)
        if self.sign is None:
            object.__setattr__(self, "sign", sign)
        elif self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        elif self.sign != sign and not (self.f_asserted and "f" in fields):
            raise ValueError(f"sign={self.sign} contradicts the {self.family} sign {sign}; only a "
                             "caller-asserted f may set its own")

    @property
    def _row(self) -> _Family:
        """The family's row of the family table."""
        return _FAMILY_TABLE[self.family]

    @property
    def gamma(self) -> float | None:
        """Sandwich exponent: (1-a)/(2a) sandwiched, (1-a)/(2z) alpha-z."""
        if not self._row.renyi:
            return None
        alpha, z = self._row.point(self)
        return (1.0 - alpha) / (2.0 * z)

    # -- constructors -------------------------------------------------------

    @classmethod
    def relative_entropy(cls) -> "MeasureSpec":
        return cls("relative_entropy")

    @classmethod
    def fidelity(cls) -> "MeasureSpec":
        return cls("fidelity")

    @classmethod
    def sandwiched_renyi(cls, alpha: float, allow_non_dpi: bool = False) -> "MeasureSpec":
        return cls("sandwiched_renyi", alpha=float(alpha), allow_non_dpi=allow_non_dpi)

    @classmethod
    def alpha_z(cls, alpha: float, z: float, allow_non_dpi: bool = False) -> "MeasureSpec":
        return cls("alpha_z", alpha=float(alpha), z=float(z), allow_non_dpi=allow_non_dpi)

    @classmethod
    def f_divergence(cls, f="x_log_x", alpha: float | None = None, sign: int | None = None,
                     caller_asserted: bool = False, allow_non_dpi: bool = False) -> "MeasureSpec":
        """Build from a registered name ('x_log_x', 'neg_log', 'chi_square',
        'power' with exponent ``alpha``) or from a custom pair, which must be
        caller-asserted."""
        pair, name = (resolve_function(f, exponent=alpha), f) if isinstance(f, str) else (f, f.name)
        return cls("f_divergence", alpha=alpha, f_pair=pair, f_name=name, f_asserted=caller_asserted,
                   sign=sign, allow_non_dpi=allow_non_dpi)


class _TangentProjection:
    """``M -> M - Q M Q``, the orthogonal projection onto the tangent space of
    the PSD cone at a :class:`PsdOperator` rho, with ``P`` the support
    projector of rho and ``Q = 1 - P``; M may be a stack of matrices."""

    def __init__(self, rho: PsdOperator):
        self.p = _symmetrized(_spectral_map(rho, np.ones_like))
        self.q = np.eye(rho.dim) - self.p

    def __call__(self, m: np.ndarray) -> np.ndarray:
        return m - self.q @ m @ self.q


def _checked_pair(rho, sigma, *error) -> "_Pair":
    """The pair of every public function, and the one rule for where rho
    lives: a rank-deficient :class:`PsdOperator` on the boundary, any other
    rho strictly positive, as sigma is; ``error`` goes to :func:`_as_positive`."""
    if not (isinstance(rho, PsdOperator) and rho.rank < rho.dim):
        rho = _as_positive(rho, "rho", *error)
    sigma = _as_positive(sigma, "sigma", *error)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: rho is {rho.dim}, sigma is {sigma.dim}")
    return _Pair(rho, sigma)


# A Renyi core: its symmetrized array and clamped ``(w, v)``, the shape that
# ``_spectrum`` and ``_powm`` read.
_Core = namedtuple("_Core", "matrix eigensystem")


class _Pair:
    """A state pair (rho positive, or PSD on the boundary; sigma positive, so
    a core's only kernel is rho's) whose spectral cores are each formed and
    eigensolved once, then shared by the value, both gradients and the alpha-z
    cross-check operators."""

    def __init__(self, rho, sigma):
        self.rho, self.sigma = rho, sigma
        self._cores, self._fdiv, self._spectra = {}, {}, {}

    def core(self, gamma: float, p: float):
        """``(s^gamma, X)``, ``X = s^gamma r^p s^gamma``: the alpha-z core at
        ``p = a/z``; ``p = 1`` takes r itself, since ``r^1 = r``.

        X is a :class:`_Core`: positive semidefinite by construction, so it
        is eigensolved once, with roundoff below zero clamped to zero and the
        ``kernel`` eigenvalues on the kernel of rho set to exactly zero: no
        roundoff there reaches a power below 1."""
        key = (gamma, p)
        if key not in self._cores:
            s_g = _powm(self.sigma, gamma)
            r = self.rho.matrix if p == 1.0 else _powm(self.rho, p)
            x = _symmetrized(s_g @ r @ s_g)
            wx, vx = _eigh(x)
            wx = np.maximum(wx, 0.0)
            wx[:self.kernel] = 0.0
            self._cores[key] = s_g, _Core(x, (wx, vx))
        return self._cores[key]

    def core_power(self, gamma: float, p: float, outer: float, exponent: float) -> np.ndarray:
        """``s^outer X^exponent s^outer`` for the core ``X`` of ``(gamma, p)``."""
        s_g, x = self.core(gamma, p)
        s_outer = s_g if outer == gamma else _powm(self.sigma, outer)
        return s_outer @ _powm(x, exponent) @ s_outer

    def fdiv_table(self, pair: ScalarFunctionPair):
        """``(x, f(x), f'(x))`` with ``x = p_a/mu_k``, formed once per ``pair``
        and shared by the f-divergence value and both gradients; at a
        vanishing ``p_a`` the continuous extension ``f(0+)`` and 0 stand in."""
        if pair not in self._fdiv:
            p, mu = self.spectrum("rho")[0], self.spectrum("sigma")[0]
            if pair.value_at_zero is None and not p.all():
                raise ValueError(f"f-divergence {pair.name!r} has no continuous extension at 0")
            x = p[None, :] / mu[:, None]
            self._fdiv[pair] = (x, *_pair_values(x, pair, pair.value_at_zero))
        return self._fdiv[pair]

    @cached_property
    def kernel(self) -> int:
        """The dimension of the kernel of rho: nonzero only for a
        rank-deficient :class:`PsdOperator`, on the boundary of the cone."""
        return int(np.count_nonzero(_spectrum(self.rho)[0] == 0.0))

    @cached_property
    def tangent(self) -> _TangentProjection:
        """The projection onto the tangent space of the PSD cone at rho."""
        return _TangentProjection(self.rho)

    @cached_property
    def log_support(self) -> np.ndarray:
        """``log r`` on the support of rho, zero on its kernel: the one support
        logarithm, read by the relative entropy's first gradient at every rank
        and by the Hiai residual."""
        return _logm(self.rho)

    @cached_property
    def log_sigma(self) -> np.ndarray:
        """The logarithm of sigma."""
        return _logm(self.sigma)

    def spectrum(self, state: str):
        """``(reps, V)`` of ``state``, "rho" or "sigma": the only clustering in
        this module. Equal representatives mark a cluster; the ids are dropped."""
        if state not in self._spectra:
            self._spectra[state] = clustered_eigensystem(getattr(self, state))[::2]
        return self._spectra[state]

    @cached_property
    def overlap(self) -> np.ndarray:
        """``W = V_s^H V_r``, the overlap of the eigenvectors of sigma and rho."""
        return self.spectrum("sigma")[1].conj().T @ self.spectrum("rho")[1]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def _fdiv_value(pair: ScalarFunctionPair, pt: _Pair) -> float:
    """``sum_{k,a} mu_k f(p_a/mu_k) |W_ka|^2`` with ``W = V_s^H V_r``; ``f(0+)``
    stands in at vanishing ``p_a``."""
    mu = pt.spectrum("sigma")[0]
    fx = pt.fdiv_table(pair)[1]
    return float(np.sum(mu[:, None] * fx * np.abs(pt.overlap) ** 2))


# A pair's alpha-z core X, the value from ``Q = tr X^z`` and ``c = z dvalue/dQ``.
_QuasiEntropy = namedtuple("_QuasiEntropy", "alpha z gamma core value chain")


def _quasi_entropy(m: MeasureSpec, pt: _Pair) -> _QuasiEntropy:
    """The alpha-z quasi-entropy ``Q = tr X^z``, ``X = s^g r^{a/z} s^g`` with
    ``g = (1-a)/(2z)``, at the family's point ``(a, z)``: the fidelity is
    ``F = Q`` at ``(1/2, 1/2)``, a Renyi family is ``log Q / (a-1)``."""
    alpha, z = m._row.point(m)
    gamma = (1.0 - alpha) / (2.0 * z)
    x = pt.core(gamma, alpha / z)[1]
    q = float(np.sum(x.eigensystem[0] ** z))
    value, c = (math.log(q) / (alpha - 1.0), z / ((alpha - 1.0) * q)) if m._row.renyi else (q, z)
    return _QuasiEntropy(alpha, z, gamma, x, value, c)


def _relent_value(m: MeasureSpec, pt: _Pair) -> float:
    wr = _spectrum(pt.rho)[0]
    pos = wr > 0.0
    entropy = np.sum(wr[pos] * np.log(wr[pos]))
    return float(entropy - np.real(np.trace(pt.rho.matrix @ pt.log_sigma)))


def _value(m: MeasureSpec, pt: _Pair) -> float:
    """The measure at a pair; a :class:`PsdOperator` first state takes the
    continuous extension onto the boundary."""
    return m._row.value(m, pt)


def evaluate(m: MeasureSpec, rho, sigma) -> float:
    """Value of the measure; a rank-deficient :class:`PsdOperator` rho takes its continuous extension."""
    return _value(m, _checked_pair(rho, sigma))


def evaluate_psd(m: MeasureSpec, rho: PsdOperator, sigma) -> float:
    """Value of the measure with a positive *semidefinite* first argument.

    Each family is extended continuously onto the boundary: the relative
    entropy through the support-restricted logarithm, the Renyi families
    through zero-preserving powers, f-divergences through ``f(0+)`` where it
    exists. It is :func:`evaluate` at ``rho`` as a :class:`PsdOperator`.
    """
    return evaluate(m, _as_psd(rho), sigma)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def _fdiv_grad(pair: ScalarFunctionPair, pt: _Pair, slot: int) -> np.ndarray:
    """Closed-form f-divergence gradient in argument ``slot`` (1 or 2).

    The value is ``sum_k tr Q_k h_k(r) = sum_a tr P_a g_a(s)`` with
    ``h_k(p) = mu_k f(p/mu_k)`` and ``g_a(mu) = mu f(p_a/mu)``. With
    ``W = V_s^H V_r`` and ``x = p_a/mu_k``, in the differentiated state's
    eigenbasis, slot 1 is ``sum_k conj(W_ka) W_kb h_k^[1](p_a, p_b)`` (same
    cluster: ``f'(x)``) and slot 2 is ``sum_a W_ka conj(W_la) g_a^[1](mu_k, mu_l)``
    (same cluster: ``f(x) - x f'(x)``).

    A vanishing ``p_b`` takes ``h_k(0) = mu_k f(0+)``, so the support-kernel
    entries are ``(h_k(p_a) - h_k(0)) / p_a``, and ``f'`` is 0 on the
    kernel-kernel block, which the tangent space of the PSD cone drops.
    """
    (p, vr), (mu, vs) = pt.spectrum("rho"), pt.spectrum("sigma")
    x, fx, fpx = pt.fdiv_table(pair)
    w = pt.overlap
    vals = mu[:, None] * fx
    if slot == 1:
        g = np.einsum("ka,kb,kab->ab", w.conj(), w, _loewner_matrix(p, vals, fpx))
        v = vr
    else:
        kernel = _loewner_matrix(mu, vals.T, (fx - x * fpx).T)
        g = np.einsum("ka,la,akl->kl", w, w.conj(), kernel)
        v = vs
    return _symmetrized(v @ g @ v.conj().T)


def _relent_grad1(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    return _symmetrized(pt.log_support - pt.log_sigma + np.eye(pt.rho.dim))


def _quasi_grad1(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    alpha, z, gamma, x, _, c = _quasi_entropy(m, pt)
    if z < 1.0 and (x.eigensystem[0][pt.kernel:] <= 0.0).any():
        raise PositivityError("a gradient with z < 1 needs s^g r^{a/z} s^g > 0 off the kernel of r")
    w = pt.core_power(gamma, alpha / z, gamma, z - 1.0)
    if alpha / z == 1.0:  # r -> r is linear: its Frechet derivative is the identity
        return _symmetrized(c * w)
    # The Frechet derivative of r^{a/z} along w, with 0^{a/z} = 0.
    return c * _frechet(pt.spectrum("rho"), power(alpha / z), _symmetrized(w), at_zero=0.0)


def _grad1(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    """Gradient in the first argument, symmetrized: the family row's closed
    form, the same operations at every rank with 0 on the kernel of rho,
    projected here, once, onto the tangent space of the PSD cone at a
    rank-deficient :class:`PsdOperator` rho (``M - Q M Q`` with Q the kernel
    projector, which drops the kernel-kernel block). The quasi-entropies need
    ``X > 0`` on the support of rho when ``z < 1``; ``r^{a/z}`` (unless
    ``a = z``) and the f-divergences take divided differences with ``h(0)``
    from the continuous extension."""
    g = m._row.grad1(m, pt)
    return _symmetrized(pt.tangent(g)) if pt.kernel else g


def _relent_grad2(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    return -_frechet(pt.spectrum("sigma"), LOG, pt.rho.matrix)


def _renyi_grad2(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    _, z, gamma, x, _, c = _quasi_entropy(m, pt)
    x_z = _powm(x, z)
    s_neg_g = _powm(pt.sigma, -gamma)
    anti = _symmetrized(x_z @ s_neg_g + s_neg_g @ x_z)
    return c * _frechet(pt.spectrum("sigma"), power(gamma), anti)


def _grad2(m: MeasureSpec, pt: _Pair) -> np.ndarray:
    """Gradient in the second argument, symmetrized."""
    return m._row.grad2(m, pt)


def grad1(m: MeasureSpec, rho, sigma) -> HermitianOperator:
    """Matrix gradient of the measure with respect to its first argument, on
    the tangent space of the PSD cone at a rank-deficient :class:`PsdOperator`."""
    return hermitize(_grad1(m, _checked_pair(rho, sigma)))


def grad2(m: MeasureSpec, rho, sigma) -> HermitianOperator:
    """Matrix gradient with respect to the second argument, in closed form
    for every family."""
    return hermitize(_grad2(m, _checked_pair(rho, sigma)))


def grad2_method(m: MeasureSpec) -> str:
    """How :func:`grad2` computes ``m`` (the v1 report field): always ``"closed_form"``."""
    return "closed_form"


# ---------------------------------------------------------------------------
# Scalar-multiplication law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingCheck:
    """Both sides of the Renyi scalar-multiplication identity."""

    lhs: float
    rhs: float


def scaling_check(m: MeasureSpec, rho, sigma, k: float, k_prime: float) -> ScalingCheck:
    """Evaluate ``D(k r, k' s)`` against ``D(r, s) + a/(a-1) ln k - ln k'``,
    both at strictly positive pairs: a rank-deficient rho is refused.

    Only the Renyi families transform by this additive law.
    """
    if not m._row.renyi:
        raise ValueError("scaling_check applies to the Renyi families only")
    if not (k > 0.0 and k_prime > 0.0):
        raise ValueError("scale factors must be strictly positive")
    pt = _checked_pair(_as_positive(rho, "rho"), sigma)
    scaled = _checked_pair(k * pt.rho.matrix, k_prime * pt.sigma.matrix)
    return ScalingCheck(lhs=_value(m, scaled), rhs=m._row.scaling(m, pt, _value(m, pt), k, k_prime))


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------


def _in_alpha_z_dpi_region(alpha: float, z: float) -> bool:
    if 0.0 < alpha < 1.0:
        return z >= max(alpha, 1.0 - alpha) - _EPS
    if 1.0 < alpha <= 2.0:
        return alpha / 2.0 - _EPS <= z <= alpha + _EPS
    if alpha > 2.0:
        return alpha - 1.0 - _EPS <= z <= alpha + _EPS
    return False


def _check_renyi(m: MeasureSpec) -> None:
    """The Renyi parameters at the point ``(a, z)``; the sandwiched line
    ``z = a`` meets the alpha-z data-processing region at ``a >= 1/2``."""
    if m.alpha is None or not m.alpha > 0.0:
        raise ValueError(f"{m.family} requires alpha > 0")
    if abs(m.alpha - 1.0) < _EPS:
        raise ValueError("alpha = 1 is a pole of the Renyi families; use relative_entropy")
    alpha, z = m._row.point(m)
    if z is None or not z > 0.0:
        raise ValueError(f"{m.family} requires z > 0")
    if not m.allow_non_dpi and not _in_alpha_z_dpi_region(alpha, z):
        params = ", ".join(f"{key}={getattr(m, key)}" for key in m._row.fields)
        raise ValueError(f"({params}) is outside the data-processing region; "
                         "pass allow_non_dpi=True to override")


# Registered operator-monotonicity-safe f's for the f-divergence family.
_F_REGISTRY_NAMES = ("x_log_x", "neg_log", "chi_square", "power")


def _check_f(m: MeasureSpec) -> None:
    if m.f_pair is None:
        raise ValueError("f_divergence requires a scalar function pair")
    if m.f_name not in _F_REGISTRY_NAMES and not m.f_asserted:
        raise ValueError(
            "custom f-divergence functions must be explicitly asserted "
            "as operator convex (caller_asserted=True)"
        )
    if m.f_name == "power" and not m.f_asserted:
        top, region = (np.inf, "(1,inf)") if m.allow_non_dpi else (2.0, "(1,2]")
        if m.alpha is None or not 0.0 < m.alpha <= top or abs(m.alpha - 1.0) < _EPS:
            raise ValueError(
                "registered power f-divergences need an exponent in (0,1) or "
                f"{region}; assert custom exponents explicitly"
            )


def _f_recovers(m: MeasureSpec) -> bool:
    # Hiai, Mosonyi, Petz and Beny, Rev. Math. Phys. 23, 691 (2011): equality
    # implies reversibility for an operator convex f whose integral
    # representation has a measure with enough support points. x log x,
    # -log x and x^a (0 < a < 2, a != 1) have one; the quadratics chi_square
    # and x^2 have none, and a caller-asserted f is not vetted here.
    if m.f_asserted:
        return False
    return m.f_name in ("x_log_x", "neg_log") or m.f_name == "power" and m.alpha < 2.0


def _quasi_value(m: MeasureSpec, pt: _Pair) -> float:
    return _quasi_entropy(m, pt).value


def _renyi_scaling(m: MeasureSpec, pt: _Pair, base: float, k: float, k_prime: float) -> float:
    return base + m.alpha / (m.alpha - 1.0) * math.log(k) - math.log(k_prime)


# One measure family: ``fields``, its JSON fields besides "family" and
# "allow_non_dpi"; ``check(m)`` raises ValueError on bad parameters; ``sign(m)``;
# ``value``, ``grad1`` and ``grad2`` at ``(m, pt)``; ``recovers(m)``: saturation
# implies recovery by the Petz map; ``point(m)``, its alpha-z quasi-entropy
# point (a, z); ``scaling(m, pt, base, k, k')``, ``B(k r, k' s)`` by its scaling
# law from ``base = B(r, s)``; ``renyi``: the value is ``log Q/(a-1)``, so the
# alpha-z cross-check and :func:`scaling_check` apply; ``support_log``: the
# support-logarithm boundary residuals are recoverability conditions.
_Family = namedtuple(
    "_Family", "fields check sign value grad1 grad2 recovers point scaling renyi support_log",
    defaults=(None, None, False, False),
)

_FAMILY_TABLE = {
    "relative_entropy": _Family(
        (), lambda m: None, lambda m: 1, _relent_value, _relent_grad1, _relent_grad2,
        lambda m: True,  # Petz, Commun. Math. Phys. 105, 123 (1986)
        scaling=lambda m, pt, base, k, k_prime: (
            k * base + k * float(np.real(np.trace(pt.rho.matrix))) * (math.log(k) - math.log(k_prime))
        ),
        support_log=True,
    ),
    "fidelity": _Family(
        (), lambda m: None, lambda m: -1, _quasi_value, _quasi_grad1,
        # grad2 is half of s^-1/2 (s^1/2 r s^1/2)^1/2 s^-1/2. A measurement in that
        # operator's eigenbasis keeps F (Fuchs and Caves); its classical output
        # gives back no non-commuting pair.
        lambda m, pt: _symmetrized(0.5 * pt.core_power(0.5, 1.0, -0.5, 0.5)),
        lambda m: False, point=lambda m: (0.5, 0.5),
        scaling=lambda m, pt, base, k, k_prime: math.sqrt(k * k_prime) * base,
    ),
    "sandwiched_renyi": _Family(
        ("alpha",), _check_renyi, lambda m: 1, _quasi_value, _quasi_grad1, _renyi_grad2,
        # Jencova, J. Phys. A 50, 085303 (2017) for a > 1, and Ann. Henri
        # Poincare 22, 3235 (2021) for 1/2 < a < 1.
        lambda m: m.alpha > 0.5, point=lambda m: (m.alpha, m.alpha), scaling=_renyi_scaling, renyi=True,
    ),
    "alpha_z": _Family(
        ("alpha", "z"), _check_renyi, lambda m: 1, _quasi_value, _quasi_grad1, _renyi_grad2,
        # The sandwiched line, and z = 1, which has the power f-divergence's Q (_f_recovers).
        lambda m: m.z == m.alpha > 0.5 or m.z == 1.0 and 0.0 < m.alpha < 2.0,
        point=lambda m: (m.alpha, m.z), scaling=_renyi_scaling, renyi=True,
    ),
    "f_divergence": _Family(
        ("f",), _check_f,
        # x^a with 0 < a < 1 is operator concave: the reversed inequality.
        lambda m: -1 if m.f_name == "power" and m.alpha is not None and 0.0 < m.alpha < 1.0 else 1,
        lambda m, pt: _fdiv_value(m.f_pair, pt),
        lambda m, pt: _fdiv_grad(m.f_pair, pt, 1),
        lambda m, pt: _fdiv_grad(m.f_pair, pt, 2), _f_recovers,
    ),
}
FAMILIES = tuple(_FAMILY_TABLE)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def _measure_fields(family: str, f_name) -> tuple:
    fields = _FAMILY_TABLE[family].fields
    return fields + ("alpha",) if f_name == "power" else fields


def measure_to_json(m: MeasureSpec) -> dict:
    out: dict = {"family": m.family}
    for key in _measure_fields(m.family, m.f_name):
        out[key] = m.f_name if key == "f" else getattr(m, key)
    if m.allow_non_dpi:
        out["allow_non_dpi"] = True
    return out


def measure_from_json(obj, path: str = "measure", allow_non_dpi: bool = False) -> MeasureSpec:
    # A field no family defines is named before the family is read.
    any_field = {"allow_non_dpi"}.union(*(row.fields for row in _FAMILY_TABLE.values()))
    family = _fields(obj, path, ("family",), any_field, "an object with a 'family' field")["family"]
    if family not in FAMILIES:
        raise SchemaError(f"{path}.family", f"unknown family {family!r}")
    fields = _measure_fields(family, obj.get("f"))
    _fields(obj, path, fields, ("family", "allow_non_dpi"))
    allow = obj.get("allow_non_dpi", False)
    if not isinstance(allow, bool):
        raise SchemaError(f"{path}.allow_non_dpi", f"expected true or false, got {allow!r}")
    # A family without parameters has no data-processing region to leave.
    allow = (allow or allow_non_dpi) and bool(_FAMILY_TABLE[family].fields)
    params = {key: _number(obj[key], f"{path}.{key}") for key in fields if key != "f"}
    with _schema_at(path):
        if "f" in fields:
            if not isinstance(obj["f"], str):
                raise SchemaError(f"{path}.f", f"{family} requires a registered 'f' name")
            params.update(f_name=obj["f"], f_pair=resolve_function(obj["f"], exponent=params.get("alpha")))
        return MeasureSpec(family, **params, allow_non_dpi=allow)
