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

Parameter combinations outside the known data-processing regions are
rejected at construction unless explicitly overridden. Every gradient, in
either argument, is closed form; the f-divergence ones use the Petz form
``sum_j tr P_j g_j(s)``, ``g_j(mu) = mu f(p_j/mu)`` (Hiai, Mosonyi, Petz and
Beny, Rev. Math. Phys. 23, 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    LOG,
    ScalarFunctionPair,
    _loewner_matrix,
    frechet_derivative,
    power,
    resolve_function,
)
from .linalg import (
    HermitianOperator,
    PositiveOperator,
    PositivityError,
    PsdOperator,
    SchemaError,
    _eigh,
    _scalar_values,
    as_matrix,
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

FAMILIES = (
    "relative_entropy",
    "fidelity",
    "sandwiched_renyi",
    "alpha_z",
    "f_divergence",
)

# Registered operator-monotonicity-safe f's for the f-divergence family.
# x**a with 0 < a < 1 is operator concave, so that divergence satisfies the
# reversed inequality and carries sign = -1, exactly like the fidelity.
_F_REGISTRY_NAMES = ("x_log_x", "neg_log", "chi_square", "power")

_EPS = 1e-12


def _in_alpha_z_dpi_region(alpha: float, z: float) -> bool:
    if 0.0 < alpha < 1.0:
        return z >= max(alpha, 1.0 - alpha) - _EPS
    if 1.0 < alpha <= 2.0:
        return alpha / 2.0 - _EPS <= z <= alpha + _EPS
    if alpha > 2.0:
        return alpha - 1.0 - _EPS <= z <= alpha + _EPS
    return False


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A tagged choice of distinguishability measure with its parameters.

    ``sign`` is +1 when the measure decreases under channels and -1 when it
    increases (fidelity, and f-divergences built from operator-concave
    powers). ``allow_non_dpi`` admits Renyi parameters outside the known
    data-processing regions; the pole at ``alpha = 1`` is always rejected.
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown measure family {self.family!r}")
        if self.family in ("relative_entropy", "fidelity"):
            if self.alpha is not None or self.z is not None or self.f_pair is not None:
                raise ValueError(f"{self.family} takes no parameters")
        elif self.family == "sandwiched_renyi":
            self._check_alpha()
            if self.z is not None:
                raise ValueError("sandwiched_renyi takes no z parameter")
            if not self.allow_non_dpi and self.alpha < 0.5 - _EPS:
                raise ValueError(
                    f"alpha={self.alpha} is outside the data-processing range "
                    "[1/2, inf); pass allow_non_dpi=True to override"
                )
        elif self.family == "alpha_z":
            self._check_alpha()
            if self.z is None or not self.z > 0.0:
                raise ValueError("alpha_z requires z > 0")
            if not self.allow_non_dpi and not _in_alpha_z_dpi_region(self.alpha, self.z):
                raise ValueError(
                    f"(alpha={self.alpha}, z={self.z}) is outside the "
                    "data-processing region; pass allow_non_dpi=True to override"
                )
        else:  # f_divergence
            if self.f_pair is None:
                raise ValueError("f_divergence requires a scalar function pair")
            if self.f_name not in _F_REGISTRY_NAMES and not self.f_asserted:
                raise ValueError(
                    "custom f-divergence functions must be explicitly asserted "
                    "as operator convex (caller_asserted=True)"
                )
            if self.f_name == "power":
                exp = self.alpha
                if exp is None or not (0.0 < exp <= 2.0) or abs(exp - 1.0) < _EPS:
                    if not self.f_asserted:
                        raise ValueError(
                            "registered power f-divergences need an exponent in "
                            "(0,1) or (1,2]; assert custom exponents explicitly"
                        )
        if self.sign is None:
            object.__setattr__(self, "sign", self._derive_sign())
        elif self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def _check_alpha(self):
        if self.alpha is None or not self.alpha > 0.0:
            raise ValueError(f"{self.family} requires alpha > 0")
        if abs(self.alpha - 1.0) < _EPS:
            raise ValueError(
                "alpha = 1 is a pole of the Renyi families; use relative_entropy"
            )

    def _derive_sign(self) -> int:
        if self.family == "fidelity":
            return -1
        if (
            self.family == "f_divergence"
            and self.f_name == "power"
            and self.alpha is not None
            and 0.0 < self.alpha < 1.0
        ):
            return -1
        return 1

    @property
    def gamma(self) -> float | None:
        """Sandwich exponent: (1-a)/(2a) sandwiched, (1-a)/(2z) alpha-z."""
        if self.family == "sandwiched_renyi":
            return (1.0 - self.alpha) / (2.0 * self.alpha)
        if self.family == "alpha_z":
            return (1.0 - self.alpha) / (2.0 * self.z)
        return None

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
    def f_divergence(
        cls,
        f="x_log_x",
        alpha: float | None = None,
        sign: int | None = None,
        caller_asserted: bool = False,
        allow_non_dpi: bool = False,
    ) -> "MeasureSpec":
        """Build from a registered name ('x_log_x', 'neg_log', 'chi_square',
        'power' with exponent ``alpha``) or from a custom pair, which must be
        caller-asserted."""
        if isinstance(f, str):
            pair = resolve_function(f, exponent=alpha)
            name = f
        else:
            pair, name = f, f.name
        return cls(
            "f_divergence",
            alpha=alpha,
            f_pair=pair,
            f_name=name,
            f_asserted=caller_asserted,
            sign=sign,
            allow_non_dpi=allow_non_dpi,
        )


def _coerce_positive(x, what: str) -> PositiveOperator:
    if isinstance(x, PositiveOperator):
        return x
    try:
        return PositiveOperator(x if isinstance(x, HermitianOperator) else HermitianOperator(as_matrix(x)))
    except PositivityError as exc:
        raise PositivityError(f"{what}: {exc}") from exc


def _check_dims(rho: PositiveOperator, sigma: PositiveOperator):
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: rho is {rho.dim}, sigma is {sigma.dim}")


def _powm(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    return (v * w ** p) @ v.conj().T


def _sym(arr: np.ndarray) -> np.ndarray:
    return (arr + arr.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def _relent_value(rho: np.ndarray, sigma: np.ndarray) -> float:
    wr = _eigh(rho)[0]
    ws, vs = _eigh(sigma)
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return float(np.sum(wr * np.log(wr)) - np.real(np.trace(rho @ log_sigma)))


def _fidelity_value(rho: np.ndarray, sigma: np.ndarray) -> float:
    ws, vs = _eigh(sigma)
    s_half = _powm(ws, vs, 0.5)
    wy = _eigh(_sym(s_half @ rho @ s_half))[0]
    return float(np.sum(np.sqrt(np.maximum(wy, 0.0))))


def _renyi_trace(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray):
    """Shared core: X = s^g r^{a/z} s^g and its spectrum, with g=(1-a)/(2z).

    Zero eigenvalues of a PSD first argument are kept at exactly zero by the
    power map (``0**c = 0`` for c > 0).
    """
    gamma = (1.0 - alpha) / (2.0 * z)
    ws, vs = _eigh(sigma)
    s_g = _powm(ws, vs, gamma)
    wr, vr = _eigh(rho)
    wr = np.maximum(wr, 0.0)
    r_az = (vr * wr ** (alpha / z)) @ vr.conj().T
    x = _sym(s_g @ r_az @ s_g)
    wx, vx = _eigh(x)
    return gamma, ws, vs, s_g, wx, vx


def _renyi_value(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    wx = _renyi_trace(alpha, z, rho, sigma)[4]
    trace = float(np.sum(np.maximum(wx, 0.0) ** z))
    return math.log(trace) / (alpha - 1.0)


def _fdiv_value(pair: ScalarFunctionPair, rho, sigma, allow_zero: bool = False) -> float:
    """``sum_{k,a} mu_k f(p_a/mu_k) |W_ka|^2`` with ``W = V_s^H V_r``; ``f(0+)``
    stands in at vanishing ``p_a`` when ``allow_zero``."""
    p, _, vr = clustered_eigensystem(rho)
    mu, _, vs = clustered_eigensystem(sigma)
    pos = p > 0.0
    fx = np.empty((mu.size, p.size))
    fx[:, pos] = _scalar_values(pair.f, p[pos] / mu[:, None])
    if not pos.all():
        if not allow_zero:
            raise PositivityError("f-divergence value requires positive states")
        if pair.value_at_zero is None:
            raise ValueError(f"f-divergence {pair.name!r} has no continuous extension at 0")
        fx[:, ~pos] = pair.value_at_zero
    return float(np.sum(mu[:, None] * fx * np.abs(vs.conj().T @ vr) ** 2))


def evaluate(m: MeasureSpec, rho, sigma) -> float:
    """Value of the measure on two strictly positive operators."""
    rho = _coerce_positive(rho, "rho")
    sigma = _coerce_positive(sigma, "sigma")
    _check_dims(rho, sigma)
    r, s = rho.matrix, sigma.matrix
    if m.family == "relative_entropy":
        return _relent_value(r, s)
    if m.family == "fidelity":
        return _fidelity_value(r, s)
    if m.family == "sandwiched_renyi":
        return _renyi_value(m.alpha, m.alpha, r, s)
    if m.family == "alpha_z":
        return _renyi_value(m.alpha, m.z, r, s)
    return _fdiv_value(m.f_pair, rho.op, sigma.op)


def evaluate_psd(m: MeasureSpec, rho: PsdOperator, sigma) -> float:
    """Value of the measure with a positive *semidefinite* first argument.

    Each family is extended continuously onto the boundary: the relative
    entropy through the support-restricted logarithm, the Renyi families
    through zero-preserving powers, f-divergences through ``f(0+)`` where it
    exists.
    """
    rho = rho if isinstance(rho, PsdOperator) else PsdOperator(rho)
    sigma = _coerce_positive(sigma, "sigma")
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: rho is {rho.dim}, sigma is {sigma.dim}")
    if m.family == "relative_entropy":
        wr = rho.eigenvalues
        pos = wr > 0.0
        ws, vs = _eigh(sigma.matrix)
        log_sigma = (vs * np.log(ws)) @ vs.conj().T
        return float(
            np.sum(wr[pos] * np.log(wr[pos]))
            - np.real(np.trace(rho.matrix @ log_sigma))
        )
    if m.family == "fidelity":
        return _fidelity_value(rho.matrix, sigma.matrix)
    if m.family == "sandwiched_renyi":
        return _renyi_value(m.alpha, m.alpha, rho.matrix, sigma.matrix)
    if m.family == "alpha_z":
        return _renyi_value(m.alpha, m.z, rho.matrix, sigma.matrix)
    return _fdiv_value(m.f_pair, rho, sigma.op, allow_zero=True)


# ---------------------------------------------------------------------------
# First gradients
# ---------------------------------------------------------------------------


def _relent_grad1(rho: np.ndarray, sigma: np.ndarray) -> HermitianOperator:
    wr, vr = _eigh(rho)
    ws, vs = _eigh(sigma)
    out = (vr * np.log(wr)) @ vr.conj().T - (vs * np.log(ws)) @ vs.conj().T
    return hermitize(out + np.eye(rho.shape[0]))


def _fidelity_grad1(rho: np.ndarray, sigma: np.ndarray) -> HermitianOperator:
    ws, vs = _eigh(sigma)
    s_half = _powm(ws, vs, 0.5)
    y = _sym(s_half @ rho @ s_half)
    wy, vy = _eigh(y)
    if wy[0] <= 0.0:
        raise PositivityError("fidelity gradient needs sqrt(s) r sqrt(s) > 0")
    y_inv_half = _powm(wy, vy, -0.5)
    return hermitize(0.5 * s_half @ y_inv_half @ s_half)


def _sandwiched_grad1(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> HermitianOperator:
    gamma, _, _, s_g, wx, vx = _renyi_trace(alpha, alpha, rho, sigma)
    trace = float(np.sum(wx ** alpha))
    core = s_g @ _powm(wx, vx, alpha - 1.0) @ s_g
    pref = alpha / ((alpha - 1.0) * trace)
    return hermitize(pref * core)


def _alpha_z_grad1(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray) -> HermitianOperator:
    gamma, _, _, s_g, wx, vx = _renyi_trace(alpha, z, rho, sigma)
    trace = float(np.sum(wx ** z))
    w = _sym(s_g @ _powm(wx, vx, z - 1.0) @ s_g)
    deriv = frechet_derivative(hermitize(rho), hermitize(w), power(alpha / z))
    pref = z / ((alpha - 1.0) * trace)
    return hermitize(pref * deriv.matrix)


def _alpha_z_grad2(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray) -> HermitianOperator:
    gamma, ws, vs, s_g, wx, vx = _renyi_trace(alpha, z, rho, sigma)
    trace = float(np.sum(wx ** z))
    x_z = _powm(wx, vx, z)
    s_neg_g = _powm(ws, vs, -gamma)
    anti = x_z @ s_neg_g + s_neg_g @ x_z
    deriv = frechet_derivative(hermitize(sigma), hermitize(anti), power(gamma))
    pref = z / ((alpha - 1.0) * trace)
    return hermitize(pref * deriv.matrix)


def _fdiv_grad(pair: ScalarFunctionPair, rho, sigma, slot: int) -> HermitianOperator:
    """Closed-form f-divergence gradient in argument ``slot`` (1 or 2).

    The value is ``sum_k tr Q_k h_k(r) = sum_a tr P_a g_a(s)`` with
    ``h_k(p) = mu_k f(p/mu_k)`` and ``g_a(mu) = mu f(p_a/mu)``. With
    ``W = V_s^H V_r`` and ``x = p_a/mu_k``, in the differentiated state's
    eigenbasis, slot 1 is ``sum_k conj(W_ka) W_kb h_k^[1](p_a, p_b)`` (same
    cluster: ``f'(x)``) and slot 2 is ``sum_a W_ka conj(W_la) g_a^[1](mu_k, mu_l)``
    (same cluster: ``f(x) - x f'(x)``).
    """
    p, rid, vr = clustered_eigensystem(rho)
    mu, sid, vs = clustered_eigensystem(sigma)
    w = vs.conj().T @ vr
    x = p[None, :] / mu[:, None]
    fx, fpx = _scalar_values(pair.f, x), _scalar_values(pair.f_prime, x)
    vals = mu[:, None] * fx
    if slot == 1:
        g = np.einsum("ka,kb,kab->ab", w.conj(), w, _loewner_matrix(p, rid, vals, fpx))
        v = vr
    else:
        kernel = _loewner_matrix(mu, sid, vals.T, (fx - x * fpx).T)
        g = np.einsum("ka,la,akl->kl", w, w.conj(), kernel)
        v = vs
    return hermitize(v @ g @ v.conj().T)


def grad1(m: MeasureSpec, rho, sigma) -> HermitianOperator:
    """Matrix gradient of the measure with respect to its first argument."""
    rho = _coerce_positive(rho, "rho")
    sigma = _coerce_positive(sigma, "sigma")
    _check_dims(rho, sigma)
    r, s = rho.matrix, sigma.matrix
    if m.family == "relative_entropy":
        return _relent_grad1(r, s)
    if m.family == "fidelity":
        return _fidelity_grad1(r, s)
    if m.family == "sandwiched_renyi":
        return _sandwiched_grad1(m.alpha, r, s)
    if m.family == "alpha_z":
        return _alpha_z_grad1(m.alpha, m.z, r, s)
    return _fdiv_grad(m.f_pair, rho.op, sigma.op, 1)


def grad2(m: MeasureSpec, rho, sigma) -> HermitianOperator:
    """Matrix gradient with respect to the second argument, in closed form
    for every family."""
    rho = _coerce_positive(rho, "rho")
    sigma = _coerce_positive(sigma, "sigma")
    _check_dims(rho, sigma)
    r, s = rho.matrix, sigma.matrix
    if m.family == "relative_entropy":
        deriv = frechet_derivative(sigma.op, rho.op, LOG)
        return hermitize(-deriv.matrix)
    if m.family == "fidelity":
        return _fidelity_grad1(s, r)
    if m.family == "sandwiched_renyi":
        return _alpha_z_grad2(m.alpha, m.alpha, r, s)
    if m.family == "alpha_z":
        return _alpha_z_grad2(m.alpha, m.z, r, s)
    return _fdiv_grad(m.f_pair, rho.op, sigma.op, 2)


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
    """Evaluate ``D(k r, k' s)`` against ``D(r, s) + a/(a-1) ln k - ln k'``.

    Only the Renyi families transform by this additive law.
    """
    if m.family not in ("sandwiched_renyi", "alpha_z"):
        raise ValueError("scaling_check applies to the Renyi families only")
    if not (k > 0.0 and k_prime > 0.0):
        raise ValueError("scale factors must be strictly positive")
    rho = _coerce_positive(rho, "rho")
    sigma = _coerce_positive(sigma, "sigma")
    lhs = evaluate(
        m,
        PositiveOperator(HermitianOperator(k * rho.matrix)),
        PositiveOperator(HermitianOperator(k_prime * sigma.matrix)),
    )
    rhs = (
        evaluate(m, rho, sigma)
        + m.alpha / (m.alpha - 1.0) * math.log(k)
        - math.log(k_prime)
    )
    return ScalingCheck(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def measure_to_json(m: MeasureSpec) -> dict:
    out: dict = {"family": m.family}
    if m.family == "sandwiched_renyi":
        out["alpha"] = m.alpha
    elif m.family == "alpha_z":
        out["alpha"] = m.alpha
        out["z"] = m.z
    elif m.family == "f_divergence":
        out["f"] = m.f_name
        if m.f_name == "power":
            out["alpha"] = m.alpha
    if m.allow_non_dpi:
        out["allow_non_dpi"] = True
    return out


def measure_from_json(obj, path: str = "measure", allow_non_dpi: bool = False) -> MeasureSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object with a 'family' field")
    family = obj.get("family")
    if family not in FAMILIES:
        raise SchemaError(f"{path}.family", f"unknown family {family!r}")
    allow = bool(obj.get("allow_non_dpi", False)) or allow_non_dpi
    try:
        if family == "relative_entropy":
            return MeasureSpec.relative_entropy()
        if family == "fidelity":
            return MeasureSpec.fidelity()
        if family == "sandwiched_renyi":
            return MeasureSpec.sandwiched_renyi(
                _number(obj, "alpha", path), allow_non_dpi=allow
            )
        if family == "alpha_z":
            return MeasureSpec.alpha_z(
                _number(obj, "alpha", path), _number(obj, "z", path), allow_non_dpi=allow
            )
        f_name = obj.get("f")
        if not isinstance(f_name, str):
            raise SchemaError(f"{path}.f", "f_divergence requires a registered 'f' name")
        alpha = None
        if f_name == "power":
            alpha = _number(obj, "alpha", path)
        return MeasureSpec.f_divergence(f_name, alpha=alpha, allow_non_dpi=allow)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _number(obj: dict, key: str, path: str) -> float:
    val = obj.get(key)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {val!r}")
    return float(val)
