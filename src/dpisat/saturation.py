"""Saturation certificates for the data processing inequality.

When a channel preserves the value of a distinguishability measure on a
pair of states, the saturation condition

    residual = X(r, s) - L*( X(L r, L s) )

must vanish as an operator, for X the gradient of the measure in either
argument slot or an operator of the pair that another condition names;
:func:`_residual` takes every Hermitian one. This module computes them, the
sign-adjusted gap, the converse certificate for families with a verified
scalar-multiplication law, the boundary variants for rank-deficient states
(restricted to the tangent space of the PSD cone), the Petz recovery map
with its exact-recovery checks, and numerical cross-checks against two
alternative published saturation conditions for the alpha-z family.

Every quantity is derived from two state pairs, ``(r, s)`` and
``(L r, L s)``, each taken once. In every public function a rank-deficient
:class:`PsdOperator` r keeps r and L(r) PSD and its first residual on the
tangent space; the boundary-named functions take r as a :class:`PsdOperator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import methodcaller

import numpy as np

from .channels import (
    KrausChannel,
    _act_adjoint,
    _from_stack,
    apply,
)
from .divergences import (
    MeasureSpec,
    _grad1,
    _grad2,
    _Pair,
    _TangentProjection,
    _checked_pair,
    _value,
    measure_to_json,
)
from .linalg import (
    HermitianOperator,
    PositiveOperator,
    PositivityError,
    PsdOperator,
    _as_positive,
    _as_psd,
    _operator,
    _powm,
    _spectral_map,
    _symmetrized,
    frobenius,
    hermitize,
    matrix_to_json,
)

__all__ = [
    "BoundaryCaseError",
    "ConverseViolationError",
    "SaturationReport",
    "ConverseCertificate",
    "AlphaZCrosscheck",
    "dpi_gap",
    "boundary_gap",
    "residual1",
    "residual2",
    "normalized_sandwiched_residual",
    "converse_certificate",
    "tangent_project",
    "tangent_membership",
    "tangent_space_rank",
    "boundary_residual_relent",
    "boundary_residual_general",
    "hiai_residual",
    "petz_map",
    "alpha2_petz_residual",
    "alpha_z_crosscheck",
    "build_report",
    "report_to_json",
]

DEFAULT_GAP_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8
_PETZ_TP_TOL = 1e-9


class BoundaryCaseError(ValueError):
    """sigma, a channel image, or a rho not given as a PsdOperator is singular."""


class ConverseViolationError(AssertionError):
    """The residual vanished but the gap did not, for a scaling-law family."""


def _boundary_case(what: str, exc: PositivityError) -> BoundaryCaseError:
    advice = "; pass a rank-deficient rho as a PsdOperator" if what == "rho" else ""
    return BoundaryCaseError(f"{what} is not strictly positive ({exc}){advice}")


def _pairs(ch: KrausChannel, rho, sigma):
    """The pairs ``(rho, sigma)``, by :func:`_checked_pair`'s rule, and
    ``(L(rho), L(sigma))`` for every quantity derived from them. L(sigma) is
    strictly positive, and so is L(rho), or, with rho on the boundary of the
    PSD cone, a :class:`PsdOperator` snapped at rho's own zero threshold: a
    trace-preserving L keeps ``tr L(rho) = tr rho``.

    L(sigma) is judged first: a strictly positive rho is ``>= c sigma``, c > 0,
    so a singular L(rho) comes with a singular L(sigma)."""
    pt = _checked_pair(rho, sigma, _boundary_case)
    sigma_out = _as_positive(apply(ch, pt.sigma.op), "channel image of sigma", _boundary_case)
    rho_out = apply(ch, pt.rho.op)
    rho_out = (PsdOperator(rho_out, pt.rho.zero_tol) if pt.kernel
               else _as_positive(rho_out, "channel image of rho", _boundary_case))
    return pt, _Pair(rho_out, sigma_out)


def _gap(m: MeasureSpec, pt: _Pair, pt_out: _Pair) -> float:
    return m.sign * (_value(m, pt) - _value(m, pt_out))


def _residual(ch: KrausChannel, side, pt: _Pair, pt_out: _Pair, tangent: bool = False) -> np.ndarray:
    """``X(r, s) - L*(X(L r, L s))`` for the condition operator ``X = side``.
    ``L*`` acts between two symmetrizations; with ``tangent`` and a
    rank-deficient r, the projection onto the tangent space at r follows, and
    the residual is symmetrized. ``side(pt)`` is taken as it is."""
    back = _symmetrized(_act_adjoint(ch, _symmetrized(side(pt_out))))
    return _symmetrized(side(pt) - pt.tangent(back)) if tangent and pt.kernel else side(pt) - back


def dpi_gap(m: MeasureSpec, ch: KrausChannel, rho, sigma) -> float:
    """Sign-adjusted gap ``sign * (B(r,s) - B(L r, L s))``; nonnegative under
    the data processing inequality."""
    return _gap(m, *_pairs(ch, rho, sigma))


def boundary_gap(m: MeasureSpec, ch: KrausChannel, rho: PsdOperator, sigma) -> float:
    """:func:`dpi_gap` at rho as a :class:`PsdOperator` (continuous extension)."""
    return dpi_gap(m, ch, _as_psd(rho), sigma)


def residual1(m: MeasureSpec, ch: KrausChannel, rho, sigma) -> HermitianOperator:
    """First-argument gradient residual; zero whenever the gap vanishes. At a
    rank-deficient :class:`PsdOperator` rho it is taken on the tangent space."""
    return hermitize(_residual(ch, partial(_grad1, m), *_pairs(ch, rho, sigma), tangent=True))


def residual2(m: MeasureSpec, ch: KrausChannel, rho, sigma) -> HermitianOperator:
    """Second-argument gradient residual."""
    return hermitize(_residual(ch, partial(_grad2, m), *_pairs(ch, rho, sigma)))


def normalized_sandwiched_residual(
    ch: KrausChannel, rho, sigma, alpha: float, gap_tol: float = DEFAULT_GAP_TOL
) -> HermitianOperator:
    """Prefactor-free sandwiched-Renyi residual
    ``s^g (s^g r s^g)^{a-1} s^g - L*( ... images ... )``.

    Dropping the trace prefactors presumes the two values are equal, so this
    is only defined once the gap is below ``gap_tol``.
    """
    m = MeasureSpec.sandwiched_renyi(alpha)
    pt, pt_out = _pairs(ch, rho, sigma)
    gap = _gap(m, pt, pt_out)
    if abs(gap) > gap_tol:
        raise ValueError(
            f"normalized residual is meaningful only at saturation; |gap|={abs(gap):.3e}"
        )
    core = methodcaller("core_power", m.gamma, 1.0, m.gamma, alpha - 1.0)
    return hermitize(_residual(ch, core, pt, pt_out))


# ---------------------------------------------------------------------------
# Converse certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseCertificate:
    """A first-residual norm, the gap, and whether the residual counts as
    vanishing. ``scaling_verified`` is always True: every family's scaling
    law is verified by the test suite (``TestScalingLaws``), and a family
    without one gets no certificate."""

    residual1_norm: float
    gap: float
    implied_gap_zero: bool
    scaling_verified: bool


def _converse_verdict(r1: float, gap: float, residual_tol: float, gap_tol: float):
    """The certificate from a first-residual norm and a gap, and whether the
    converse holds: a residual within ``residual_tol`` comes with a gap within
    ``gap_tol``."""
    implied = r1 <= residual_tol
    cert = ConverseCertificate(residual1_norm=r1, gap=gap, implied_gap_zero=implied, scaling_verified=True)
    return cert, not implied or abs(gap) <= gap_tol


def converse_certificate(
    m: MeasureSpec,
    ch: KrausChannel,
    rho,
    sigma,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> ConverseCertificate:
    """Check that a vanishing first residual implies a vanishing gap.

    Only valid for families whose value transforms invertibly under scalar
    multiplication (the Renyi families, relative entropy, fidelity); any
    other family raises ValueError before a state is read. Each family's law
    is verified once, by the test suite, not on the given states. A small
    residual with a large gap raises :class:`ConverseViolationError`. The
    residual is that of :func:`residual1`.
    """
    if m._row.scaling is None:
        raise ValueError(f"family {m.family!r} has no verified scaling law; check the gap directly instead")
    pt, pt_out = _pairs(ch, rho, sigma)
    r1 = frobenius(_residual(ch, partial(_grad1, m), pt, pt_out, tangent=True))
    cert, holds = _converse_verdict(r1, _gap(m, pt, pt_out), residual_tol, gap_tol)
    if not holds:
        raise ConverseViolationError(
            f"residual norm {r1:.3e} <= {residual_tol:.1e} but |gap| = {abs(cert.gap):.3e}")
    return cert


# ---------------------------------------------------------------------------
# Tangent space of the PSD cone
# ---------------------------------------------------------------------------


def _tangent_operand(rho, M):
    """rho as a :class:`PsdOperator` and M, admitted as :func:`_operator`
    admits it, as an array of its shape."""
    rho, m = _as_psd(rho), _operator(M).matrix
    if m.shape != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {rho.matrix.shape}")
    return rho, m


def tangent_project(rho: PsdOperator, M) -> HermitianOperator:
    """Project onto the tangent space at a PSD operator:
    ``M - (1 - P) M (1 - P)`` with P the support projector."""
    rho, m = _tangent_operand(rho, M)
    return hermitize(_TangentProjection(rho)(m))


def tangent_membership(rho: PsdOperator, M, tol: float = 1e-10) -> bool:
    """Whether M is orthogonal (Hilbert-Schmidt) to every operator acting on
    the kernel of rho, i.e. tangent to the PSD cone at rho.

    The coordinates of M in the orthonormal Hermitian basis of those
    operators are read from the kernel block ``B = V_k^H M V_k``: ``B_aa``,
    ``sqrt(2) Re B_ab`` and ``sqrt(2) Im B_ab`` for ``a < b``.
    """
    rho, m = _tangent_operand(rho, M)
    vecs = rho.eigenvectors[:, rho.eigenvalues == 0.0]
    b = vecs.conj().T @ m @ vecs
    upper = b[np.triu_indices(b.shape[0], 1)]
    coords = np.concatenate((b.diagonal().real, math.sqrt(2.0) * upper.real, math.sqrt(2.0) * upper.imag))
    return not (np.abs(coords) > tol).any()


def tangent_space_rank(rho: PsdOperator, tol: float = 1e-8) -> int:
    """Numerical dimension of the tangent space at rho: the count of singular
    values of ``M -> M - Q M Q`` on Hermitian matrices above ``tol`` times the
    largest, Q the kernel projector of rho.

    In Q's eigenbasis the map scales ``|u_i><u_j|`` by ``1 - q_i q_j``, so its
    n**2 singular values are ``|1 - q_i q_j|``, read from Q's spectrum in
    O(n**3): ``n**2 - k**2`` ones for a k-dimensional kernel.
    """
    q = np.linalg.eigvalsh(_TangentProjection(_as_psd(rho)).q)
    svals = np.abs(1.0 - np.outer(q, q))
    return int(np.count_nonzero(svals > tol * svals.max()))


# ---------------------------------------------------------------------------
# Boundary residuals (rank-deficient first argument)
# ---------------------------------------------------------------------------


def boundary_residual_relent(ch: KrausChannel, rho, sigma) -> HermitianOperator:
    """Support-restricted relative-entropy residual for PSD rho:

        logx(r) - log(s)|_rest  -  L*( logx(L r) - log(L s)|_rest' )|_rest

    where ``logx`` is the support logarithm and ``|_rest`` removes the block
    on the corresponding kernel. Requires s and L(s) strictly positive.

    For trace-preserving L it is :func:`boundary_residual_general` of the
    relative entropy, saturating or not: ``tr(r L*(Q')) = tr(L(r) Q') = 0``
    with ``Q' = 1 - P'`` puts ``L*(Q') >= 0`` on the kernel of r, so the
    tangent projection of ``L*(P')`` is P, the P of the tangent gradient.
    """
    return boundary_residual_general(MeasureSpec.relative_entropy(), ch, rho, sigma)


def boundary_residual_general(m: MeasureSpec, ch: KrausChannel, rho, sigma) -> HermitianOperator:
    """Tangent-space gradient residual for a PSD first argument:

        G(r) - [ L*(G(L r)) - (1-P) L*(G(L r)) (1-P) ]

    where ``G`` is the closed-form gradient of ``B(., s)`` on the tangent
    space of the PSD cone (the ordinary first gradient at full rank) and P
    the support projector of r. It vanishes at saturation for every family
    with a value on the boundary; ``neg_log`` has none and raises
    ``ValueError``. It is :func:`residual1` at rho as a :class:`PsdOperator`.
    """
    return residual1(m, ch, _as_psd(rho), sigma)


def hiai_residual(ch: KrausChannel, rho, sigma) -> np.ndarray:
    """Residual of the asymmetric support-logarithm condition

        logx(r) - log(s) P  =  L*( logx(L r) - log(L s) P' )

    with P, P' the support projectors of r and L(r). The two sides are not
    Hermitian in general, so a plain complex matrix is returned.
    """
    return _hiai_residual(ch, *_pairs(ch, _as_psd(rho), sigma))


def _hiai_residual(ch: KrausChannel, pt: _Pair, pt_out: _Pair) -> np.ndarray:
    def side(p: _Pair) -> np.ndarray:
        return p.log_support - p.log_sigma @ p.tangent.p

    return side(pt) - _act_adjoint(ch, side(pt_out))


# ---------------------------------------------------------------------------
# Petz recovery
# ---------------------------------------------------------------------------


def _petz_factors(sigma: PositiveOperator, sigma_out: PositiveOperator):
    """``(s^{1/2}, (Ls)^{-1/2})``, the two factors of the Petz recovery map R.

    R is trace preserving exactly when its Kraus sum
    ``(Ls)^{-1/2} L(s) (Ls)^{-1/2}`` is the identity. The computed sum is off
    by about ``eps cond(Ls)``; beyond ``_PETZ_TP_TOL`` this raises ValueError.
    """
    out_inv_half = _powm(sigma_out, -0.5)
    tp = float(np.linalg.norm(out_inv_half @ sigma_out.matrix @ out_inv_half - np.eye(sigma_out.dim)))
    if tp > _PETZ_TP_TOL:
        raise ValueError(
            "Petz recovery map is not trace preserving: "
            f"||(Ls)^{{-1/2}} L(s) (Ls)^{{-1/2}} - I||_F = {tp:.3e} > {_PETZ_TP_TOL:.0e}"
        )
    return _spectral_map(sigma, np.sqrt), out_inv_half


def petz_map(sigma, ch: KrausChannel) -> KrausChannel:
    """The Petz recovery channel
    ``R(X) = s^{1/2} L*( (Ls)^{-1/2} X (Ls)^{-1/2} ) s^{1/2}``.

    Satisfies ``R(L(s)) = s`` identically. It recovers rho when the channel
    saturates the relative entropy (Petz, 1986), or another measure whose
    family says saturation implies recovery; saturating the fidelity does
    not imply it.
    """
    sigma = _as_positive(sigma, "sigma", _boundary_case)
    sigma_out = _as_positive(apply(ch, sigma.op), "channel image of sigma is rank deficient")
    s_half, out_inv_half = _petz_factors(sigma, sigma_out)
    kraus = s_half @ ch.kraus.conj().transpose(0, 2, 1) @ out_inv_half
    return _from_stack(kraus, tp_tol=_PETZ_TP_TOL)


def _petz_recovery_errors(ch: KrausChannel, pt: _Pair, pt_out: _Pair):
    """``||R(L r) - r||_F`` and ``||R(L s) - s||_F`` for the Petz map R,
    evaluated through the adjoint without building R's Kraus operators."""
    s_half, out_inv_half = _petz_factors(pt.sigma, pt_out.sigma)

    def error(x, x_out) -> float:
        back = _symmetrized(_act_adjoint(ch, out_inv_half @ x_out.matrix @ out_inv_half))
        return float(np.linalg.norm(s_half @ back @ s_half - x.matrix))

    return error(pt.rho, pt_out.rho), error(pt.sigma, pt_out.sigma)


def alpha2_petz_residual(ch: KrausChannel, rho, sigma) -> HermitianOperator:
    """Residual of ``s^{-1/2} r s^{-1/2} = L*( (Ls)^{-1/2} (Lr) (Ls)^{-1/2} )``,
    the alpha = 2 sandwiched condition and the original Petz criterion."""
    def side(p: _Pair) -> np.ndarray:
        inv_half = _powm(p.sigma, -0.5)
        return inv_half @ p.rho.matrix @ inv_half

    return hermitize(_residual(ch, side, *_pairs(ch, rho, sigma)))


# ---------------------------------------------------------------------------
# Alpha-z cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaZCrosscheck:
    """Frobenius norms of three alpha-z saturation residuals."""

    gradient_residual: float
    chehade_residual: float
    zhang_residual: float


def _alpha_z_crosscheck(
    ch: KrausChannel, pt: _Pair, pt_out: _Pair, m: MeasureSpec, gradient_residual: float | None = None
) -> AlphaZCrosscheck:
    """:func:`alpha_z_crosscheck` on a state pair and its channel image, at
    the point ``(a, z)`` of the Renyi spec ``m``; ``gradient_residual`` is its
    first-residual norm, when known. Both condition operators are powers of
    the pairs' alpha-z cores ``X = s^g r^{a/z} s^g``, which the gradients
    share."""
    alpha, z = m._row.point(m)
    if gradient_residual is None:
        gradient_residual = frobenius(_residual(ch, partial(_grad1, m), pt, pt_out, tangent=True))
    chehade, zhang = (
        frobenius(_residual(ch, methodcaller("core_power", m.gamma, alpha / z, *exps), pt, pt_out))
        for exps in (((1.0 - z) / (2.0 * z), z - 1.0), (m.gamma, alpha - 1.0))
    )
    return AlphaZCrosscheck(gradient_residual, chehade, zhang)


def alpha_z_crosscheck(ch: KrausChannel, rho, sigma, alpha: float, z: float) -> AlphaZCrosscheck:
    """Compare the gradient residual against two alternative alpha-z
    saturation conditions:

    * outer exponent (1-z)/2z with core power z-1,
    * outer exponent (1-a)/2z with core power a-1.

    All three are necessary at saturation; norms are reported side by side.
    """
    return _alpha_z_crosscheck(ch, *_pairs(ch, rho, sigma), MeasureSpec.alpha_z(alpha, z))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SaturationReport:
    """Gap, residual operators and norms, recovery errors, verdict."""

    measure: MeasureSpec
    gap: float
    residual1: HermitianOperator
    residual2: HermitianOperator
    residual1_frobenius: float
    residual2_frobenius: float
    residual1_spectral: float
    residual2_spectral: float
    saturated: bool
    petz_recovery_error_rho: float | None
    petz_recovery_error_sigma: float | None
    gap_tol: float = DEFAULT_GAP_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    # (rho, sigma) and (L(rho), L(sigma)) with their spectral cores, from
    # which every number above was derived.
    pairs: tuple | None = field(default=None, repr=False)

    @property
    def rho_out(self) -> PositiveOperator | PsdOperator | None:
        return self.pairs[1].rho if self.pairs else None

    @property
    def sigma_out(self) -> PositiveOperator | None:
        return self.pairs[1].sigma if self.pairs else None


def build_report(
    m: MeasureSpec,
    ch: KrausChannel,
    rho,
    sigma,
    gap_tol: float = DEFAULT_GAP_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    with_petz: bool = True,
) -> SaturationReport:
    """Evaluate gap, both residuals, and Petz recovery errors in one pass.

    ``residual1`` is :func:`residual1`, on the tangent space at a
    rank-deficient :class:`PsdOperator` rho; ``residual2`` and the Petz errors
    are not projected, since sigma is interior. The channel images are
    computed once; each residual takes one adjoint, and each Petz recovery
    error one more (two channel applies and four adjoints per report).
    ``with_petz=False`` leaves the recovery errors unset and skips their two
    adjoints, ``(Ls)^{-1/2}`` and the recovery map's trace-preservation
    check, which raises ValueError once cond(Ls) is large. Each of the four operators and each spectral core of the two
    pairs is eigensolved at most once (at most 6 per full-rank report); under
    a depolarizing channel :func:`apply` gives the two images their
    eigensystems from the inputs', without one (at most 4). Both spectral
    norms come from one stacked eigenvalue-only solve of the two Hermitian
    residuals; the report keeps both pairs for further checks.
    """
    pt, pt_out = _pairs(ch, rho, sigma)
    gap = _gap(m, pt, pt_out)
    r1 = hermitize(_residual(ch, partial(_grad1, m), pt, pt_out, tangent=True))
    r2 = hermitize(_residual(ch, partial(_grad2, m), pt, pt_out))
    n1, n2 = frobenius(r1), frobenius(r2)
    s1, s2 = np.max(np.abs(np.linalg.eigvalsh(np.stack((r1.matrix, r2.matrix)))), axis=-1).tolist()
    err_rho = err_sigma = None
    if with_petz:
        err_rho, err_sigma = _petz_recovery_errors(ch, pt, pt_out)
    saturated = abs(gap) <= gap_tol and n1 <= residual_tol and n2 <= residual_tol
    return SaturationReport(
        measure=m,
        gap=gap,
        residual1=r1,
        residual2=r2,
        residual1_frobenius=n1,
        residual2_frobenius=n2,
        residual1_spectral=s1,
        residual2_spectral=s2,
        saturated=saturated,
        petz_recovery_error_rho=err_rho,
        petz_recovery_error_sigma=err_sigma,
        gap_tol=gap_tol,
        residual_tol=residual_tol,
        pairs=(pt, pt_out),
    )


def _report_fields(include_matrices: bool = False) -> tuple:
    """The v1 fields :func:`report_to_json` reads from a report: numbers and
    verdict, then with ``include_matrices`` the residual operators."""
    fields = ("gap", "residual1_frobenius", "residual2_frobenius", "residual1_spectral",
              "residual2_spectral", "saturated", "petz_recovery_error_rho", "petz_recovery_error_sigma")
    return fields + (("residual1", "residual2") if include_matrices else ())


def report_to_json(report: SaturationReport, include_matrices: bool = False) -> dict:
    out = {"schema_version": "v1", "measure": measure_to_json(report.measure)}
    for name in _report_fields(include_matrices):
        value = getattr(report, name)
        out[name] = matrix_to_json(value) if isinstance(value, HermitianOperator) else value
    out["tolerances"] = {"gap_tol": report.gap_tol, "residual_tol": report.residual_tol}
    return out
