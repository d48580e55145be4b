"""Shared deterministic generators and fixture channels for the test suite."""

from __future__ import annotations

import numpy as np

from dpisat import channels as ch
from dpisat.divergences import MeasureSpec
from dpisat.linalg import HermitianOperator, PositiveOperator, PsdOperator


def count_eigh(monkeypatch) -> list:
    """Record the input of every ``np.linalg.eigh`` call."""
    inputs = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        inputs.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return inputs


def gen(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_hermitian(g: np.random.Generator, n: int, scale: float = 1.0) -> HermitianOperator:
    x = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    return HermitianOperator(scale * (x + x.conj().T) / 2.0)


def random_positive(g: np.random.Generator, n: int, floor: float = 0.1) -> PositiveOperator:
    x = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    return PositiveOperator(HermitianOperator(x @ x.conj().T / n + floor * np.eye(n)))


def random_psd_rank(g: np.random.Generator, n: int, rank: int) -> PsdOperator:
    b = g.normal(size=(n, rank)) + 1j * g.normal(size=(n, rank))
    return PsdOperator(HermitianOperator(b @ b.conj().T / n))


def random_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    x = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_cptp(g: np.random.Generator, n_in: int, n_out: int, n_kraus: int = 3) -> ch.KrausChannel:
    raw = [
        g.normal(size=(n_out, n_in)) + 1j * g.normal(size=(n_out, n_in))
        for _ in range(n_kraus)
    ]
    s = sum(k.conj().T @ k for k in raw)
    w, v = np.linalg.eigh(s)
    s_inv_half = (v * w ** -0.5) @ v.conj().T
    return ch.KrausChannel(tuple(k @ s_inv_half for k in raw))


def diag_positive(values) -> PositiveOperator:
    return PositiveOperator(HermitianOperator(np.diag(np.asarray(values, dtype=complex))))


def diag_psd(values) -> PsdOperator:
    return PsdOperator(HermitianOperator(np.diag(np.asarray(values, dtype=complex))))


def permutation_measure_prepare(n: int) -> ch.KrausChannel:
    """Projective computational measurement, re-preparing basis state i+1."""
    povm = []
    prep = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        povm.append(e)
        t = np.zeros((n, n), dtype=complex)
        t[(i + 1) % n, (i + 1) % n] = 1.0
        prep.append(t)
    return ch.measure_prepare(povm, prep)


def fuchs_caves(n: int, seed: int = 4):
    """``(channel, rho, sigma)``: random full-rank rho and sigma, and the
    measurement ``|i><e_i|`` in the eigenbasis of
    ``M = s^-1/2 (s^1/2 r s^1/2)^1/2 s^-1/2``. It keeps the fidelity of the
    pair (Fuchs and Caves), yet its classical output cannot give back the
    non-commuting rho: saturation without recovery."""
    g = gen(seed)
    rho, sigma = random_positive(g, n), random_positive(g, n)

    def power(a: np.ndarray, p: float) -> np.ndarray:
        w, v = np.linalg.eigh(a)
        return (v * w ** p) @ v.conj().T

    s_half, s_inv_half = power(sigma.matrix, 0.5), power(sigma.matrix, -0.5)
    basis = np.linalg.eigh(s_inv_half @ power(s_half @ rho.matrix @ s_half, 0.5) @ s_inv_half)[1]
    kraus = np.eye(n)[:, :, None] * basis.conj().T[:, None, :]
    return ch.KrausChannel(kraus), rho, sigma


def measure_suite() -> list:
    """One representative spec per family and parameter branch."""
    return [
        MeasureSpec.relative_entropy(),
        MeasureSpec.fidelity(),
        MeasureSpec.sandwiched_renyi(0.6),
        MeasureSpec.sandwiched_renyi(1.3),
        MeasureSpec.sandwiched_renyi(2.0),
        MeasureSpec.alpha_z(0.7, 0.9),
        MeasureSpec.alpha_z(1.5, 1.2),
        MeasureSpec.alpha_z(2.5, 2.0),
        MeasureSpec.f_divergence("x_log_x"),
        MeasureSpec.f_divergence("power", alpha=0.5),
        MeasureSpec.f_divergence("power", alpha=1.5),
        MeasureSpec.f_divergence("neg_log"),
        MeasureSpec.f_divergence("chi_square"),
    ]


def saturating_fixtures(seed: int = 7) -> list:
    """Structurally recoverable channel/state triples, full rank throughout.

    Classes: unitary conjugation, pinching on diagonal states, partial trace
    on product states sharing one factor, measure-and-prepare on commuting
    states.
    """
    g = gen(seed)
    fixtures = [
        ("unitary", ch.unitary(random_unitary(g, 3)), random_positive(g, 3), random_positive(g, 3)),
        (
            "pinching",
            ch.dephasing_pinching(3),
            diag_positive([0.5, 0.3, 0.4]),
            diag_positive([0.2, 0.9, 0.35]),
        ),
    ]
    rho_a, sigma_a, tau = random_positive(g, 2), random_positive(g, 2), random_positive(g, 2)
    tau_m = tau.matrix / float(np.real(np.trace(tau.matrix)))
    fixtures.append(
        (
            "partial_trace",
            ch.partial_trace(2, 2, "a"),
            PositiveOperator(HermitianOperator(np.kron(rho_a.matrix, tau_m))),
            PositiveOperator(HermitianOperator(np.kron(sigma_a.matrix, tau_m))),
        )
    )
    fixtures.append(
        (
            "measure_prepare",
            permutation_measure_prepare(3),
            diag_positive([0.6, 0.25, 0.55]),
            diag_positive([0.3, 0.4, 0.8]),
        )
    )
    return fixtures


def boundary_saturating_fixtures(seed: int = 11) -> list:
    """Recoverable fixtures with a rank-deficient first state."""
    g = gen(seed)
    fixtures = [
        (
            "pinching_rank2",
            ch.dephasing_pinching(3),
            diag_psd([0.7, 0.3, 0.0]),
            diag_positive([0.5, 0.3, 0.2]),
        ),
        (
            "unitary_rank2",
            ch.unitary(random_unitary(g, 3)),
            random_psd_rank(g, 3, 2),
            random_positive(g, 3),
        ),
        (
            "measure_prepare_rank2",
            permutation_measure_prepare(3),
            diag_psd([0.45, 0.0, 0.65]),
            diag_positive([0.25, 0.5, 0.7]),
        ),
    ]
    vec = g.normal(size=2) + 1j * g.normal(size=2)
    rho_a = np.outer(vec, vec.conj())
    sigma_a, tau = random_positive(g, 2), random_positive(g, 2)
    tau_m = tau.matrix / float(np.real(np.trace(tau.matrix)))
    fixtures.append(
        (
            "partial_trace_rank2",
            ch.partial_trace(2, 2, "a"),
            PsdOperator(HermitianOperator(np.kron(rho_a, tau_m))),
            PositiveOperator(HermitianOperator(np.kron(sigma_a.matrix, tau_m))),
        )
    )
    return fixtures


def isometric_embedding() -> ch.KrausChannel:
    """V maps C^2 into C^4, so the images of full-rank states are singular."""
    v = np.zeros((4, 2), dtype=complex)
    v[1, 0] = v[3, 1] = 1.0
    return ch.KrausChannel([v])


def ill_conditioned_partial_trace(s: float, seed: int = 1):
    """``(channel, rho, sigma)``: ``rho (x) tau`` and ``sigma (x) tau`` under the
    partial trace over tau, an exactly saturating pair, with
    ``sigma = U diag(s, 5s, 1) U^H`` for a small s."""
    g = gen(seed)
    u = random_unitary(g, 3)
    sigma_a = (u * np.array([s, 5.0 * s, 1.0])) @ u.conj().T
    rho_a, tau = random_positive(g, 3).matrix, random_positive(g, 2).matrix
    tau = tau / float(np.real(np.trace(tau)))

    def state(a):
        x = np.kron(a, tau)
        return PositiveOperator(HermitianOperator(0.5 * (x + x.conj().T)))

    return ch.partial_trace(3, 2, "a"), state(rho_a), state(sigma_a)


def depolarizing_fixture():
    """The canonical non-saturating instance with a classical arithmetic gap."""
    return (
        ch.depolarizing(2, 0.5),
        diag_positive([0.9, 0.1]),
        diag_positive([0.5, 0.5]),
    )


def classical_kl(p, q) -> float:
    return float(sum(pi * np.log(pi / qi) for pi, qi in zip(p, q)))


def classical_bhattacharyya(p, q) -> float:
    return float(sum(np.sqrt(pi * qi) for pi, qi in zip(p, q)))


def classical_renyi(alpha: float, p, q) -> float:
    return float(np.log(sum(pi ** alpha * qi ** (1 - alpha) for pi, qi in zip(p, q))) / (alpha - 1))


def classical_fdiv(f, p, q) -> float:
    return float(sum(qi * f(pi / qi) for pi, qi in zip(p, q)))


def fidelity_grad2_closed_form(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``1/2 s^{-1/2} (s^{1/2} r s^{1/2})^{1/2} s^{-1/2}``, the fidelity's second
    gradient, from plain numpy eigensolves of the two arrays."""
    ws, vs = np.linalg.eigh(sigma)
    s_half = (vs * np.sqrt(ws)) @ vs.conj().T
    s_neg_half = (vs / np.sqrt(ws)) @ vs.conj().T
    core = s_half @ rho @ s_half
    wx, vx = np.linalg.eigh(0.5 * (core + core.conj().T))
    x_half = (vx * np.sqrt(np.maximum(wx, 0.0))) @ vx.conj().T
    return 0.5 * s_neg_half @ x_half @ s_neg_half


def fd_tangent_gradient(m: MeasureSpec, rho: PsdOperator, sigma, h: float) -> np.ndarray:
    """Finite-difference oracle for the gradient of ``B(., sigma)`` on the
    tangent space of the PSD cone at ``rho``.

    One-sided differences with step ``h`` along the tangent projection of
    each canonical Hermitian basis element, dualized. Each probe
    ``rho + h M`` is snapped back onto the cone: eigenvalues within
    ``1e-7 * max(1, h)`` of zero become zero, so the probe keeps the rank of
    rho. The estimate carries an O(h) bias.
    """
    from dpisat.calculus import LinearFunctionalSample, dualize, hermitian_basis
    from dpisat.divergences import evaluate_psd
    from dpisat.saturation import tangent_project

    n = rho.dim
    floor = 1e-7 * max(1.0, h)
    base = evaluate_psd(m, rho, sigma)
    vals = np.zeros(n * n)
    for i, b in enumerate(hermitian_basis(n)):
        probe = tangent_project(rho, b).matrix
        if np.linalg.norm(probe) < 1e-14:
            continue
        w, v = np.linalg.eigh(rho.matrix + h * probe)
        assert w[0] >= -floor, f"probe {i} left the PSD cone (eigenvalue {w[0]:.3e})"
        shifted = (v * np.maximum(w, 0.0)) @ v.conj().T
        vals[i] = (evaluate_psd(m, PsdOperator(HermitianOperator(shifted, herm_tol=1e-8), zero_tol=floor), sigma) - base) / h
    return dualize(LinearFunctionalSample(n, vals)).matrix
