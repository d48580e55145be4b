import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpisat.linalg import (
    DEFAULT_HERM_TOL,
    EigensolverError,
    HermitianOperator,
    HermiticityError,
    MatrixFunctionDomainError,
    PositiveOperator,
    PositivityError,
    PsdOperator,
    SchemaError,
    _number,
    clustered_eigensystem,
    frobenius,
    hermitize,
    hs_inner,
    log_cross,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    spectral_decompose,
    zeroth_power,
)

from _fixtures import count_eigh, gen, random_hermitian, random_positive, random_psd_rank

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Every non-finite entry makes its own deviation |a_ij - conj(a_ji)| NaN or
# infinite, so the constructor's one pass finds it, with no RuntimeWarning
# from an inf - inf.
NON_FINITE = [
    pytest.param(np.array([[np.nan, 0], [0, 1]], dtype=complex), id="nan_diagonal"),
    pytest.param(np.array([[1, complex(0, np.nan)], [0, 1]], dtype=complex), id="nan_imaginary"),
    pytest.param(np.array([[1, 0], [np.nan, 1]], dtype=complex), id="nan_lower"),
    pytest.param(np.array([[np.nan, np.nan], [np.nan, np.nan]], dtype=complex), id="nan_everywhere"),
    # A lone infinite entry off the diagonal: its deviation and the scale are
    # both inf, so a tolerance test alone would pass it.
    pytest.param(np.array([[1, np.inf], [0, 1]], dtype=complex), id="inf_finite_mirror"),
    pytest.param(np.array([[1, 0], [-np.inf, 1]], dtype=complex), id="neg_inf_finite_mirror"),
    pytest.param(np.array([[1, np.inf], [np.inf, 1]], dtype=complex), id="inf_symmetric"),
    pytest.param(np.array([[1, -np.inf], [-np.inf, 1]], dtype=complex), id="neg_inf_symmetric"),
    pytest.param(np.array([[1, np.inf], [-np.inf, 1]], dtype=complex), id="inf_antisymmetric"),
    pytest.param(np.array([[1, complex(0, np.inf)], [complex(0, -np.inf), 1]], dtype=complex),
                 id="imaginary_inf_hermitian_mirror"),
    pytest.param(np.array([[np.inf, 0], [0, 1]], dtype=complex), id="inf_diagonal"),
    pytest.param(np.array([[1, 0], [0, -np.inf]], dtype=complex), id="neg_inf_diagonal"),
    pytest.param(np.array([[complex(0, np.inf), 0], [0, 1]], dtype=complex), id="imaginary_inf_diagonal"),
    pytest.param(np.array([[1, complex(np.inf, np.nan)], [0, 1]], dtype=complex), id="inf_nan"),
]


class TestTypes:
    def test_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3), dtype=complex))

    def test_hermitian_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianOperator(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("arr", NON_FINITE)
    @pytest.mark.parametrize("herm_tol", [DEFAULT_HERM_TOL, math.inf])
    def test_hermitian_rejects_non_finite(self, arr, herm_tol):
        # The constructor's one pass finds every non-finite entry, whatever
        # its tolerance, and warns nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^HermitianOperator has non-finite entries$"):
                HermitianOperator(arr, herm_tol=herm_tol)

    def test_hermitian_symmetrizes_storage(self):
        a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]], dtype=complex)
        op = HermitianOperator(a)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_hermitian_rejects_beyond_tolerance(self):
        a = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            HermitianOperator(a)

    def test_positive_caches_min_eigenvalue(self):
        op = PositiveOperator(HermitianOperator(np.diag([1e-3, 1.0]).astype(complex)))
        assert op.min_eigenvalue == pytest.approx(1e-3)

    def test_positive_rejects_singular(self):
        with pytest.raises(PositivityError):
            PositiveOperator(HermitianOperator(np.diag([0.0, 1.0]).astype(complex)))

    @pytest.mark.parametrize("tail", [-1e-8, 1e-8])
    def test_positive_refuses_a_declared_kernel_at_either_sign(self, tail):
        # zero_tol = 1e-2 declares the tail a kernel; its raw sign is roundoff.
        psd = PsdOperator(HermitianOperator(np.diag([5e7, 5e7, tail]).astype(complex)), zero_tol=1e-2)
        assert psd.rank == 2
        with pytest.raises(PositivityError, match=r"declared kernel \(rank 2 < dim 3\)"):
            PositiveOperator(psd)

    def test_positive_takes_a_full_rank_psd_and_its_eigensystem(self):
        psd = PsdOperator(HermitianOperator(np.diag([1e-3, 1.0]).astype(complex)))
        op = PositiveOperator(psd)
        assert op.min_eigenvalue == 1e-3 and op.eigensystem is psd.eigensystem

    def test_psd_snaps_small_eigenvalues(self):
        op = PsdOperator(HermitianOperator(np.diag([1.0, -1e-11]).astype(complex)))
        assert op.rank == 1
        assert op.eigenvalues[0] == 0.0

    def test_psd_rejects_genuinely_negative(self):
        with pytest.raises(PositivityError):
            PsdOperator(HermitianOperator(np.diag([1.0, -1e-6]).astype(complex)))

    def test_matrices_are_read_only(self):
        op = HermitianOperator(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestCachedEigensystem:
    """An operator solves its eigensystem once, on first use; the positive
    and PSD views over it read that one eigensystem."""

    def test_construction_solves_nothing(self, monkeypatch):
        calls = count_eigh(monkeypatch)
        HermitianOperator(random_hermitian(gen(150), 4).matrix)
        assert calls == []

    def test_views_share_one_eigensolve(self, monkeypatch):
        op = HermitianOperator(random_positive(gen(151), 4).matrix)
        calls = count_eigh(monkeypatch)
        pos, psd = PositiveOperator(op), PsdOperator(op)
        matrix_function(pos, np.log)
        clustered_eigensystem(op)
        log_cross(psd)
        zeroth_power(psd)
        assert len(calls) == 1 and calls[0] is op.matrix
        assert pos.eigensystem is op.eigensystem and psd.eigensystem is op.eigensystem
        assert psd.eigenvectors is op.eigensystem[1]
        assert pos.min_eigenvalue == op.eigensystem[0][0]

    def test_view_conversion_validates_and_solves_nothing(self, monkeypatch):
        pos = random_positive(gen(153), 4)
        psd = PsdOperator(pos.op)
        validated = []
        check = HermitianOperator.__post_init__
        monkeypatch.setattr(HermitianOperator, "__post_init__", lambda op: validated.append(op) or check(op))
        calls = count_eigh(monkeypatch)
        as_psd, as_pos = PsdOperator(pos), PositiveOperator(psd)
        assert (validated, calls) == ([], [])
        # Only the two results are validated, where they become operators.
        projector, log = zeroth_power(pos), log_cross(pos)
        assert validated == [projector, log] and calls == []
        assert as_psd.op is pos.op and as_pos.op is psd.op
        np.testing.assert_array_equal(as_psd.eigenvalues, psd.eigenvalues)

    def test_cached_arrays_are_read_only(self):
        op = HermitianOperator(random_positive(gen(152), 3).matrix)
        psd = PsdOperator(op)
        for arr in op.eigensystem + (psd.eigenvalues, psd.eigenvectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_psd_snaps_its_own_copy(self):
        op = HermitianOperator(np.diag([1e-12, 0.5, 1.0]).astype(complex))
        psd = PsdOperator(op)
        assert psd.eigenvalues is not op.eigensystem[0]
        assert psd.eigenvalues[0] == 0.0 and op.eigensystem[0][0] == 1e-12
        assert psd.rank == 2

    def test_errors_and_messages_unchanged(self):
        op = HermitianOperator(np.diag([-1e-3, 1.0]).astype(complex))
        with pytest.raises(PositivityError, match=r"^operator is not strictly positive \(min eigenvalue -1\.000e-03\)$"):
            PositiveOperator(op)
        with pytest.raises(PositivityError, match=r"^operator has eigenvalue -1\.000e-03 below -zero_tol; not PSD$"):
            PsdOperator(op)

    def test_eigensolver_failure_is_raised_on_use(self, monkeypatch):
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        op = HermitianOperator(np.eye(2, dtype=complex))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            PositiveOperator(op)


class TestHermitize:
    """Computed matrices are wrapped after one fused roundoff check; every
    input that check rejects reaches the validating constructor and raises
    its error and message."""

    @staticmethod
    def _validated(arr, rel_tol=1e-8):
        scale = float(np.max(np.abs(arr)))
        return HermitianOperator(arr, herm_tol=rel_tol * max(1.0, scale))

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bytes_as_validated_constructor(self, seed):
        g = gen(160 + seed)
        n = 2 + 2 * seed
        a = random_hermitian(g, n).matrix
        b = random_positive(g, n).matrix
        computed = a @ b @ a  # Hermitian up to roundoff-size skew
        noise = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        for arr in (a, b, computed, computed * 1e9, a + 1e-9 * noise, a.real.copy()):
            ref = self._validated(arr)
            op = hermitize(arr)
            assert op.matrix.dtype == ref.matrix.dtype
            assert op.matrix.tobytes() == ref.matrix.tobytes()
            assert op.herm_tol == ref.herm_tol
            assert not op.matrix.flags.writeable
            assert not np.shares_memory(op.matrix, arr)

    def test_roundoff_skew_is_symmetrized(self):
        g = gen(165)
        a, b = random_hermitian(g, 5).matrix, random_positive(g, 5).matrix
        computed = a @ b @ a
        assert not np.array_equal(computed, computed.conj().T)
        op = hermitize(computed)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert np.all(op.matrix.diagonal().imag == 0.0)

    def test_skew_beyond_tolerance_raises(self):
        a = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
        with pytest.raises(
            HermiticityError,
            match=r"^matrix deviates from Hermiticity by 5\.000e-01 > tol 2\.000e-08$",
        ):
            hermitize(a)
        big = 1e6 * a
        with pytest.raises(
            HermiticityError,
            match=r"^matrix deviates from Hermiticity by 5\.000e\+05 > tol 2\.000e-02$",
        ):
            hermitize(big)

    @pytest.mark.parametrize("arr", NON_FINITE)
    def test_non_finite_raises(self, arr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^HermitianOperator has non-finite entries$"):
                hermitize(arr)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(-300, 300))
    def test_symmetrized_is_a_fixed_point(self, seed, n, exponent):
        # Inside the library a symmetrized array needs no guard: the guard
        # finds zero skew on it and returns the same bits. Magnitudes stay
        # below half the float range, where A + A^H cannot overflow.
        from dpisat.linalg import _symmetrized

        g = gen(seed)
        x = (g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))) * 10.0 ** exponent
        # Exact and signed zeros in either part, as real inputs and sparse products have.
        x.real[g.random((n, n)) < 0.2] = -0.0
        x.imag[g.random((n, n)) < 0.3] = 0.0
        x.imag[g.random((n, n)) < 0.2] = -0.0
        sym = _symmetrized(x)
        assert hermitize(sym).matrix.tobytes() == sym.tobytes()
        assert _symmetrized(sym).tobytes() == sym.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0), (2, 2, 2)])
    def test_non_square_raises(self, shape):
        pattern = rf"^HermitianOperator must be a square matrix, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=pattern):
            hermitize(np.ones(shape, dtype=complex))


class TestSpectralDecompose:
    def test_identity_single_cluster(self):
        sd = spectral_decompose(HermitianOperator(np.eye(2, dtype=complex)))
        assert sd.eigenvalues == (1.0,)
        np.testing.assert_allclose(sd.projectors[0].matrix, np.eye(2), atol=1e-14)

    def test_diagonal_input(self):
        sd = spectral_decompose(HermitianOperator(np.diag([0.75, 0.25]).astype(complex)))
        assert sorted(sd.eigenvalues) == [0.25, 0.75]
        by_val = dict(sd.items())
        np.testing.assert_allclose(by_val[0.75].matrix, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(by_val[0.25].matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_reconstruction_random(self):
        g = gen(101)
        for n in range(2, 9):
            for _ in range(100):
                a = random_hermitian(g, n)
                sd = spectral_decompose(a)
                err = np.linalg.norm(sd.reconstruct() - a.matrix)
                assert err <= 1e-9 * max(np.linalg.norm(a.matrix), 1e-30)

    def test_projector_algebra(self):
        g = gen(102)
        for n in (2, 4, 6):
            a = random_hermitian(g, n)
            sd = spectral_decompose(a)
            total = np.zeros((n, n), dtype=complex)
            for j, pj in enumerate(sd.projectors):
                total += pj.matrix
                for k, pk in enumerate(sd.projectors):
                    prod = pj.matrix @ pk.matrix
                    expected = pj.matrix if j == k else np.zeros((n, n))
                    assert np.linalg.norm(prod - expected) <= 1e-10
            assert np.linalg.norm(total - np.eye(n)) <= 1e-10

    def test_near_degenerate_eigenvalues_merge(self):
        g = gen(103)
        q = np.linalg.qr(g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3)))[0]
        a = HermitianOperator(q @ np.diag([1.0, 1.0 + 1e-12, 2.0]) @ q.conj().T, herm_tol=1e-8)
        sd = spectral_decompose(a)
        assert len(sd.eigenvalues) == 2
        merged = min(sd.projectors, key=lambda p: -np.trace(p.matrix).real)
        assert np.trace(merged.matrix).real == pytest.approx(2.0, abs=1e-9)

    def test_cluster_separation_invariant(self):
        g = gen(104)
        for _ in range(20):
            a = random_hermitian(g, 5)
            sd = spectral_decompose(a)
            vals = sd.eigenvalues
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    gap = abs(vals[i] - vals[j])
                    assert gap > sd.cluster_tol * max(1.0, abs(vals[i]), abs(vals[j]))

    def test_eigensolver_failure_carries_input(self, monkeypatch):
        from dpisat import linalg as la

        def broken(matrix):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        a = HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(la.EigensolverError) as err:
            spectral_decompose(a)
        np.testing.assert_array_equal(err.value.matrix, a.matrix)


def _reference_cluster_groups(w, tol):
    """Index lists of the clusters, one np.mean per cluster per sweep: the
    loop that the run-based clustering replaced, kept as its reference."""
    groups = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] <= tol * max(1.0, abs(w[i]), abs(w[i - 1])):
            groups[-1].append(i)
        else:
            groups.append([i])
    while True:
        merged = False
        out = [groups[0]]
        for grp in groups[1:]:
            rep_prev = float(np.mean(w[out[-1]]))
            rep_cur = float(np.mean(w[grp]))
            if rep_cur - rep_prev <= tol * max(1.0, abs(rep_cur), abs(rep_prev)):
                out[-1] = out[-1] + grp
                merged = True
            else:
                out.append(grp)
        groups = out
        if not merged:
            return groups


class TestClusterGroups:
    TOL = 1e-8

    def _spectra(self):
        g = gen(105)
        tol = self.TOL
        for _ in range(200):
            n = int(g.integers(1, 40))
            yield np.sort(g.normal(size=n) * 10.0 ** g.uniform(-3, 3))
        for _ in range(200):
            # Near-degenerate clusters of random sizes around a few centres.
            centres = g.normal(size=int(g.integers(1, 6))) * 10.0 ** g.uniform(-2, 2)
            sizes = g.integers(1, 12, size=centres.size)
            jitter = [c + tol * g.uniform(-2, 2, size=k) * max(1.0, abs(c)) for c, k in zip(centres, sizes)]
            yield np.sort(np.concatenate(jitter))
        for _ in range(200):
            # Chains: adjacent steps near the tolerance, so representatives of
            # neighbouring runs can fall within it and merge again.
            start = g.normal() * 10.0 ** g.uniform(-1, 2)
            steps = tol * max(1.0, abs(start)) * g.choice([0.4, 0.9, 1.05, 1.3, 1.6, 2.5], size=int(g.integers(1, 30)))
            yield np.concatenate(([start], start + np.cumsum(steps)))

    def test_matches_reference_exactly(self):
        from dpisat.linalg import _cluster_groups, clustered_eigensystem

        for w in self._spectra():
            expected = _reference_cluster_groups(w, self.TOL)
            starts, reps = _cluster_groups(w, self.TOL)
            assert [grp[0] for grp in expected] == starts.tolist()
            assert [float(np.mean(w[grp])) for grp in expected] == reps.tolist()
            psd = PsdOperator(HermitianOperator(np.diag(np.abs(w)).astype(complex)))
            col_reps, ids, _ = clustered_eigensystem(psd, self.TOL)
            for cid, grp in enumerate(_reference_cluster_groups(psd.eigenvalues, self.TOL)):
                assert (ids[grp] == cid).all()
                assert (col_reps[grp] == float(np.mean(psd.eigenvalues[grp]))).all()


class TestMatrixFunction:
    def test_log_identity_is_zero(self):
        out = matrix_function(HermitianOperator(np.eye(2, dtype=complex)), np.log)
        np.testing.assert_allclose(out.matrix, np.zeros((2, 2)), atol=1e-14)

    def test_diagonal_square_root(self):
        out = matrix_function(HermitianOperator(np.diag([4.0, 9.0]).astype(complex)), np.sqrt)
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 3.0]), atol=1e-12)

    def test_exp_matches_taylor_series(self):
        g = gen(110)
        x = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        a = HermitianOperator(0.3 * (x + x.conj().T))
        term = np.eye(3, dtype=complex)
        series = np.eye(3, dtype=complex)
        for m in range(1, 31):
            term = term @ a.matrix / m
            series = series + term
        out = matrix_function(a, np.exp)
        assert np.linalg.norm(out.matrix - series) <= 1e-10

    def test_domain_error_names_eigenvalue(self):
        psd = PsdOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex)))
        with pytest.raises(MatrixFunctionDomainError) as err:
            matrix_function(psd, np.log)
        assert err.value.eigenvalue == 0.0

    def test_power_homomorphism(self):
        g = gen(111)
        for _ in range(10):
            a = random_positive(g, 4)
            pa = matrix_function(a.op, lambda x: x ** 0.3)
            pb = matrix_function(a.op, lambda x: x ** 1.2)
            pab = matrix_function(a.op, lambda x: x ** 1.5)
            assert np.linalg.norm(pa.matrix @ pb.matrix - pab.matrix) <= 1e-9


def _spectral_readers():
    """Each public function that reads the spectrum of an array argument, as
    a map from that argument to the arrays it returns."""
    from dpisat.calculus import LOG, frechet_derivative

    direction = np.array([[0.5, 1.0 - 2.0j], [1.0 + 2.0j, -1.0]])
    readers = {
        "matrix_function": lambda a: [matrix_function(a, np.exp).matrix],
        "spectral_decompose": lambda a: [p.matrix for p in spectral_decompose(a).projectors],
        "clustered_eigensystem": lambda a: list(clustered_eigensystem(a)),
        "frechet_derivative": lambda a: [frechet_derivative(a, direction, LOG).matrix],
    }
    return [pytest.param(f, id=name) for name, f in readers.items()]


class TestArrayAdmission:
    """An array reaching a spectral function passes the one Hermiticity check
    of the :class:`HermitianOperator` constructor, as it does everywhere else;
    none reads one triangle of a non-Hermitian array."""

    @pytest.mark.parametrize("read", _spectral_readers())
    def test_non_hermitian_array_raises(self, read):
        with pytest.raises(HermiticityError):
            read(np.array([[1.0, 5.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("read", _spectral_readers())
    def test_non_finite_array_raises(self, read):
        with pytest.raises(ValueError, match=r"^HermitianOperator has non-finite entries$"):
            read(np.array([[1.0, np.nan], [np.nan, 2.0]]))

    @pytest.mark.parametrize("read", _spectral_readers())
    def test_hermitian_array_reads_as_its_operator(self, read):
        a = random_positive(gen(131), 2).matrix.copy()
        for got, want in zip(read(a), read(HermitianOperator(a)), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_frechet_direction_must_be_hermitian(self):
        from dpisat.calculus import LOG, finite_difference_frechet, frechet_derivative

        a, m = np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityError):
            frechet_derivative(a, m, LOG)
        with pytest.raises(HermiticityError):
            finite_difference_frechet(a, m, LOG)


class TestSupportFunctions:
    def test_log_cross_keeps_zero(self):
        out = log_cross(PsdOperator(HermitianOperator(np.diag([1.0, 0.0]).astype(complex))))
        np.testing.assert_allclose(out.matrix, np.zeros((2, 2)), atol=1e-14)

    def test_log_cross_diagonal(self):
        vals = [np.e, 0.0, np.e ** 2]
        out = log_cross(PsdOperator(HermitianOperator(np.diag(vals).astype(complex))))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0, 2.0]), atol=1e-12)

    def test_log_cross_full_rank_equals_log(self):
        g = gen(120)
        a = random_positive(g, 3)
        via_cross = log_cross(PsdOperator(a.op))
        via_function = matrix_function(a.op, np.log)
        assert np.linalg.norm(via_cross.matrix - via_function.matrix) <= 1e-12

    def test_log_cross_annihilates_kernel(self):
        g = gen(121)
        psd = random_psd_rank(g, 4, 2)
        kernel = np.eye(4) - zeroth_power(psd).matrix
        assert np.linalg.norm(log_cross(psd).matrix @ kernel) <= 1e-13

    def test_zeroth_power_diagonal(self):
        out = zeroth_power(PsdOperator(HermitianOperator(np.diag([0.5, 0.0]).astype(complex))))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zeroth_power_full_rank_is_identity(self):
        g = gen(122)
        a = random_positive(g, 3)
        out = zeroth_power(PsdOperator(a.op))
        assert np.linalg.norm(out.matrix - np.eye(3)) <= 1e-12

    def test_zeroth_power_projector_properties(self):
        g = gen(123)
        psd = random_psd_rank(g, 4, 2)
        p = zeroth_power(psd).matrix
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)
        assert np.linalg.norm(p @ p - p) <= 1e-10


class TestZeroAwareSpectralMap:
    """Every function of a spectrum is taken on the nonzero eigenvalues and
    is 0 on exact zeros, so a function of a PSD operator lives on its support."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_powers_and_log_of_rank_deficient_psd(self, rank):
        from dpisat.linalg import _logm, _powm

        g = gen(124 + rank)
        psd = random_psd_rank(g, 4, rank)
        p = zeroth_power(psd).matrix
        q = np.eye(4) - p
        for out in (_logm(psd), _powm(psd, -1.0), _powm(psd, 0.5), _powm(psd, 1.7)):
            assert np.isfinite(out).all()
            assert np.linalg.norm(out @ q) <= 1e-12
        np.testing.assert_array_equal(hermitize(_logm(psd)).matrix, log_cross(psd).matrix)
        # Powers compose on the support: A^-1 A = P and (A^1/2)^2 = A.
        assert np.linalg.norm(_powm(psd, -1.0) @ psd.matrix - p) <= 1e-10
        assert np.linalg.norm(_powm(psd, 0.5) @ _powm(psd, 0.5) - psd.matrix) <= 1e-12

    def test_full_rank_is_the_plain_function(self):
        from dpisat.linalg import _logm, _powm

        g = gen(128)
        a = random_positive(g, 4)
        w, v = np.linalg.eigh(a.matrix)
        for psd in (a, PsdOperator(a.op)):
            np.testing.assert_array_equal(_logm(psd), (v * np.log(w)) @ v.conj().T)
            np.testing.assert_array_equal(_powm(psd, -0.5), (v * w ** -0.5) @ v.conj().T)


class TestHsInner:
    def test_identity_pair(self):
        assert hs_inner(np.eye(3, dtype=complex), np.eye(3, dtype=complex)) == pytest.approx(3.0)

    def test_pauli_orthogonality(self):
        assert hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

    def test_against_entrywise_double_sum(self):
        g = gen(130)
        a, b = random_hermitian(g, 4), random_hermitian(g, 4)
        direct = sum(
            a.matrix[i, j] * b.matrix[j, i] for i in range(4) for j in range(4)
        )
        assert hs_inner(a, b) == pytest.approx(direct.real, abs=1e-12)
        assert abs(direct.imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    def test_symmetric_and_real(self, seed, n):
        g = gen(seed)
        a, b = random_hermitian(g, n), random_hermitian(g, n)
        ab = hs_inner(a, b)
        ba = hs_inner(b, a)
        assert isinstance(ab, float)
        assert ab == pytest.approx(ba, abs=1e-11)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_spectral_reconstruction_property(seed, n):
    g = gen(seed)
    a = random_hermitian(g, n)
    sd = spectral_decompose(a)
    err = np.linalg.norm(sd.reconstruct() - a.matrix)
    assert err <= 1e-9 * max(1.0, np.linalg.norm(a.matrix))


class TestMatrixJson:
    def test_roundtrip_square(self):
        g = gen(140)
        a = random_hermitian(g, 3)
        back = matrix_from_json(matrix_to_json(a))
        np.testing.assert_allclose(back, a.matrix, atol=0)

    def test_roundtrip_rectangular(self):
        arr = np.arange(6, dtype=float).reshape(2, 3) + 1j
        back = matrix_from_json(matrix_to_json(arr))
        np.testing.assert_allclose(back, arr, atol=0)

    def test_schema_error_paths(self):
        with pytest.raises(SchemaError) as err:
            matrix_from_json({"dim": 2, "entries": [[[0, 0]], [[0, 0]]]}, "rho")
        assert "rho.entries[0]" in str(err.value)
        with pytest.raises(SchemaError):
            matrix_from_json({"dim": 0, "entries": []})
        with pytest.raises(SchemaError):
            matrix_from_json({"entries": []})
        with pytest.raises(SchemaError):
            matrix_from_json({"dim": 1, "entries": [[[np.inf, 0]]]})

    @staticmethod
    def _error(entries, cols=2):
        with pytest.raises(SchemaError) as err:
            matrix_from_json({"rows": len(entries), "cols": cols, "entries": entries}, "rho")
        return err.value.path, err.value.reason

    @pytest.mark.parametrize(
        "cell",
        [[True, 0.0], [0.0, False], ["1.0", 0.0], [1.0, None], [[1.0], 0.0], [1.0], [1.0, 0.0, 0.0],
         "10", {"re": 1.0, "im": 0.0}],
        ids=["bool-re", "bool-im", "string", "null", "nested", "short-pair", "long-pair",
             "string-cell", "object-cell"],
    )
    def test_malformed_cell_is_named(self, cell):
        entries = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], cell]]
        assert self._error(entries) == ("rho.entries[1][1]", "expected a [re, im] pair of numbers")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10 ** 400, -(10 ** 400)],
        ids=["nan", "inf", "-inf", "huge-int", "huge-negative-int"],
    )
    def test_non_finite_or_unrepresentable_entry_is_named(self, value):
        entries = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, value], [1.0, 0.0]]]
        assert self._error(entries) == ("rho.entries[1][0]", "entries must be finite")

    @pytest.mark.parametrize(
        "value,got", [(float("nan"), "nan"), (-float("inf"), "-inf"), (10 ** 400, "inf"), (-(10 ** 400), "-inf")],
        ids=["nan", "-inf", "huge-int", "huge-negative-int"],
    )
    def test_number_field_must_be_finite(self, value, got):
        for positive in (False, True):
            with pytest.raises(SchemaError) as err:
                _number(value, "measure.alpha", positive=positive)
            assert (err.value.path, err.value.reason) == ("measure.alpha", f"expected a finite number, got {got}")
        assert _number(3, "p") == 3.0 and type(_number(3, "p")) is float

    @pytest.mark.parametrize("value", [2 ** 70], ids=["big-int"])
    def test_finite_big_integer_entry_decodes_to_its_float(self, value):
        got = matrix_from_json({"rows": 1, "cols": 2, "entries": [[[value, 0], [1.5, value]]]})
        np.testing.assert_array_equal(got, [[float(value), 1.5 + 1j * float(value)]])

    def test_short_row_is_named(self):
        entries = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
        assert self._error(entries) == ("rho.entries[1]", "expected a list of 2 cells")

    def test_first_bad_cell_in_row_major_order(self):
        entries = [[[1.0, 0.0], [float("nan"), 0.0]], [[True, 0.0]]]
        assert self._error(entries) == ("rho.entries[0][1]", "entries must be finite")

    def test_decoding_matches_cell_by_cell_reference(self):
        # Plain floats, signed zeros, integers (also beyond 2**53 and 2**63)
        # and subclasses of float decode exactly as re + 1j * im per cell.
        g = gen(153)
        specials = [0.0, -0.0, 3, -(2 ** 53) - 1, 2 ** 70 + 1, -(2 ** 63) - 3, np.float64(0.25)]
        for _ in range(50):
            rows, cols = (int(x) for x in g.integers(1, 7, 2))
            entries = (g.normal(size=(rows, cols, 2)) * 10.0 ** g.integers(-30, 30, (rows, cols, 2))).tolist()
            for _ in range(3):
                i, j, k = g.integers(0, rows), g.integers(0, cols), g.integers(0, 2)
                entries[i][j][k] = specials[g.integers(0, len(specials))]
            expected = np.zeros((rows, cols), dtype=np.complex128)
            for i, row in enumerate(entries):
                for j, (re, im) in enumerate(row):
                    expected[i, j] = float(re) + 1j * float(im)
            got = matrix_from_json({"rows": rows, "cols": cols, "entries": entries})
            assert got.dtype == np.complex128 and got.shape == (rows, cols)
            assert got.tobytes() == expected.tobytes()

    def test_frobenius_helper(self):
        assert frobenius(np.eye(2, dtype=complex)) == pytest.approx(np.sqrt(2.0))
