import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpisat.channels import (
    _BLOCK,
    KrausChannel,
    _act,
    _act_adjoint,
    _adjoint_raw,
    adjoint_apply,
    apply,
    apply_raw,
    channel_from_json,
    channel_to_json,
    choi_matrix,
    compose,
    dephasing_pinching,
    depolarizing,
    identity,
    measure_prepare,
    partial_trace,
    tp_error,
    unitary,
    verify_cptp,
)
from dpisat.divergences import MeasureSpec, evaluate
from dpisat.linalg import (
    HermitianOperator,
    HermiticityError,
    PositiveOperator,
    PsdOperator,
    SchemaError,
    hs_inner,
    matrix_to_json,
)
from dpisat.saturation import _pairs, _petz_factors, build_report, petz_map

from _fixtures import (
    gen,
    permutation_measure_prepare,
    random_cptp,
    random_hermitian,
    random_positive,
    random_unitary,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
# Builder operands of three shapes: 2x2, 3x3 and 2x3.
_EFFECT_2 = matrix_to_json(np.eye(2))
_DIAG_3 = matrix_to_json(np.diag([1.0, 0.0, 0.0]))
_WIDE = matrix_to_json(np.eye(2, 3))


class TestApply:
    def test_identity_channel(self):
        g = gen(300)
        a = random_hermitian(g, 3)
        out = apply(identity(3), a)
        assert np.linalg.norm(out.matrix - a.matrix) <= 1e-14

    def test_full_depolarizing_gives_maximally_mixed(self):
        g = gen(301)
        rho = random_positive(g, 2)
        rho = HermitianOperator(rho.matrix / np.trace(rho.matrix).real)
        out = apply(depolarizing(2, 1.0), rho)
        assert np.linalg.norm(out.matrix - np.eye(2) / 2) <= 1e-12

    def test_depolarizing_half(self):
        out = apply(depolarizing(2, 0.5), HermitianOperator(np.diag([0.9, 0.1]).astype(complex)))
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)

    def test_partial_trace_against_contraction_oracle(self):
        g = gen(302)
        rho_a = random_positive(g, 2).matrix
        tau_b = random_positive(g, 2).matrix
        joint = np.kron(rho_a, tau_b)
        out = apply(partial_trace(2, 2, "a"), HermitianOperator(joint))
        oracle = np.einsum("abcb->ac", joint.reshape(2, 2, 2, 2))
        assert np.linalg.norm(out.matrix - oracle) <= 1e-12
        assert np.linalg.norm(out.matrix - rho_a * np.trace(tau_b).real) <= 1e-12

    def test_partial_trace_keep_b(self):
        g = gen(303)
        rho_a = random_positive(g, 2).matrix
        tau_b = random_positive(g, 3).matrix
        joint = np.kron(rho_a, tau_b)
        out = apply(partial_trace(2, 3, "b"), HermitianOperator(joint))
        oracle = np.einsum("abac->bc", joint.reshape(2, 3, 2, 3))
        assert np.linalg.norm(out.matrix - oracle) <= 1e-12

    def test_unitary_flip(self):
        out = apply(unitary(SIGMA_X), HermitianOperator(np.diag([0.3, 0.7]).astype(complex)))
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-14)

    def test_pinching_kills_off_diagonals(self):
        a = HermitianOperator(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
        out = apply(dephasing_pinching(2), a)
        np.testing.assert_allclose(out.matrix, np.diag([0.6, 0.4]), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(identity(2), np.eye(3, dtype=complex))


class TestAdjoint:
    def test_adjoint_of_identity(self):
        g = gen(310)
        a = random_hermitian(g, 3)
        out = adjoint_apply(identity(3), a)
        assert np.linalg.norm(out.matrix - a.matrix) <= 1e-14

    def test_adjoint_is_unital(self):
        g = gen(311)
        for c in (
            depolarizing(3, 0.4),
            dephasing_pinching(3),
            partial_trace(2, 2, "a"),
            random_cptp(g, 2, 3),
        ):
            out = adjoint_apply(c, np.eye(c.dim_out, dtype=complex))
            assert np.linalg.norm(out.matrix - np.eye(c.dim_in)) <= 1e-10

    def test_duality_identity_rectangular(self):
        g = gen(312)
        c = random_cptp(g, 2, 3)
        a = random_hermitian(g, 3)
        b = random_hermitian(g, 2)
        lhs = hs_inner(adjoint_apply(c, a), b)
        rhs = hs_inner(a, apply(c, b))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(2, 4))
    def test_duality_identity_property(self, seed, n_in, n_out):
        g = gen(seed)
        c = random_cptp(g, n_in, n_out)
        a = random_hermitian(g, n_out)
        b = random_hermitian(g, n_in)
        assert hs_inner(adjoint_apply(c, a), b) == pytest.approx(
            hs_inner(a, apply(c, b)), abs=1e-10
        )

    def test_duality_identity_two_hundred_triples(self):
        g = gen(313)
        for trial in range(200):
            n_in = 2 + trial % 3
            n_out = 2 + (trial // 3) % 3
            c = random_cptp(g, n_in, n_out)
            a = random_hermitian(g, n_out)
            b = random_hermitian(g, n_in)
            lhs = hs_inner(adjoint_apply(c, a), b)
            rhs = hs_inner(a, apply(c, b))
            assert abs(lhs - rhs) <= 1e-10


class TestVerifyCptp:
    def test_identity_report(self):
        rep = verify_cptp(identity(3))
        assert rep.tp_error <= 1e-14
        assert rep.choi_min_eig >= -1e-10

    def test_partial_dephasing(self):
        rep = verify_cptp(dephasing_pinching(2, p=0.3))
        assert rep.tp_error <= 1e-12
        assert rep.choi_min_eig >= -1e-10

    def test_scaled_kraus_flags_violation(self):
        bad = tuple(1.1 * k for k in identity(2).kraus)
        c = KrausChannel(bad, tp_tol=1.0)
        rep = verify_cptp(c)
        assert rep.tp_error == pytest.approx(0.21 * np.sqrt(2.0), abs=1e-12)

    def test_construction_rejects_non_tp(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel((1.1 * np.eye(2, dtype=complex),))

    def test_random_channels_pass(self):
        g = gen(320)
        for _ in range(10):
            rep = verify_cptp(random_cptp(g, 3, 2))
            assert rep.tp_error <= 1e-10
            assert rep.choi_min_eig >= -1e-10


    @pytest.mark.parametrize("form", ["dense", "transfer"])
    def test_one_trace_preservation_formula_at_construction(self, form):
        # Construction judges ||L*(I) - I||_F through the channel's own action,
        # whatever its form; verify_cptp still reports the Gram sum of the
        # stack, an independent check of a dense channel.
        good = random_cptp(gen(321), 3, 2) if form == "dense" else depolarizing(3, 0.4)
        stack = 1.1 * good.kraus
        held = KrausChannel(stack, tp_tol=1.0)
        assert (held._transfer is None) == (form == "dense")
        tp = float(np.linalg.norm(_act_adjoint(held, np.eye(held.dim_out)) - np.eye(held.dim_in)))
        with pytest.raises(ValueError) as err:
            KrausChannel(stack)
        assert str(err.value) == f"channel is not trace preserving: ||sum K^H K - I||_F = {tp:.3e}"
        assert verify_cptp(held).tp_error == tp_error(held.kraus)
        assert tp == pytest.approx(tp_error(held.kraus), rel=1e-12)


class TestBuilders:
    def test_depolarizing_rejects_bad_p(self):
        with pytest.raises(ValueError):
            depolarizing(2, 1.5)

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unitary_rejects_non_finite_entries(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match=r"^matrix is not unitary: \|\|U\^H U - I\|\|_F = (nan|inf)$"):
            unitary(u)

    def test_pinching_custom_basis(self):
        g = gen(330)
        u = random_unitary(g, 3)
        c = dephasing_pinching(u)
        a = random_hermitian(g, 3)
        out = apply(c, a)
        # In the pinching basis, the result is the diagonal part.
        transformed = u.conj().T @ out.matrix @ u
        original = u.conj().T @ a.matrix @ u
        assert np.linalg.norm(transformed - np.diag(np.diagonal(original))) <= 1e-12

    def test_measure_prepare_action(self):
        g = gen(331)
        u = random_unitary(g, 2)
        povm = [u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T,
                u @ np.diag([0.0, 1.0]).astype(complex) @ u.conj().T]
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        c = measure_prepare(povm, states)
        assert verify_cptp(c).tp_error <= 1e-10
        rho = random_positive(g, 2).matrix
        expected = sum(
            np.trace(e @ rho).real * t for e, t in zip(povm, states)
        )
        out = apply(c, HermitianOperator(rho))
        assert np.linalg.norm(out.matrix - expected) <= 1e-12

    def test_measure_prepare_rejects_bad_povm(self):
        povm = [np.diag([1.0, 0.0]).astype(complex)]
        states = [np.diag([1.0, 0.0]).astype(complex)]
        with pytest.raises(ValueError, match="sum to the identity"):
            measure_prepare(povm, states)

    def test_measure_prepare_rejects_unnormalized_state(self):
        povm = [np.eye(2, dtype=complex)]
        states = [2.0 * np.diag([1.0, 0.0]).astype(complex)]
        with pytest.raises(ValueError, match="trace"):
            measure_prepare(povm, states)

    def test_measure_prepare_refuses_a_non_hermitian_povm_element(self):
        # The pair sums to I, and the upper triangle alone would make a channel
        # that gives diag(0.5, 0.5) on [[0.5, 0.3], [0.3, 0.5]], not
        # sum tr(E_i A) tau_i = diag(0.77, 0.23).
        e0 = np.array([[0.5, 0.9], [0.0, 0.5]])
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(HermiticityError, match=r"^POVM element 0: matrix deviates from Hermiticity"):
            measure_prepare([e0, np.eye(2) - e0], states)

    def test_measure_prepare_refuses_a_non_finite_prepared_state(self):
        # Its NaN eigenvalue would fail every threshold and leave |1><1|.
        states = [np.diag([1.0, 0.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])]
        with pytest.raises(ValueError, match=r"^prepared state 1: HermitianOperator has non-finite entries$"):
            measure_prepare([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], states)

    def test_measure_prepare_rejects_empty_povm(self):
        with pytest.raises(ValueError, match="need at least one POVM element"):
            measure_prepare([], [])
        with pytest.raises(ValueError, match="^need at least one POVM element$"):
            measure_prepare(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))

    def test_measure_prepare_takes_arrays(self):
        g = gen(332)
        povm = random_povm(g, 3, 3)
        states = [random_positive(g, 2).matrix for _ in povm]
        states = [t / np.trace(t).real for t in states]
        want = measure_prepare(povm, states).kraus
        got = measure_prepare(np.array(povm), np.array(states)).kraus
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def random_povm(g, n: int, k: int) -> list:
    """k random full-rank effects summing to the identity, the last one by
    subtraction."""
    parts = [random_positive(g, n).matrix for _ in range(k)]
    w, v = np.linalg.eigh(sum(parts))
    inv_half = (v / np.sqrt(w)) @ v.conj().T
    effects = [inv_half @ p @ inv_half for p in parts[:-1]]
    return effects + [np.eye(n) - sum(effects)]


def reference_measure_prepare_stack(povm, states) -> np.ndarray:
    """The Kraus stack of measure_prepare, built one eigensolve and one outer
    product at a time."""
    ops = []
    for effect, tau in zip(povm, states):
        we, ue = np.linalg.eigh(np.asarray(effect, dtype=complex))
        wt, vt = np.linalg.eigh(np.asarray(tau, dtype=complex))
        for a in np.flatnonzero(we > 1e-14):
            for b in np.flatnonzero(wt > 1e-14):
                ops.append(np.sqrt(we[a] * wt[b]) * np.outer(vt[:, b], ue[:, a].conj()))
    stack = np.array(ops)
    return stack.real if not stack.imag.any() else stack


class TestMeasurePrepareStack:
    """measure_prepare solves each operand list with one stacked eigensolve
    and builds the Kraus stack by broadcasting, bit for bit as one matrix at a
    time."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_stacked_eigh_is_per_matrix_eigh(self, n):
        mats = np.array(random_povm(gen(340 + n), n, 4))
        w, v = np.linalg.eigh(mats)
        for i, mat in enumerate(mats):
            wi, vi = np.linalg.eigh(mat)
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_permutation_fixture(self, n):
        povm = [np.diag(np.eye(n)[i]) for i in range(n)]
        states = [np.diag(np.eye(n)[(i + 1) % n]) for i in range(n)]
        stack = permutation_measure_prepare(n).kraus
        expected = reference_measure_prepare_stack(povm, states)
        assert stack.dtype == expected.dtype and np.array_equal(stack, expected)

    @pytest.mark.parametrize("n,m", [(3, 3), (5, 2), (8, 4)])
    def test_random_povm(self, n, m):
        g = gen(350 + n)
        povm = random_povm(g, n, 3)
        states = []
        for _ in povm:  # rank-2 states: one eigenpair of each is dropped
            x = g.normal(size=(m, 2)) + 1j * g.normal(size=(m, 2))
            states.append(x @ x.conj().T / np.trace(x @ x.conj().T).real)
        stack = measure_prepare(povm, states).kraus
        expected = reference_measure_prepare_stack(povm, states)
        assert stack.shape == expected.shape and np.array_equal(stack, expected)

    def test_negative_operands_are_named(self):
        povm = [np.diag([1.0, -0.5]), np.diag([0.0, 1.5])]
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        with pytest.raises(ValueError, match="POVM element 0 has negative eigenvalue -5.000e-01"):
            measure_prepare(povm, states)
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        states = [np.diag([1.0, 0.0]), np.diag([1.2, -0.2])]
        with pytest.raises(ValueError, match="prepared state 1 has negative eigenvalue -2.000e-01"):
            measure_prepare(povm, states)


class TestInvariants:
    def test_trace_preservation(self):
        g = gen(340)
        for _ in range(20):
            c = random_cptp(g, 3, 3)
            a = random_hermitian(g, 3)
            assert np.trace(apply(c, a).matrix).real == pytest.approx(
                np.trace(a.matrix).real, abs=1e-10
            )

    def test_positivity_preservation(self):
        g = gen(341)
        for _ in range(20):
            c = random_cptp(g, 3, 2)
            rho = random_positive(g, 3)
            w = np.linalg.eigvalsh(apply(c, rho.op).matrix)
            assert w[0] >= -1e-9

    def test_composition(self):
        g = gen(342)
        c1 = random_cptp(g, 3, 2)
        c2 = random_cptp(g, 2, 4)
        a = random_hermitian(g, 3)
        sequential = apply(c2, apply(c1, a))
        fused = apply(compose(c2, c1), a)
        assert np.linalg.norm(sequential.matrix - fused.matrix) <= 1e-12


class TestChannelJson:
    def test_roundtrip_explicit(self):
        g = gen(350)
        c = random_cptp(g, 2, 3)
        back = channel_from_json(channel_to_json(c))
        assert back.dim_in == 2 and back.dim_out == 3
        a = random_hermitian(g, 2)
        assert np.linalg.norm(apply(back, a).matrix - apply(c, a).matrix) <= 1e-14

    @pytest.mark.parametrize("obj", [
        {"builder": "identity", "dim": 2},
        {"builder": "unitary", "matrix": matrix_to_json(np.array([[0, 1j], [1j, 0]]))},
        {"builder": "depolarizing", "dim": 3, "p": 0.4},
        {"builder": "dephasing_pinching", "dim": 3, "p": 0.5},
        {"builder": "dephasing_pinching", "basis": matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))},
        {"builder": "partial_trace", "dim_a": 2, "dim_b": 3, "keep": "b"},
        {"builder": "measure_prepare",
         "povm": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
         "states": [matrix_to_json(np.diag([0.5, 0.5, 0.0])), matrix_to_json(np.diag([0.0, 0.0, 1.0]))]},
    ], ids=lambda obj: obj["builder"] + ("/basis" if "basis" in obj else ""))
    def test_roundtrip_every_builder(self, obj):
        c = channel_from_json(obj)
        back = channel_from_json(json.loads(json.dumps(channel_to_json(c))))
        assert (back.dim_in, back.dim_out) == (c.dim_in, c.dim_out)
        assert len(back.kraus) == len(c.kraus)
        for k_back, k in zip(back.kraus, c.kraus):
            np.testing.assert_array_equal(k_back, k)

    def test_builder_shorthand(self):
        c = channel_from_json({"builder": "depolarizing", "dim": 2, "p": 0.5})
        out = apply(c, HermitianOperator(np.diag([0.9, 0.1]).astype(complex)))
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)

    @pytest.mark.parametrize("obj,reason", [
        ({"builder": "measure_prepare", "povm": [_EFFECT_2, _DIAG_3], "states": [_EFFECT_2, _EFFECT_2]},
         "all POVM elements must share one shape: POVM element 1 has shape (3, 3), "
         "POVM element 0 has shape (2, 2)"),
        ({"builder": "measure_prepare", "povm": [_WIDE], "states": [_EFFECT_2]},
         "POVM element 0 is not a square matrix: shape (2, 3)"),
        ({"builder": "measure_prepare", "povm": [_EFFECT_2, _EFFECT_2], "states": [_DIAG_3, _EFFECT_2]},
         "all prepared states must share one shape: prepared state 1 has shape (2, 2), "
         "prepared state 0 has shape (3, 3)"),
        ({"builder": "measure_prepare", "povm": [_EFFECT_2], "states": [_WIDE]},
         "prepared state 0 is not a square matrix: shape (2, 3)"),
        ({"builder": "dephasing_pinching", "basis": _WIDE}, "pinching basis 0 is not a square matrix: shape (2, 3)"),
        ({"builder": "unitary", "matrix": _WIDE}, "unitary 0 is not a square matrix: shape (2, 3)"),
        ({"kraus": [_EFFECT_2, _DIAG_3]},
         "all Kraus operators must share one shape: Kraus operator 1 has shape (3, 3), "
         "Kraus operator 0 has shape (2, 2)"),
    ], ids=["povm-sizes", "povm-wide", "state-sizes", "state-wide", "basis-wide", "unitary-wide", "kraus-sizes"])
    def test_operand_shapes_are_named(self, obj, reason):
        # Each operand is checked before numpy combines it with another.
        with pytest.raises(SchemaError) as err:
            channel_from_json(obj, "channel")
        assert (err.value.path, err.value.reason) == ("channel", reason)

    def test_empty_povm_is_a_schema_error(self):
        with pytest.raises(SchemaError) as err:
            channel_from_json({"builder": "measure_prepare", "povm": [], "states": []}, "channel")
        assert (err.value.path, err.value.reason) == ("channel", "need at least one POVM element")

    def test_unknown_builder(self):
        with pytest.raises(SchemaError, match="builder"):
            channel_from_json({"builder": "teleport", "dim": 2})

    def test_missing_field_path(self):
        with pytest.raises(SchemaError) as err:
            channel_from_json({"builder": "depolarizing", "dim": 2}, "channel")
        assert "channel.p" in str(err.value)

    def test_partial_trace_builder(self):
        c = channel_from_json(
            {"builder": "partial_trace", "dim_a": 2, "dim_b": 2, "keep": "a"}
        )
        assert c.dim_in == 4 and c.dim_out == 2


def _loop_apply(kraus, a):
    """Reference ``sum K A K^H``, one operator at a time."""
    return sum(k @ a @ k.conj().T for k in kraus)


def _loop_adjoint(kraus, a):
    """Reference ``sum K^H A K``, one operator at a time."""
    return sum(k.conj().T @ a @ k for k in kraus)


def _random_matrix(g, rows, cols, real=False):
    m = g.normal(size=(rows, cols))
    return m if real else m + 1j * g.normal(size=(rows, cols))


class TestKrausStack:
    """The blocked kernel against an explicit per-Kraus loop, the real-dtype
    rule and the stack's construction and validation."""

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1025])
    @pytest.mark.parametrize("real", [True, False])
    def test_raw_kernel_matches_loop_on_non_hermitian_input(self, count, real):
        g = gen(360 + count)
        stack = g.normal(size=(count, 3, 4))
        if not real:
            stack = stack + 1j * g.normal(size=(count, 3, 4))
        a_in, a_out = _random_matrix(g, 4, 4), _random_matrix(g, 3, 3)
        fwd, ref_fwd = apply_raw(stack, a_in), _loop_apply(stack, a_in)
        adj, ref_adj = _adjoint_raw(stack, a_out), _loop_adjoint(stack, a_out)
        assert fwd.shape == (3, 3) and adj.shape == (4, 4)
        assert np.linalg.norm(fwd - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
        assert np.linalg.norm(adj - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)

    def test_raw_kernel_takes_a_sequence_and_real_input(self):
        g = gen(370)
        kraus = [_random_matrix(g, 2, 3) for _ in range(5)]
        a = _random_matrix(g, 3, 3, real=True)
        assert np.linalg.norm(apply_raw(kraus, a) - _loop_apply(kraus, a)) <= 1e-13

    @pytest.mark.parametrize("count", [1, _BLOCK + 1, 1025])
    @pytest.mark.parametrize("real", [True, False])
    def test_channel_actions_match_loop(self, count, real):
        g = gen(371 + count)
        raw = g.normal(size=(count, 4, 3))
        if not real:
            raw = raw + 1j * g.normal(size=(count, 4, 3))
        w, v = np.linalg.eigh(np.einsum("kij,kil->jl", raw.conj(), raw))
        c = KrausChannel(raw @ ((v * w ** -0.5) @ v.conj().T))
        assert c.kraus.dtype == (np.float64 if real else np.complex128)
        a, b = random_hermitian(g, 3), random_hermitian(g, 4)
        ref_fwd = _loop_apply(c.kraus, a.matrix)
        ref_adj = _loop_adjoint(c.kraus, b.matrix)
        assert np.linalg.norm(apply(c, a).matrix - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
        assert np.linalg.norm(adjoint_apply(c, b).matrix - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)

    @pytest.mark.parametrize(
        "c",
        [partial_trace(2, 3, "a"), partial_trace(3, 2, "b"), depolarizing(5, 0.3),
         dephasing_pinching(4, 0.6)],
        ids=["ptrace_a", "ptrace_b", "depolarizing", "pinching"],
    )
    def test_real_builders_match_loop_and_adjoint_identity(self, c):
        g = gen(380)
        assert c.kraus.dtype == np.float64
        a = _random_matrix(g, c.dim_in, c.dim_in)
        b = _random_matrix(g, c.dim_out, c.dim_out)
        fwd, adj = apply_raw(c.kraus, a), _adjoint_raw(c.kraus, b)
        assert np.linalg.norm(fwd - _loop_apply(c.kraus, a)) <= 1e-13
        assert np.linalg.norm(adj - _loop_adjoint(c.kraus, b)) <= 1e-13
        # tr[L*(B) A] = tr[B L(A)] for non-Hermitian A and B.
        assert np.trace(adj @ a) == pytest.approx(np.trace(b @ fwd), abs=1e-12)

    def test_builders_write_the_documented_operators(self):
        n, p = 3, 0.4
        dep = [np.sqrt(1 - p) * np.eye(n)]
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = np.sqrt(p / n)
                dep.append(e)
        np.testing.assert_array_equal(depolarizing(n, p).kraus, np.array(dep))
        assert depolarizing(n, 1.0).kraus.shape == (n * n, n, n)
        assert depolarizing(n, 0.0).kraus.shape == (1, n, n)
        pinch = [np.sqrt(1 - p) * np.eye(n)] + [np.sqrt(p) * np.diag(np.eye(n)[i]) for i in range(n)]
        np.testing.assert_array_equal(dephasing_pinching(n, p).kraus, np.array(pinch))
        rows = np.eye(3)
        keep_a = [np.kron(np.eye(2), rows[b:b + 1]) for b in range(3)]
        keep_b = [np.kron(rows[a:a + 1], np.eye(2)) for a in range(3)]
        np.testing.assert_array_equal(partial_trace(2, 3, "a").kraus, np.array(keep_a))
        np.testing.assert_array_equal(partial_trace(3, 2, "b").kraus, np.array(keep_b))

    def test_dtype_rule(self):
        g = gen(390)
        assert unitary(random_unitary(g, 3)).kraus.dtype == np.complex128
        assert depolarizing(3, 0.4).kraus.dtype == np.float64
        assert identity(2).kraus.dtype == np.float64
        # Exactly zero imaginary parts make a real stack, whatever the input dtype.
        assert KrausChannel((np.eye(2, dtype=complex),)).kraus.dtype == np.float64
        assert dephasing_pinching(random_unitary(g, 3)).kraus.dtype == np.complex128

    def test_kraus_is_a_read_only_stack(self):
        c = depolarizing(2, 0.5)
        assert isinstance(c.kraus, np.ndarray) and c.kraus.shape == (5, 2, 2)
        assert not c.kraus.flags.writeable
        with pytest.raises(ValueError):
            c.kraus[0, 0, 0] = 2.0

    def test_construction_from_tuple_and_ndarray(self):
        g = gen(391)
        c = random_cptp(g, 3, 2, n_kraus=4)
        from_tuple = KrausChannel(tuple(np.array(k) for k in c.kraus))
        source = np.array(c.kraus)
        from_array = KrausChannel(source)
        np.testing.assert_array_equal(from_tuple.kraus, c.kraus)
        np.testing.assert_array_equal(from_array.kraus, c.kraus)
        assert from_array.dim_in == 3 and from_array.dim_out == 2
        # A writable array is copied, so later writes do not reach the channel.
        source[0] = 0.0
        np.testing.assert_array_equal(from_array.kraus, c.kraus)
        # A read-only stack is kept as it is.
        assert KrausChannel(c.kraus).kraus is c.kraus

    @pytest.mark.parametrize("tp_tol", [np.nan, -1.0])
    def test_tolerance_that_would_switch_off_the_check_is_refused(self, tp_tol):
        with pytest.raises(ValueError, match=r"^tp_tol must be a non-negative number"):
            KrausChannel((1.1 * np.eye(2),), tp_tol=tp_tol)
        with pytest.raises(ValueError, match=r"^tp_tol must be a non-negative number"):
            KrausChannel((np.eye(2),), tp_tol=tp_tol)

    def test_infinite_tolerance_holds_a_known_bad_list(self):
        c = KrausChannel((1.1 * np.eye(2),), tp_tol=np.inf)
        assert np.trace(apply(c, np.eye(2) / 2).matrix).real == pytest.approx(1.21)

    @pytest.mark.parametrize("build", [
        lambda: identity(0), lambda: partial_trace(0, 2, "a"), lambda: partial_trace(2, 0, "b"),
        lambda: unitary(np.zeros((0, 0))), lambda: KrausChannel(np.zeros((1, 0, 0))),
        lambda: KrausChannel(np.zeros((1, 2, 0))), lambda: depolarizing(0, 0.5), lambda: depolarizing(0, 1.0),
        # A negative dimension gets the same message, not numpy's own.
        lambda: depolarizing(-1, 0.5), lambda: identity(-2), lambda: dephasing_pinching(-1, 0.5),
        lambda: partial_trace(-1, 2, "a"),
    ], ids=["identity", "partial_trace_a", "partial_trace_b", "unitary", "stack", "stack_dim_in",
            "depolarizing", "depolarizing_full", "depolarizing_negative", "identity_negative",
            "pinching_negative", "partial_trace_negative"])
    def test_zero_dimension_is_refused(self, build):
        with pytest.raises(ValueError, match=r"^a channel needs at least one Kraus operator and nonzero dimensions"):
            build()

    def test_validation_messages(self):
        nan_op = np.eye(2, dtype=complex)
        nan_op[1, 0] = np.nan
        with pytest.raises(ValueError, match="Kraus operator 1 has non-finite entries"):
            KrausChannel((np.eye(2), nan_op), tp_tol=10.0)
        with pytest.raises(ValueError, match="Kraus operator 1 has non-finite entries"):
            KrausChannel(np.array([np.eye(2), nan_op]), tp_tol=10.0)
        with pytest.raises(ValueError, match="all Kraus operators must share one shape"):
            KrausChannel((np.eye(2), np.eye(3)))
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            KrausChannel(())
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            KrausChannel(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="Kraus operator 0 is not a matrix"):
            KrausChannel((np.ones(2),))


def _weyl_channel(d, probs):
    """Complex sparse stack: ``sqrt(p_ab) X^a Z^b``, phase-dressed
    permutations (clock and shift), one nonzero per row."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = [np.sqrt(probs[a, b]) * np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
           for a in range(d) for b in range(d)]
    return KrausChannel(tuple(ops))


def _transfer_channels():
    probs = gen(400).dirichlet(np.ones(9)).reshape(3, 3)
    cases = [
        # An explicit depolarizing stack keeps the transfer form.
        ("depolarizing_stack", KrausChannel(depolarizing(5, 0.3).kraus)),
        ("ptrace_a", partial_trace(2, 3, "a")),
        ("ptrace_b", partial_trace(3, 2, "b")),
        ("pinching", dephasing_pinching(4)),
        ("weyl", _weyl_channel(3, probs)),
        ("compose", compose(partial_trace(2, 3, "a"), depolarizing(6, 0.3))),
        ("measure_prepare", permutation_measure_prepare(4)),
    ]
    return [pytest.param(c, id=label) for label, c in cases]


class TestTransferForm:
    """Sparse stacks act through the transfer form ``sum_k K_k (x) conj(K_k)``;
    dense stacks keep the blocked kernel."""

    @pytest.mark.parametrize("c", _transfer_channels())
    def test_actions_match_loop_on_non_hermitian_input(self, c):
        assert c._transfer is not None
        g = gen(401)
        a = _random_matrix(g, c.dim_in, c.dim_in)
        b = _random_matrix(g, c.dim_out, c.dim_out)
        fwd, ref_fwd = _act(c, a), _loop_apply(c.kraus, a)
        adj, ref_adj = _act_adjoint(c, b), _loop_adjoint(c.kraus, b)
        assert fwd.shape == (c.dim_out, c.dim_out) and adj.shape == (c.dim_in, c.dim_in)
        assert np.linalg.norm(fwd - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
        assert np.linalg.norm(adj - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)
        # tr[L*(B) A] = tr[B L(A)] for non-Hermitian A and B.
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(np.trace(adj @ a) - np.trace(b @ fwd)) <= 1e-13 * scale

    @pytest.mark.parametrize("c", _transfer_channels())
    def test_public_actions_match_loop(self, c):
        g = gen(402)
        a, b = random_hermitian(g, c.dim_in), random_hermitian(g, c.dim_out)
        ref_fwd = _loop_apply(c.kraus, a.matrix)
        ref_adj = _loop_adjoint(c.kraus, b.matrix)
        assert np.linalg.norm(apply(c, a).matrix - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
        assert np.linalg.norm(adjoint_apply(c, b).matrix - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)

    def test_dense_stacks_keep_the_kernel(self):
        g = gen(403)
        for c in (KrausChannel((random_unitary(g, 4),)), dephasing_pinching(random_unitary(g, 4)),
                  random_cptp(g, 3, 3, n_kraus=4)):
            assert c._transfer is None
            a = _random_matrix(g, c.dim_in, c.dim_in)
            np.testing.assert_array_equal(_act(c, a), apply_raw(c.kraus, a))
            np.testing.assert_array_equal(_act_adjoint(c, a), _adjoint_raw(c.kraus, a))

    def test_rule_counts_pairs_of_nonzeros(self):
        # P = sum_k nnz(K_k)**2 against r m n: a depolarizing stack has P = 2 n**2.
        c = KrausChannel(depolarizing(4, 0.5).kraus)
        assert c._transfer[0].size == 2 * 4 ** 2
        # One dense 2x2 operator: P = 16 > 4.
        assert KrausChannel((np.array([[0.6, 0.8], [-0.8, 0.6]]),))._transfer is None

    def test_sparse_stack_not_trace_preserving_raises(self):
        stack = 1.1 * depolarizing(3, 0.4).kraus
        expected = f"channel is not trace preserving: ||sum K^H K - I||_F = {tp_error(stack):.3e}"
        with pytest.raises(ValueError) as err:
            KrausChannel(stack)
        assert str(err.value) == expected
        held = KrausChannel(stack, tp_tol=1.0)
        assert held._transfer is not None
        assert verify_cptp(held).tp_error == tp_error(stack)

    def test_all_zero_stack_is_not_trace_preserving(self):
        with pytest.raises(ValueError, match=r"not trace preserving: \|\|sum K\^H K - I\|\|_F = 1\.732e\+00"):
            KrausChannel(np.zeros((2, 3, 3)))


def _entry_builders():
    """Factories of the builders that write their entries or a record, not a stack."""
    cases = [(f"depolarizing_n{n}_p{p}", lambda n=n, p=p: depolarizing(n, p))
             for n in (1, 2, 5, 32) for p in (0.0, 0.3, 1.0)]
    cases += [(f"pinching_p{p}", lambda p=p: dephasing_pinching(4, p)) for p in (0.0, 0.4, 1.0)]
    cases += [
        # p/n underflows to 0: the record has no unit operators.
        ("depolarizing_subnormal_p", lambda: depolarizing(2, 5e-324)),
        ("ptrace_a", lambda: partial_trace(2, 3, "a")),
        ("ptrace_b", lambda: partial_trace(3, 2, "b")),
        ("identity", lambda: identity(3)),
    ]
    return [pytest.param(make, id=label) for label, make in cases]


class TestEntryBuilders:
    """The sparse builders write their nonzero entries, or a record; the
    channel is the one extracted from the stack those describe, bit for bit,
    and the stack itself is built only when ``kraus`` is read."""

    @pytest.mark.parametrize("make", [c for c in _entry_builders() if c.values[0]()._closed is None])
    def test_transfer_form_and_actions_match_the_stack_bit_for_bit(self, make):
        c = make()
        assert c._kraus is None
        ref = KrausChannel(np.array(c.kraus))
        assert ref._transfer is not None
        for got, want in zip(c._transfer, ref._transfer):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        g = gen(470)
        a = _random_matrix(g, c.dim_in, c.dim_in)
        b = _random_matrix(g, c.dim_out, c.dim_out)
        np.testing.assert_array_equal(_act(c, a), _act(ref, a))
        np.testing.assert_array_equal(_act_adjoint(c, b), _act_adjoint(ref, b))

    @pytest.mark.parametrize("make", [c for c in _entry_builders() if "n32" not in c.id])
    def test_stack_readers_match_a_given_stack(self, make):
        ref = KrausChannel(np.array(make().kraus))
        sigma = random_positive(gen(471), ref.dim_in)
        closed = make()._closed is not None
        # The Petz map reads the stack between two factors of sigma and L(sigma);
        # a closed-form L(sigma) may differ from the scatter's in the last bit,
        # so the stack is read between the closed-form channel's own factors.
        s_half, out_inv_half = _petz_factors(sigma, PositiveOperator(apply(make(), sigma.op)))
        np.testing.assert_array_equal(petz_map(sigma, make()).kraus,
                                      s_half @ ref.kraus.conj().transpose(0, 2, 1) @ out_inv_half)
        if not closed:
            np.testing.assert_array_equal(petz_map(sigma, make()).kraus, petz_map(sigma, ref).kraus)
        np.testing.assert_array_equal(compose(make(), identity(ref.dim_in)).kraus,
                                      compose(ref, identity(ref.dim_in)).kraus)
        assert channel_to_json(make()) == channel_to_json(ref)
        back = channel_from_json(json.loads(json.dumps(channel_to_json(make()))))
        np.testing.assert_array_equal(back.kraus, ref.kraus)
        got, want = verify_cptp(make()), verify_cptp(ref)
        if closed:
            # The Choi matrix is taken through the closed form.
            assert got.tp_error == want.tp_error
            assert abs(got.choi_min_eig - want.choi_min_eig) <= 1e-13
        else:
            assert got == want

    def test_construction_allocates_no_stack(self):
        tracemalloc.start()
        try:
            depolarizing(64, 0.3)  # its stack would be 4097 x 64 x 64 float64, 134 MB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_report_leaves_the_stack_unbuilt(self):
        n, p = 32, 0.3
        c = depolarizing(n, p)
        g = gen(472)
        build_report(MeasureSpec.relative_entropy(), c, random_positive(g, n), random_positive(g, n),
                     with_petz=True)
        assert c._kraus is None
        stack = np.zeros((n * n + 1, n, n))
        stack[0] = np.sqrt(1 - p) * np.eye(n)
        stack[1:].reshape(n * n, n * n)[np.diag_indices(n * n)] = np.sqrt(p / n)
        np.testing.assert_array_equal(c.kraus, stack)
        assert c.kraus.dtype == np.float64 and not c.kraus.flags.writeable
        assert c.kraus is c.kraus


def _closed_form_channels():
    cases = [(f"n{n}_p{p}", n, p) for n in (1, 2, 5, 32) for p in (0.0, 0.3, 1.0)]
    cases.append(("subnormal_p", 2, 5e-324))
    return [pytest.param(n, p, id=label) for label, n, p in cases]


def _psd_of_rank(g, n: int, k: int) -> HermitianOperator:
    x = g.normal(size=(n, k)) + 1j * g.normal(size=(n, k))
    return HermitianOperator(x @ x.conj().T / max(k, 1))


def _image_inputs():
    """Factories of random states at n = 2..8, 24 and 32, and of PSD
    operators of every rank at n = 5."""
    cases = [(f"random_n{n}", lambda n=n: random_positive(gen(481 + n), n).op)
             for n in (2, 3, 4, 5, 6, 7, 8, 24, 32)]
    cases += [(f"psd_rank{k}", lambda k=k: _psd_of_rank(gen(490 + k), 5, k)) for k in range(6)]
    return [pytest.param(make, id=label) for label, make in cases]


class TestDepolarizingClosedForm:
    """depolarizing(n, p) acts as ``a A + b tr(A) I`` with
    ``(a, b) = (1 - p, p/n)``, its own adjoint, and gives each image the
    eigenbasis of its input."""

    @pytest.mark.parametrize("n,p", _closed_form_channels())
    def test_actions_match_loop_on_non_hermitian_input(self, n, p):
        c = depolarizing(n, p)
        assert c._transfer is None and c._closed == (1.0 - p, p / n, None)
        g = gen(480 + n)
        a, b = _random_matrix(g, n, n), _random_matrix(g, n, n)
        fwd, ref_fwd = _act(c, a), _loop_apply(c.kraus, a)
        adj, ref_adj = _act_adjoint(c, b), _loop_adjoint(c.kraus, b)
        assert fwd.shape == adj.shape == (n, n)
        assert np.linalg.norm(fwd - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
        assert np.linalg.norm(adj - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)
        # tr[L*(B) A] = tr[B L(A)] for non-Hermitian A and B.
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(np.trace(adj @ a) - np.trace(b @ fwd)) <= 1e-13 * scale

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("make", _image_inputs())
    def test_image_eigensystem_reproduces_the_image(self, make, p):
        a = make()
        c = depolarizing(a.dim, p)
        out = apply(c, a)
        image, (w, v) = out.matrix, out.eigensystem
        assert v is a.eigensystem[1] and (np.diff(w) >= 0.0).all()
        assert np.linalg.norm((v * w) @ v.conj().T - image) <= 1e-13 * np.linalg.norm(a.matrix)
        spectral = np.linalg.norm(a.matrix, 2)
        assert np.max(np.abs(w - np.linalg.eigvalsh(image))) <= 1e-13 * spectral

    def test_report_images_take_the_input_eigensystem(self, monkeypatch):
        from _fixtures import count_eigh

        g = gen(482)
        c = depolarizing(6, 0.4)
        rho, sigma = random_positive(g, 6), random_positive(g, 6)
        calls = count_eigh(monkeypatch)
        pt, pt_out = _pairs(c, rho, sigma)
        assert calls == []
        for x, x_out in ((pt.rho, pt_out.rho), (pt.sigma, pt_out.sigma)):
            w, v = x_out.eigensystem
            assert v is x.eigensystem[1] and not w.flags.writeable
            np.testing.assert_array_equal(w, 0.6 * x.eigensystem[0] + (0.4 / 6 * np.trace(x.matrix)).real)
        # Any other channel leaves its images to their own eigensolve.
        _pairs(KrausChannel(c.kraus), rho, sigma)
        assert len(calls) == 2

    @staticmethod
    def _seeded_pair():
        g = np.random.default_rng(3)
        ops = []
        for _ in range(2):
            x = g.normal(size=(6, 6)) + 1j * g.normal(size=(6, 6))
            ops.append(HermitianOperator(x @ x.conj().T / 6 + 0.1 * np.eye(6)))
        return ops

    def test_image_eigensystem_is_independent_of_read_order(self):
        # The image's eigensystem is a function of the input's value: reading
        # the input's first or the image's first gives the same bits.
        c, m = depolarizing(6, 0.3), MeasureSpec.relative_entropy()
        results = []
        for read_inputs_first in (False, True):
            a, s = self._seeded_pair()
            if read_inputs_first:
                a.eigensystem, s.eigensystem
            out_a, out_s = apply(c, a), apply(c, s)
            results.append((out_a.eigensystem, out_s.eigensystem, evaluate(m, out_a, out_s)))
        first, second = results
        for (w0, v0), (w1, v1) in zip(first[:2], second[:2]):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(v0, v1)
        assert first[2] == second[2]

    def test_apply_passes_on_every_operator_eigensystem(self, monkeypatch):
        from _fixtures import count_eigh

        g = gen(483)
        c = depolarizing(4, 0.3)
        explicit = KrausChannel(c.kraus)
        sigma, fresh = random_positive(g, 4), random_hermitian(g, 4)
        psd = PsdOperator(HermitianOperator(np.diag([0.5, 0.5, 1e-12, -1e-12]).astype(complex)))
        calls = count_eigh(monkeypatch)
        # sigma's eigensystem was read when it was admitted; the view, its
        # operator and a PsdOperator (its unsnapped eigensystem) pass theirs on.
        for a in (sigma, sigma.op, psd):
            w, v = apply(c, a).eigensystem
            assert calls == [] and v is a.eigensystem[1] and not w.flags.writeable
            np.testing.assert_array_equal(w, 0.7 * a.eigensystem[0] + (0.3 / 4 * np.trace(a.matrix)).real)
        # A fresh operator's image reads the operator's one eigensolve,
        # whichever of the two is read first.
        out = apply(c, fresh)
        out.eigensystem
        assert len(calls) == 1 and out.eigensystem[1] is fresh.eigensystem[1]
        calls.clear()
        # An array, admitted as a fresh operator, and any channel but the
        # closed form: one eigensolve, on the image's first read.
        for channel, a in ((c, fresh.matrix), (explicit, sigma), (explicit, sigma.op)):
            out = apply(channel, a)
            assert calls == []
            out.eigensystem, out.eigensystem
            assert len(calls) == 1
            calls.clear()

    def test_adjoint_image_reads_the_operand_eigensystem(self, monkeypatch):
        from _fixtures import count_eigh

        c, a = depolarizing(4, 0.3), random_hermitian(gen(485), 4)
        w_in, v_in = a.eigensystem
        calls = count_eigh(monkeypatch)
        w, v = adjoint_apply(c, a).eigensystem
        assert calls == [] and v is v_in
        np.testing.assert_array_equal(w, 0.7 * w_in + (0.3 / 4 * np.trace(a.matrix)).real)

    def test_chained_images_derive_their_eigensystem_through_both_channels(self, monkeypatch):
        from _fixtures import count_eigh

        a = random_hermitian(gen(484), 5)
        first, second = depolarizing(5, 0.3), depolarizing(5, 0.6)
        calls = count_eigh(monkeypatch)
        out = apply(second, apply(first, a))
        w, v = out.eigensystem
        assert len(calls) == 1 and calls[0] is a.matrix  # a's own eigensolve, nothing more
        assert v is a.eigensystem[1]
        scale = np.linalg.norm(a.matrix, 2)
        assert np.max(np.abs(w - np.linalg.eigvalsh(out.matrix))) <= 1e-13 * scale

    def test_eigensystem_source_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError):
            HermitianOperator(np.eye(2, dtype=complex), _source=lambda: None)


def _unitaries():
    """Complex, real orthogonal and permutation unitaries at n = 2..5 and 32."""
    g = gen(500)
    cases = [(f"complex_n{n}", random_unitary(g, n)) for n in (2, 3, 4, 5, 32)]
    cases.append(("real_n4", np.linalg.qr(g.normal(size=(4, 4)))[0]))
    cases.append(("permutation_n5", np.roll(np.eye(5), 2, axis=0)))
    return [pytest.param(u, id=label) for label, u in cases]


class TestUnitaryAndIdentityRecord:
    """unitary(U) acts through the closed-form record ``(1, 0, U)`` and
    identity(n) through ``(1, 0, I)``: their images read the input's
    eigensystem, turned by U (U^H for the adjoint), with no eigensolve."""

    @pytest.mark.parametrize("u", _unitaries())
    def test_record_keeps_the_stack_and_the_kernel_bits(self, u):
        c, ref = unitary(u), KrausChannel((np.asarray(u, dtype=complex),))
        assert c._closed[:2] == (1.0, 0.0) and c._entries is None and c._kraus is None
        np.testing.assert_array_equal(c._closed[2], u)
        # The stack is built from the record: U itself, bit for bit.
        assert c.kraus[0].tobytes() == c._closed[2].tobytes()
        assert c._transfer is None and ref._closed is None
        np.testing.assert_array_equal(c.kraus, ref.kraus)
        assert c.kraus.dtype == ref.kraus.dtype and not c.kraus.flags.writeable
        assert channel_to_json(c) == channel_to_json(ref)
        # L(A) = U A U^H and L*(B) = U^H B U, bit for bit the kernel's on the stack.
        g = gen(501)
        a, b = _random_matrix(g, c.dim_in, c.dim_in), _random_matrix(g, c.dim_in, c.dim_in)
        np.testing.assert_array_equal(_act(c, a), apply_raw(c.kraus, a))
        np.testing.assert_array_equal(_act_adjoint(c, b), _adjoint_raw(c.kraus, b))
        scale = np.linalg.norm(a)
        assert np.linalg.norm(_act(c, a) - _loop_apply(c.kraus, a)) <= 1e-13 * scale
        assert np.linalg.norm(_act_adjoint(c, b) - _loop_adjoint(c.kraus, b)) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("u", _unitaries())
    def test_images_read_the_turned_eigensystem(self, u, monkeypatch):
        from _fixtures import count_eigh

        c = unitary(u)
        u = c._closed[2]
        a = random_hermitian(gen(502), c.dim_in)
        w_in, v_in = a.eigensystem
        calls = count_eigh(monkeypatch)
        for image, turn in ((apply(c, a), u), (adjoint_apply(c, a), u.conj().T)):
            w, v = image.eigensystem
            np.testing.assert_array_equal(w, w_in)
            np.testing.assert_array_equal(v, turn @ v_in)
            assert not w.flags.writeable and not v.flags.writeable
            scale = np.linalg.norm(a.matrix, 2)
            assert np.linalg.norm((v * w) @ v.conj().T - image.matrix) <= 1e-13 * np.linalg.norm(a.matrix)
            assert np.max(np.abs(w - np.linalg.eigvalsh(image.matrix))) <= 1e-13 * scale
        assert calls == []

    def test_identity_is_depolarizing_at_zero(self, monkeypatch):
        from _fixtures import count_eigh

        c = identity(4)
        assert c._closed == (1.0, 0.0, None) and c._transfer is None
        np.testing.assert_array_equal(c.kraus, np.eye(4)[None])
        a = random_hermitian(gen(503), 4)
        w_in, v_in = a.eigensystem
        calls = count_eigh(monkeypatch)
        for image in (apply(c, a), adjoint_apply(c, a)):
            np.testing.assert_array_equal(image.matrix, a.matrix)
            w, v = image.eigensystem
            assert v is v_in
            np.testing.assert_array_equal(w, w_in)
        assert calls == []

    def test_petz_map_takes_no_image_eigensolve(self, monkeypatch):
        from _fixtures import count_eigh

        g = gen(504)
        u, sigma = random_unitary(g, 4), random_positive(g, 4)
        calls = count_eigh(monkeypatch)
        recovery = petz_map(sigma, unitary(u))
        assert calls == []
        # R is L* up to roundoff: sigma^{1/2} U^H (U sigma U^H)^{-1/2} = U^H.
        assert np.linalg.norm(recovery.kraus[0] - u.conj().T) <= 1e-13
        calls.clear()
        petz_map(sigma, KrausChannel((u,)))
        assert len(calls) == 1


def _records(n: int = 4):
    """Factories of the three closed-form builders at dimension n."""
    cases = [("depolarizing", lambda: depolarizing(n, 0.3)),
             ("unitary", lambda: unitary(random_unitary(gen(510), n))),
             ("identity", lambda: identity(n))]
    return [pytest.param(make, id=label) for label, make in cases]


def _layouts(x):
    """x in C order, in Fortran order, and as the transpose of a C array."""
    return np.ascontiguousarray(x), np.asfortranarray(x), np.ascontiguousarray(x.T).T


class TestRecordLayout:
    """A record adds ``b tr(X) I`` in place whatever the memory layout of
    ``a W X W^H``, in both directions (compositions: see TestComposedRecord)."""

    def test_depolarizing_on_every_layout(self):
        x = np.arange(9.0).reshape(3, 3)
        x = x + x.T
        c = depolarizing(3, 0.5)
        for act, loop in ((_act, _loop_apply), (_act_adjoint, _loop_adjoint)):
            ref = loop(c.kraus, x)
            for y in _layouts(x):
                np.testing.assert_allclose(act(c, y), ref, rtol=0, atol=1e-13)


class TestComposedRecord:
    """compose of two records ``(a1, b1, U1)`` then ``(a2, b2, U2)`` is the
    record ``(a2 a1, a2 b1 + b2 (a1 + n b1), U2 U1)``, holding nothing else;
    any other pair keeps the stack of products."""

    @pytest.mark.parametrize("second", _records())
    @pytest.mark.parametrize("first", _records())
    def test_record_follows_the_formula(self, first, second):
        f, s = first(), second()
        c = compose(s, f)
        assert c._entries is None and c._kraus is None and c._transfer is None
        (a1, b1, u1), (a2, b2, u2), (a, b, u) = f._closed, s._closed, c._closed
        assert (a, b) == (a2 * a1, a2 * b1 + b2 * (a1 + 4 * b1))
        eye = np.eye(4)
        want = (eye if u2 is None else u2) @ (eye if u1 is None else u1)
        if u is None:
            assert u1 is None and u2 is None
        else:
            np.testing.assert_allclose(u, want, rtol=0, atol=1e-15)
        assert c.kraus.shape == (int(a > 0) + (16 if b > 0 else 0), 4, 4)

    @pytest.mark.parametrize("second", _records())
    @pytest.mark.parametrize("first", _records())
    def test_actions_match_sequential_application(self, first, second):
        f, s = first(), second()
        c = compose(s, f)
        g = gen(512)
        for x in _layouts(_random_matrix(g, 4, 4)):
            fwd, adj = _act(c, x), _act_adjoint(c, x)
            ref_fwd = _loop_apply(s.kraus, _loop_apply(f.kraus, x))
            ref_adj = _loop_adjoint(f.kraus, _loop_adjoint(s.kraus, x))
            assert np.linalg.norm(fwd - ref_fwd) <= 1e-13 * np.linalg.norm(ref_fwd)
            assert np.linalg.norm(adj - ref_adj) <= 1e-13 * np.linalg.norm(ref_adj)

    @pytest.mark.parametrize("second", _records())
    @pytest.mark.parametrize("first", _records())
    def test_choi_matches_the_product_stack(self, first, second):
        f, s = first(), second()
        products = KrausChannel((s.kraus[:, None] @ f.kraus[None]).reshape(-1, 4, 4))
        assert np.max(np.abs(choi_matrix(compose(s, f)) - choi_matrix(products))) <= 1e-13

    def test_other_pairs_keep_the_product_stack(self):
        for s, f in ((partial_trace(2, 3, "a"), depolarizing(6, 0.3)),
                     (depolarizing(4, 0.3), KrausChannel(unitary(random_unitary(gen(513), 4)).kraus)),
                     (dephasing_pinching(4, 0.4), unitary(random_unitary(gen(514), 4)))):
            c = compose(s, f)
            want = (s.kraus[:, None] @ f.kraus[None]).reshape(-1, s.dim_out, f.dim_in)
            assert c._closed is None and c.kraus.dtype == want.dtype
            assert c.kraus.tobytes() == want.tobytes()

    def test_composition_allocates_no_products(self):
        tracemalloc.start()
        try:
            c = compose(depolarizing(12, 0.3), depolarizing(12, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the 145 x 145 products would be 21025 x 12 x 12 float64, 24 MB
        assert c._closed[2] is None and c.kraus.shape == (12 * 12 + 1, 12, 12)

    def test_composed_images_read_the_turned_eigensystem(self, monkeypatch):
        from _fixtures import count_eigh

        g = gen(515)
        u, a = random_unitary(g, 4), random_hermitian(g, 4)
        c = compose(depolarizing(4, 0.3), unitary(u))
        w_in, v_in = a.eigensystem
        calls = count_eigh(monkeypatch)
        out = apply(c, a)
        w, v = out.eigensystem
        assert calls == []
        np.testing.assert_array_equal(v, c._closed[2] @ v_in)
        assert np.linalg.norm((v * w) @ v.conj().T - out.matrix) <= 1e-13 * np.linalg.norm(a.matrix)


class TestRecordStack:
    """A record's stack is built on first read: ``sqrt(a) U`` (I for None),
    then ``sqrt(b) |i><j|`` row-major."""

    @pytest.mark.parametrize("u", [
        np.array([[-0.0, 1.0], [1.0, -0.0]]),
        # 1.0 * complex(-0.0, -1.0) would have real part +0.0.
        np.array([[complex(-0.0, -1.0), 0.0], [-0.0, complex(0.6, -0.8)]]),
        np.array([[-0.0, -1.0], [1.0, -0.0]], dtype=complex),
    ], ids=["real", "complex", "complex_typed_real"])
    def test_unitary_stack_is_u_bit_for_bit(self, u):
        c = unitary(u)
        want = u.real if not u.imag.any() else u
        assert np.signbit(want.real).any()
        assert c.kraus.shape == (1, 2, 2) and c.kraus.dtype == want.dtype
        assert c.kraus.tobytes() == want.tobytes()

    def test_underflowing_unit_weight_drops_the_units(self):
        # p/n underflows to 0: the n^2 unit operators would all be zero.
        c = depolarizing(2, 5e-324)
        assert c._closed[1] == 0.0
        np.testing.assert_array_equal(c.kraus, np.eye(2)[None])


def _reference_cptp(c):
    """verify_cptp as the blocked kernel computes it, one unit at a time."""
    n, m = c.dim_in, c.dim_out
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            choi[i * m:(i + 1) * m, j * m:(j + 1) * m] = apply_raw(c.kraus, unit)
    return tp_error(c.kraus), float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])


class TestChoiThroughChannel:
    @pytest.mark.parametrize(
        "c",
        [identity(3), unitary(random_unitary(gen(410), 3)), depolarizing(4, 0.3),
         depolarizing(3, 1.0), dephasing_pinching(3, 0.4), dephasing_pinching(random_unitary(gen(411), 3)),
         partial_trace(2, 3, "a"), partial_trace(2, 3, "b"), permutation_measure_prepare(3),
         compose(partial_trace(2, 2, "b"), depolarizing(4, 0.5)), random_cptp(gen(412), 3, 2)],
        ids=["identity", "unitary", "depolarizing", "depolarizing_full", "pinching",
             "pinching_basis", "ptrace_a", "ptrace_b", "measure_prepare", "compose", "random"],
    )
    def test_verify_cptp_matches_kernel_reference(self, c):
        tp_ref, eig_ref = _reference_cptp(c)
        rep = verify_cptp(c)
        assert rep.tp_error == tp_ref
        assert abs(rep.choi_min_eig - eig_ref) <= 1e-12
