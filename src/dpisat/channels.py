"""CPTP maps in Kraus form, their Hilbert-Schmidt adjoints, and builders.

A channel acts as ``L(A) = sum_i K_i A K_i^H`` and its adjoint as
``L*(A) = sum_i K_i^H A K_i``, so ``tr[L*(A) B] = tr[A L(B)]`` holds by
construction. The Kraus representation is primary precisely because the
adjoint is syntactically trivial. Channels may change dimension
(``dim_in -> dim_out``); Kraus operators are then rectangular.

The operators form one ``(r, m, n)`` stack. A channel holds one description
of it: the stack, its nonzero entries (written by the sparse builders), or a
closed-form record; the last two build the stack when ``.kraus`` is read.
A channel acts in one of three ways:

* :func:`depolarizing`, :func:`unitary`, :func:`identity` and their
  compositions hold one record ``(a, b, U)`` and act as ``L(A) = a U A U^H +
  b tr(A) I`` and ``L*(B) = a U^H B U + b tr(B) I``: ``(1 - p, p/n, I)``,
  ``(1, 0, U)``, ``(1, 0, I)``. The image's eigensystem is ``(a w + b tr A,
  U V)`` (``U^H V`` for L*) from A's ``(w, V)``, read from A's when the
  image's is first read, so it never depends on which was read first;
* any other sparse stack, with ``P = sum_k nnz(K_k)**2 <= r m n`` (partial
  traces, computational-basis pinching, measure-prepare in the
  computational basis, an explicit depolarizing stack), chosen at
  construction from its nonzero entries alone, acts through its transfer
  form ``T = sum_k K_k (x) conj(K_k)`` (Watrous, *The Theory of Quantum
  Information*, 2018, section 2.2), kept as P coordinate entries:
  ``vec L(A) = T vec(A)`` and ``vec L*(B) = T^H vec(B)`` are each one scatter
  over those entries, O(P) work;
* any other stack acts through one blocked kernel (:func:`_sandwich`) that
  does two large complex GEMMs per block of operators instead of two small
  ones per operator, ``r m n (m + n)`` multiply-adds.

Under the rule the scatter does at most ``1/(m + n)`` of the kernel's work.
:func:`apply`, :func:`adjoint_apply` and :func:`choi_matrix` act through the
channel's own form, and so do the saturation checks and the
trace-preservation check at construction, ``||L*(I) - I||_F``;
:func:`apply_raw` on a bare stack always takes the blocked kernel. Both
:func:`apply` and :func:`adjoint_apply` take one image path, which admits
every operand through the :class:`HermitianOperator` check.

Complete positivity is automatic from Kraus form; :func:`verify_cptp`
nevertheless recomputes the Choi matrix from the channel action, and trace
preservation from the Gram sum ``sum K^H K`` of the stack, as an independent
validator for hand-entered operator lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HermitianOperator,
    SchemaError,
    _builder_dim,
    _eigh,
    _fields,
    _number,
    _operator,
    _positive_int,
    _schema_at,
    _tolerance,
    as_matrix,
    hermitize,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "KrausChannel",
    "CptpReport",
    "apply",
    "adjoint_apply",
    "apply_raw",
    "choi_matrix",
    "verify_cptp",
    "compose",
    "identity",
    "unitary",
    "depolarizing",
    "dephasing_pinching",
    "partial_trace",
    "measure_prepare",
    "channel_to_json",
    "channel_from_json",
]

DEFAULT_TP_TOL = 1e-10
# Kraus operators per pair of GEMMs in :func:`_sandwich`; a block's products
# stay in cache at the dimensions this library targets (n <= 32), and the
# kernel's temporaries stay bounded for the n^2 + 1 operators of a Petz map.
_BLOCK = 32


@dataclass(frozen=True, eq=False, init=False)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    ``kraus`` is taken as a sequence of matrices or as one array of shape
    ``(r, m, n)``, and is stored as one read-only ``(r, m, n)`` stack: float64
    when every imaginary part is exactly zero, which halves its memory, and
    complex128 otherwise. A read-only float64 or complex128 stack is kept
    without a copy; anything else is copied. Trace preservation
    ``||L*(I) - I||_F = ||sum_i K_i^H K_i - I||_F <= tp_tol`` is enforced at
    construction, through the channel's own action; pass a larger ``tp_tol``
    deliberately to hold a known-bad operator list for diagnostics. A sparse
    stack acts through the transfer form of its nonzero entries; a builder's
    channel holds those entries or a closed-form record instead of a stack,
    and builds the stack when ``kraus`` is first read (see the module
    docstring).
    """

    tp_tol: float
    dim_in: int
    dim_out: int
    # One description of the ``_shape`` stack, the others None: the stack,
    # its nonzero entries ``(k, i, j, value)``, k-major and row-major, or the
    # closed form's record ``(a, b, U)``, U None for I; the stack is built
    # from either of the last two when first read. The transfer form
    # ``(row, col, w)`` of the entries is None when too dense or absent.
    _shape: tuple = field(repr=False)
    _entries: tuple | None = field(repr=False)
    _transfer: tuple | None = field(repr=False)
    _kraus: np.ndarray | None = field(repr=False)
    _closed: tuple | None = field(repr=False)

    def __init__(self, kraus, tp_tol: float = DEFAULT_TP_TOL):
        stack = _as_stack(kraus)
        if (
            stack.flags.writeable
            and isinstance(kraus, np.ndarray)
            and np.may_share_memory(stack, kraus)
        ):
            stack = stack.copy()
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"Kraus operator {int(np.argmin(finite))} has non-finite entries")
        stack.setflags(write=False)
        nonzero = stack != 0
        entries = None
        # P >= nnz**2 / r, so a dense stack is turned away before any extraction.
        if np.count_nonzero(nonzero) ** 2 <= stack.shape[0] * stack.size:
            k, i, j = np.nonzero(nonzero)
            entries = (k, i, j, stack[k, i, j])
        self.__post_init__(stack.shape, entries, stack, tp_tol)

    def __post_init__(self, shape: tuple, entries, stack, tp_tol: float, closed=None) -> None:
        # Every construction ends here, from a stack, its entries or a record.
        if shape[0] < 1 or min(shape[1:]) < 1:
            raise ValueError(f"a channel needs at least one Kraus operator and nonzero "
                             f"dimensions, not a stack of shape {shape}")
        _tolerance("tp_tol", tp_tol)
        transfer = None if entries is None else _transfer_form(shape, *entries)
        self.__dict__.update(
            tp_tol=tp_tol, dim_in=shape[2], dim_out=shape[1], _shape=shape, _transfer=transfer,
            _entries=None if stack is not None else entries, _kraus=stack, _closed=closed,
        )
        tp = float(np.linalg.norm(_act(self, np.eye(self.dim_out), True) - np.eye(self.dim_in)))
        if tp > tp_tol:
            raise ValueError(f"channel is not trace preserving: ||sum K^H K - I||_F = {tp:.3e}")

    @property
    def kraus(self) -> np.ndarray:
        """The read-only ``(r, m, n)`` stack of Kraus operators."""
        if self._kraus is None:
            if self._closed is None:
                k, i, j, vals = self._entries
                stack = np.zeros(self._shape, dtype=vals.dtype)
                stack[k, i, j] = vals
            else:  # sqrt(a) U (I for None) when a > 0, then sqrt(b) |i><j|, row-major
                (a, b, u), n = self._closed, self.dim_in
                stack = np.zeros(self._shape, dtype=np.float64 if u is None else u.dtype)
                stack[:int(a > 0.0)] = np.eye(n) if u is None else u
                stack[:int(0.0 < a < 1.0)] *= np.sqrt(a)  # a = 1 keeps U's bits, -0.0 too
                stack[int(a > 0.0):].reshape(-1, n * n).flat[::n * n + 1] = np.sqrt(b)
            stack.setflags(write=False)
            self.__dict__["_kraus"] = stack
        return self._kraus


def _from_entries(shape: tuple, k, i, j, vals) -> KrausChannel:
    """A channel from the entries ``K_k[i, j] = vals`` of its stack, k-major
    and row-major; zero values are dropped, as the stack would drop them."""
    keep = vals != 0
    ch = object.__new__(KrausChannel)
    ch.__post_init__(shape, (k[keep], i[keep], j[keep], vals[keep]), None, DEFAULT_TP_TOL)
    return ch


def _closed_channel(n: int, a: float, b: float, u: np.ndarray | None) -> KrausChannel:
    """The channel ``A -> a U A U^H + b tr(A) I`` (U None for I) holding its
    record alone; n < 1 reaches the constructor's dimension check."""
    ch = object.__new__(KrausChannel)
    ch.__post_init__((int(a > 0.0) + (n * n if b > 0.0 else 0), n, n), None, None,
                     DEFAULT_TP_TOL, (a, b, u))
    return ch


def _from_stack(stack: np.ndarray, tp_tol: float = DEFAULT_TP_TOL) -> KrausChannel:
    """A channel over a freshly built stack, which it keeps without a copy."""
    stack.setflags(write=False)
    return KrausChannel(stack, tp_tol=tp_tol)


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics: trace-preservation error and smallest Choi eigenvalue."""

    tp_error: float
    choi_min_eig: float


def _matrices(mats, what: str, square: bool = False) -> np.ndarray:
    """``mats`` as one array of matrices of one shape, each square when
    ``square``; the first that breaks the rule is named as ``what`` and its
    index. No matrices give an empty 1-D array."""
    arrs = [np.asarray(as_matrix(x)) for x in mats]
    for i, a in enumerate(arrs):
        if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
            raise ValueError(f"{what} {i} is not a {'square ' * square}matrix: shape {a.shape}")
        if a.shape != arrs[0].shape:
            raise ValueError(f"all {what}s must share one shape: {what} {i} has shape {a.shape}, "
                             f"{what} 0 has shape {arrs[0].shape}")
    return np.array(arrs)


def _as_stack(kraus) -> np.ndarray:
    """Kraus operators as one C-contiguous ``(r, m, n)`` array, float64 when
    every imaginary part is exactly zero and complex128 otherwise."""
    if isinstance(kraus, np.ndarray) and kraus.ndim == 3:
        stack = kraus
    else:
        stack = _matrices(kraus, "Kraus operator")
        if stack.ndim != 3:
            raise ValueError("a channel needs at least one Kraus operator")
    if np.iscomplexobj(stack) and stack.imag.any():
        return np.ascontiguousarray(stack, dtype=np.complex128)
    return np.ascontiguousarray(stack.real, dtype=np.float64)


def _transfer_form(shape: tuple, k, i, j, vals):
    """The transfer form of a stack ``K`` of shape ``(r, m, n)`` with nonzero
    entries ``K_k[i, j] = vals`` (k-major, row-major), as coordinate entries
    ``(row, col, w)``: ``w = K_k[i, j] conj(K_k[i', j'])`` at
    ``row = i m + i'`` and ``col = j n + j'``, over the pairs of entries of
    each operator. None when there are more than ``r m n`` of them.
    """
    r, m, n = shape
    counts = np.bincount(k, minlength=r)
    if counts @ counts > r * m * n:
        return None
    # Entry e pairs with each of the c[e] entries of its operator, which start
    # at first[k[e]]; the pairs of e are the block of positions from block[e].
    c = counts[k]
    first = np.cumsum(counts) - counts
    block = np.cumsum(c) - c
    left = np.repeat(np.arange(k.size), c)
    right = (first[k] - block)[left] + np.arange(left.size)
    row = i[left] * m + i[right]
    col = j[left] * n + j[right]
    return row, col, vals[left] * vals[right].conj()


def _scatter(to: np.ndarray, frm: np.ndarray, w: np.ndarray, x, size: int) -> np.ndarray:
    """``out[t] = sum of w[e] x.flat[frm[e]] over the entries e with to[e] = t``,
    complex, with the real and imaginary parts summed separately."""
    prod = w * np.ravel(x)[frm]
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(to, prod.real, size)
    out.imag = np.bincount(to, prod.imag, size)
    return out


def _frame(ch: KrausChannel, adjoint: bool):
    """W of the closed form ``a W A W^H + b tr(A) I``: U, U^H for L*, None for I."""
    u = ch._closed[2]
    return u.conj().T if adjoint and u is not None else u


def _act(ch: KrausChannel, x, adjoint: bool = False) -> np.ndarray:
    """``L(X)``, or ``L*(X)`` with ``adjoint``, for any square X, Hermitian or
    not, with no validation: the closed form ``a W X W^H + b tr(X) I`` (W of
    :func:`_frame`, ``W X W^H`` by :func:`_sandwich`), a scatter over the
    transfer form, else the blocked kernel."""
    if ch._closed is not None:
        a, b, _ = ch._closed
        w = _frame(ch, adjoint)
        out = a * (np.asarray(x, dtype=np.complex128) if w is None else _sandwich(w[None], x))
        out.flat[::out.shape[0] + 1] += b * np.trace(x)  # in place whatever out's layout
        return out
    if ch._transfer is None:
        return _adjoint_raw(ch.kraus, x) if adjoint else _sandwich(ch.kraus, x)
    row, col, w = ch._transfer
    to, frm, w, dim = (col, row, w.conj(), ch.dim_in) if adjoint else (row, col, w, ch.dim_out)
    return _scatter(to, frm, w, x, dim * dim).reshape(dim, dim)


def _act_adjoint(ch: KrausChannel, b) -> np.ndarray:
    """``L*(B)``: :func:`_act` in the adjoint direction."""
    return _act(ch, b, True)


def tp_error(kraus) -> float:
    """Frobenius distance of ``sum K^H K`` from the identity."""
    stack = _as_stack(kraus)
    flat = stack.reshape(-1, stack.shape[2])  # [K_1; ...; K_r]
    return float(np.linalg.norm(flat.conj().T @ flat - np.eye(flat.shape[1])))


def _sandwich(stack: np.ndarray, a) -> np.ndarray:
    """``sum_k S_k A S_k^H`` for a stack ``S`` of shape ``(r, p, q)`` and any
    square ``A``, Hermitian or not.

    Each block of ``_BLOCK`` operators takes two GEMMs: the products
    ``[S_1 A; ...; S_b A] = S_blk.reshape(b p, q) @ A``, then
    ``[S_1 ... S_b] @ [(S_1 A)^H; ...; (S_b A)^H]``, which sums
    ``S_k A^H S_k^H`` over the block, the conjugate transpose of the wanted
    sum.
    """
    r, p, q = stack.shape
    a = np.ascontiguousarray(a, dtype=np.complex128)
    acc = np.zeros((p, p), dtype=np.complex128)
    for start in range(0, r, _BLOCK):
        blk = stack[start:start + _BLOCK]
        b = blk.shape[0]
        prod = (blk.reshape(b * p, q) @ a).reshape(b, p, q)
        prod_h = np.ascontiguousarray(prod.transpose(0, 2, 1)).reshape(b * q, p)
        np.conjugate(prod_h, out=prod_h)
        acc += blk.transpose(1, 0, 2).reshape(p, b * q) @ prod_h
    return acc.conj().T


def _adjoint_raw(stack: np.ndarray, a) -> np.ndarray:
    """``sum_k K_k^H A K_k`` with no validation (any square A): the
    sandwich over the transposed stack ``T_k = K_k^T`` of ``conj(A)``,
    conjugated, since ``conj(T_k conj(A) T_k^H) = K_k^H A K_k``."""
    return np.conj(_sandwich(stack.transpose(0, 2, 1), np.conj(a)))


def apply_raw(kraus, matrix: np.ndarray) -> np.ndarray:
    """Kraus sandwich ``sum K A K^H`` with no validation (any square A)."""
    return _sandwich(_as_stack(kraus), matrix)


def _image(ch: KrausChannel, A, adjoint: bool) -> HermitianOperator:
    """``L(A)``, or ``L*(A)`` with ``adjoint``, for A admitted by
    :func:`_operator`. A closed-form image reads its eigensystem on first use
    as ``(a w + b tr A, W V)`` from A's ``(w, V)`` (W of :func:`_frame`),
    ascending since ``a >= 0``; any other image eigensolves on first use."""
    dim, what = (ch.dim_out, "adjoint") if adjoint else (ch.dim_in, "channel")
    op = _operator(A)
    if op.dim != dim:
        raise ValueError(f"dimension mismatch: {what} expects {dim}, got {op.matrix.shape}")
    out = hermitize(_act(ch, op.matrix, adjoint))
    if ch._closed is not None:
        def source():
            (a, b, _), frame, (w, v) = ch._closed, _frame(ch, adjoint), op.eigensystem
            return a * w + (b * np.trace(op.matrix)).real, v if frame is None else frame @ v
        object.__setattr__(out, "_source", source)
    return out


def apply(ch: KrausChannel, A) -> HermitianOperator:
    """``L(A)`` for a Hermitian operator A or an array that passes its check."""
    return _image(ch, A, False)


def adjoint_apply(ch: KrausChannel, A) -> HermitianOperator:
    """``L*(A) = sum K^H A K``, admitted and imaged as by :func:`apply`."""
    return _image(ch, A, True)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) L(|i><j|)`` built from the action."""
    n, m = ch.dim_in, ch.dim_out
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[i, j] = 1.0
            choi[i * m:(i + 1) * m, j * m:(j + 1) * m] = _act(ch, unit)
    return choi


def verify_cptp(ch: KrausChannel) -> CptpReport:
    """Recompute trace preservation and complete positivity diagnostics."""
    choi = choi_matrix(ch)
    w = _eigh((choi + choi.conj().T) / 2.0)[0]
    return CptpReport(tp_error=tp_error(ch.kraus), choi_min_eig=float(w[0]))


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """The channel ``A -> second(first(A))``: the record ``(a2 a1, a2 b1 +
    b2 (a1 + n b1), U2 U1)`` of two records, else product Kraus operators."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first outputs dim {first.dim_out}, "
            f"second expects dim {second.dim_in}"
        )
    if first._closed is not None and second._closed is not None:
        (a1, b1, u1), (a2, b2, u2), n = first._closed, second._closed, first.dim_in
        u = u1 if u2 is None else u2 if u1 is None else u2 @ u1
        return _closed_channel(n, a2 * a1, a2 * b1 + b2 * (a1 + n * b1), u)
    stack = second.kraus[:, None] @ first.kraus[None]
    return _from_stack(
        stack.reshape(-1, second.dim_out, first.dim_in), tp_tol=max(second.tp_tol, first.tp_tol)
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def identity(n: int) -> KrausChannel:
    """The identity channel, :func:`depolarizing` at ``p = 0``: the record ``(1, 0, I)``."""
    return depolarizing(n, 0.0)


def unitary(u: np.ndarray) -> KrausChannel:
    """Conjugation by a unitary, ``A -> U A U^H``, held as the record
    ``(1, 0, U)``: images read ``(w, U V)`` from their input's."""
    arr = _matrices([u], "unitary", square=True)[0].astype(np.complex128)
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN or inf, refused below
        dev = float(np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0])))
    if not dev <= 1e-10:
        raise ValueError(f"matrix is not unitary: ||U^H U - I||_F = {dev:.3e}")
    return _closed_channel(arr.shape[0], 1.0, 0.0, _as_stack(arr[None])[0])


def depolarizing(n: int, p: float) -> KrausChannel:
    """Mix with the maximally mixed state: ``A -> (1-p) A + p tr(A) I/n``.

    Held as the record ``(1 - p, p/n, I)``: Kraus operators ``sqrt(1-p) I``
    (when ``p < 1``) and ``sqrt(p/n) |i><j|`` (when ``p/n > 0``, row-major).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength p must be in [0, 1], got {p}")
    return _closed_channel(n, 1.0 - p, p / max(n, 1), None)  # n < 1 is refused at construction


def dephasing_pinching(basis, p: float = 1.0) -> KrausChannel:
    """Suppress off-diagonal blocks relative to an orthonormal basis.

    ``basis`` is either a dimension (computational basis) or a unitary whose
    columns define the basis. With strength ``p = 1`` this is the pinching
    map that deletes all off-diagonal elements; for ``p < 1`` off-diagonals
    are scaled by ``1 - p``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing strength p must be in [0, 1], got {p}")
    if isinstance(basis, (int, np.integer)):
        # sqrt(1-p) I, then sqrt(p) |i><i|; a zero block's entries are dropped.
        n, d = int(basis), np.arange(basis)
        dd, vals = np.concatenate((d, d)), np.repeat([np.sqrt(1.0 - p), np.sqrt(p)], d.size)
        r = int(p < 1.0) + (n if p > 0.0 else 0)
        return _from_entries((r, n, n), np.concatenate((0 * d, int(p < 1.0) + d)), dd, dd, vals)
    vecs = _matrices([basis], "pinching basis", square=True)[0].astype(np.complex128)
    dev = float(np.linalg.norm(vecs.conj().T @ vecs - np.eye(vecs.shape[0])))
    if dev > 1e-10:
        raise ValueError(f"pinching basis is not orthonormal (deviation {dev:.3e})")
    n = vecs.shape[0]
    stack = np.zeros((int(p < 1.0) + (n if p > 0.0 else 0), n, n), dtype=vecs.dtype)
    if p < 1.0:
        stack[0] = np.sqrt(1.0 - p) * np.eye(n)
    if p > 0.0:
        cols = vecs.T
        stack[-n:] = np.sqrt(p) * (cols[:, :, None] * cols.conj()[:, None, :])
    return _from_stack(stack)


def partial_trace(n_a: int, n_b: int, keep: str) -> KrausChannel:
    """Trace out one tensor factor of ``H_A (x) H_B`` (index ``a*n_b + b``)."""
    keep = str(keep).lower()
    if keep not in ("a", "b"):
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    e = np.arange(n_a * n_b)
    if keep == "a":
        # Operator b is I_a (x) <b|: entry (a, a*n_b + b).
        b, a = np.divmod(e, n_a)
        return _from_entries((n_b, n_a, n_a * n_b), b, a, a * n_b + b, np.ones(e.size))
    # Operator a is <a| (x) I_b: entry (b, a*n_b + b).
    a, b = np.divmod(e, n_b)
    return _from_entries((n_a, n_b, n_a * n_b), a, b, a * n_b + b, np.ones(e.size))


def _hermitian_stack(mats, what: str) -> np.ndarray:
    """``mats`` as one complex stack, each matrix unchanged once it passes the
    :class:`HermitianOperator` check; the first that fails is named."""
    stack = _matrices(mats, what, square=True).astype(np.complex128)
    for i, a in enumerate(stack):
        try:
            HermitianOperator(a)
        except ValueError as exc:
            raise type(exc)(f"{what} {i}: {exc}") from exc
    return stack


def _psd_eigensystems(mats: list, what: str):
    """PSD matrices' eigensystems by one stacked eigensolve; names the most negative."""
    w, v = _eigh(np.asarray(mats))
    i = int(np.argmin(w[:, 0]))
    if w[i, 0] < -1e-10:
        raise ValueError(f"{what} {i} has negative eigenvalue {w[i, 0]:.3e}")
    return w, v


def measure_prepare(povm, states) -> KrausChannel:
    """Measure with a POVM and prepare a fixed state per outcome.

    ``L(A) = sum_i tr(E_i A) tau_i`` where the POVM elements ``E_i`` sum to
    the identity and each prepared state ``tau_i`` has unit trace. The
    channel is entanglement breaking; its Kraus operators are the rank-one
    bridges ``sqrt(e t) |v><u|`` over the eigenpairs of ``E_i`` and
    ``tau_i`` with ``e, t > 1e-14``, ordered by ``i``, then ``u``, then ``v``.
    """
    if len(povm) == 0:
        raise ValueError("need at least one POVM element")
    if len(povm) != len(states):
        raise ValueError("need one prepared state per POVM element")
    effects, taus = _hermitian_stack(povm, "POVM element"), _hermitian_stack(states, "prepared state")
    n = effects[0].shape[0]
    total = sum(effects)
    if float(np.linalg.norm(total - np.eye(n))) > 1e-10:
        raise ValueError("POVM elements do not sum to the identity")
    traces = np.real(np.trace(taus, axis1=1, axis2=2))
    i = int(np.argmax(np.abs(traces - 1.0)))
    if abs(traces[i] - 1.0) > 1e-10:
        raise ValueError(f"prepared state {i} has trace {float(traces[i])!r}, expected 1")
    we, ue = _psd_eigensystems(effects, "POVM element")
    wt, vt = _psd_eigensystems(taus, "prepared state")
    i, a, b = np.nonzero((we > 1e-14)[:, :, None] & (wt > 1e-14)[:, None, :])
    bridges = vt[i, :, b][:, :, None] * ue[i, :, a].conj()[:, None, :]
    return _from_stack(np.sqrt(we[i, a] * wt[i, b])[:, None, None] * bridges)


# ---------------------------------------------------------------------------
# JSON encoding
#
# Explicit form:   {"dim_in": n, "dim_out": m, "kraus": [<matrix>, ...]}
# Builder form:    {"builder": "depolarizing", "dim": 2, "p": 0.5}
# ---------------------------------------------------------------------------


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(obj, path: str = "channel") -> KrausChannel:
    """Decode a channel from explicit Kraus form or builder shorthand."""
    with _schema_at(path):
        if isinstance(obj, dict) and "builder" in obj:
            return _builder_from_json(obj, path)
        _fields(obj, path, ("kraus",), ("dim_in", "dim_out"))
        kraus_json = obj["kraus"]
        if not isinstance(kraus_json, list) or not kraus_json:
            raise SchemaError(f"{path}.kraus", "expected a non-empty list of matrices")
        kraus = [
            matrix_from_json(k, f"{path}.kraus[{i}]") for i, k in enumerate(kraus_json)
        ]
        ch = KrausChannel(tuple(kraus))
        for key, actual in (("dim_in", ch.dim_in), ("dim_out", ch.dim_out)):
            if key in obj and _positive_int(obj[key], f"{path}.{key}") != actual:
                raise SchemaError(f"{path}.{key}", f"declared {obj[key]}, actual {actual}")
        return ch


def _builder_from_json(obj: dict, path: str) -> KrausChannel:
    name = obj["builder"]

    def fields(*required, optional=()) -> dict:
        return _fields(obj, path, required, ("builder",) + optional)

    def dim(key: str = "dim", factor: int = 1) -> int:
        return _builder_dim(obj[key], f"{path}.{key}", factor)

    if name == "identity":
        fields("dim")
        return identity(dim())
    if name == "unitary":
        fields("matrix")
        return unitary(matrix_from_json(obj["matrix"], f"{path}.matrix"))
    if name == "depolarizing":
        fields("dim", "p")
        return depolarizing(dim(), _number(obj["p"], f"{path}.p"))
    if name == "dephasing_pinching":
        if "basis" in obj and "dim" in obj:
            raise SchemaError(f"{path}.basis", "expected 'dim' or 'basis', not both")
        if "basis" in obj:
            fields("basis", optional=("p",))
            basis = matrix_from_json(obj["basis"], f"{path}.basis")
        else:
            fields("dim", optional=("p",))
            basis = dim()
        return dephasing_pinching(basis, _number(obj.get("p", 1.0), f"{path}.p"))
    if name == "partial_trace":
        fields("dim_a", "dim_b", "keep")
        dim_a = dim("dim_a")
        return partial_trace(dim_a, dim("dim_b", dim_a), obj["keep"])
    if name == "measure_prepare":
        fields("povm", "states")
        povm_json, states_json = obj["povm"], obj["states"]
        if not isinstance(povm_json, list) or not isinstance(states_json, list):
            raise SchemaError(path, "'povm' and 'states' must be lists of matrices")
        povm = [matrix_from_json(e, f"{path}.povm[{i}]") for i, e in enumerate(povm_json)]
        states = [
            matrix_from_json(t, f"{path}.states[{i}]") for i, t in enumerate(states_json)
        ]
        return measure_prepare(povm, states)
    raise SchemaError(f"{path}.builder", f"unknown builder {name!r}")
