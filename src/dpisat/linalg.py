"""Validated complex Hermitian matrix types, clustered spectral
decompositions, and matrix functions of Hermitian operators.

Matrices are dense ``complex128`` arrays stored as ``(A + A^H) / 2``.
Inputs are validated where they enter: JSON decoding and the public
constructors, through which every public function admits an array. Inside
the library, private cores pass plain arrays made exactly Hermitian by
:func:`_symmetrized` and check nothing. Every operator is made by one
constructor, whose one fused pass ``max|A - A^H|`` rejects non-finite
entries and skew beyond its tolerance; :func:`hermitize` only scales that
tolerance to the matrix, where a computed matrix becomes an operator: on a
channel image and on the value a public function returns. Adjacent
eigenvalues ``a <= b`` with ``b - a <= tol * max(1, |a|, |b|)`` are merged
into a single cluster before any divided-difference formula is evaluated,
which prevents catastrophic cancellation for near-degenerate spectra. The
rule is relative above 1 but absolute below it: eigenvalues below 1 that
differ by at most ``tol`` merge whatever their ratio (ROADMAP open item 2).

Each operator takes its eigensystem on first use, from an eigensolve or,
for a closed-form channel image, from its input's (see ``channels.apply``),
keeps it read-only and shares it with every spectral function of it, so it
is eigensolved at most once and its eigensystem never depends on what was
read before. :func:`_spectrum` reads it (a :class:`PsdOperator` its snapped
eigenvalues), and every power, logarithm and support projector goes through
:func:`_spectral_map`: f on the nonzero eigenvalues, exact zeros kept at 0.
A :class:`PositiveOperator`'s smallest eigenvalue must exceed the
eigensolver's floor ``n eps max|w|``, not merely 0. Containers are otherwise
immutable and every operation is a pure function, so values can be shared
freely between threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "DEFAULT_HERM_TOL",
    "DEFAULT_ZERO_TOL",
    "DEFAULT_CLUSTER_TOL",
    "SchemaError",
    "HermiticityError",
    "PositivityError",
    "MatrixFunctionDomainError",
    "EigensolverError",
    "HermitianOperator",
    "PositiveOperator",
    "PsdOperator",
    "SpectralDecomposition",
    "as_matrix",
    "frobenius",
    "hermitize",
    "clustered_eigensystem",
    "spectral_decompose",
    "matrix_function",
    "log_cross",
    "zeroth_power",
    "hs_inner",
    "matrix_to_json",
    "matrix_from_json",
]

DEFAULT_HERM_TOL = 1e-10
DEFAULT_ZERO_TOL = 1e-10
DEFAULT_CLUSTER_TOL = 1e-8


class HermiticityError(ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class PositivityError(ValueError):
    """Operator fails a required positivity constraint."""


class MatrixFunctionDomainError(ValueError):
    """A scalar function is undefined at one of the operator's eigenvalues, or
    at an eigenvalue ratio ``p_a/mu_k`` of an f-divergence."""

    def __init__(self, eigenvalue: float, message: str):
        self.eigenvalue = float(eigenvalue)
        super().__init__(message)


class EigensolverError(RuntimeError):
    """The dense eigensolver failed; carries the offending input matrix."""

    def __init__(self, matrix: np.ndarray, message: str):
        self.matrix = np.array(matrix)
        super().__init__(f"eigensolver failed on {matrix.shape} input: {message}")


class SchemaError(ValueError):
    """A JSON document does not match the expected schema.

    ``path`` points at the offending field, e.g. ``scenario[2].rho.entries``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


def as_matrix(x) -> np.ndarray:
    """Return the underlying complex array of any operator container."""
    if isinstance(x, np.ndarray):
        return x
    m = getattr(x, "matrix", None)
    if m is not None:
        return m if isinstance(m, np.ndarray) else as_matrix(m)
    return np.asarray(x, dtype=np.complex128)


def frobenius(x) -> float:
    """Frobenius norm of an operator or array."""
    return float(np.linalg.norm(as_matrix(x)))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix, stored as its symmetrized part ``(A + A^H)/2``.

    Construction fails with :class:`HermiticityError` if the max-entry
    deviation ``||A - A^H||_max`` exceeds ``herm_tol``, and with ValueError
    if an entry is not finite: a NaN or infinite entry makes its own
    deviation NaN or infinite (``inf - inf`` on the diagonal, ``inf`` against
    a finite mirror), so the one pass finds both.
    """

    matrix: np.ndarray
    herm_tol: float = DEFAULT_HERM_TOL
    # Where the eigensystem comes from on first read: None for an eigensolve,
    # else a function that returns it in closed form (a closed-form channel
    # image reads its operand's, see channels._image).
    _source: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(as_matrix(self.matrix), dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"HermitianOperator must be a square matrix, got shape {arr.shape}")
        adj = arr.conj().T
        with np.errstate(invalid="ignore"):
            dev = float(np.max(np.abs(arr - adj)))
        if not math.isfinite(dev):
            raise ValueError("HermitianOperator has non-finite entries")
        _tolerance("herm_tol", self.herm_tol)
        if dev > self.herm_tol:
            raise HermiticityError(
                f"matrix deviates from Hermiticity by {dev:.3e} > tol {self.herm_tol:.3e}"
            )
        sym = _symmetrized(arr, adj)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self):
        """Read-only ``(w, v)``: ascending eigenvalues, orthonormal eigenvectors."""
        w, v = self._source() if self._source is not None else _eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))


def _symmetrized(arr: np.ndarray, adj: np.ndarray | None = None) -> np.ndarray:
    """``(arr + arr^H) / 2`` as complex128, given ``adj = arr^H`` if formed.

    Both parts are halved as reals; a complex ``* 0.5`` would take the sign
    of a zero in one part from the other. So the result is exactly Hermitian,
    signed zeros included, and symmetrizing it again returns the same bits.
    """
    sym = np.add(arr, arr.conj().T if adj is None else adj, out=np.empty(arr.shape, np.complex128))
    halves = sym.view(np.float64)
    halves *= 0.5
    return sym


def _tolerance(name: str, tol) -> None:
    """Refuse a NaN or negative tolerance: either would switch off, or
    misreport, the check it bounds. An infinite one is allowed."""
    if not tol >= 0:
        raise ValueError(f"{name} must be a non-negative number, got {tol!r}")


def hermitize(matrix, rel_tol: float = 1e-8) -> HermitianOperator:
    """Wrap a computed matrix as Hermitian, tolerating roundoff-size skew.

    The allowed deviation scales with the largest entry, so results of long
    floating-point pipelines are accepted while genuinely non-Hermitian
    values still raise, from the constructor's one check. It runs on channel
    images and on the values public functions return; private cores pass
    :func:`_symmetrized` arrays instead, on which it would find no skew and
    change no bit.
    """
    _tolerance("rel_tol", rel_tol)
    arr = np.asarray(as_matrix(matrix), dtype=np.complex128)
    scale = float(np.max(np.abs(arr))) if arr.size else 1.0
    return HermitianOperator(arr, herm_tol=rel_tol * max(1.0, scale))


def _eigh(matrix: np.ndarray):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(matrix, str(exc)) from exc


class _View:
    """The ``matrix``, ``dim`` and ``eigensystem`` of the wrapped ``op``."""

    matrix = property(lambda self: self.op.matrix)
    dim = property(lambda self: self.op.dim)
    eigensystem = property(lambda self: self.op.eigensystem)

    def _hermitian_op(self) -> HermitianOperator:
        """``op`` as a :class:`HermitianOperator`: the one a view wraps, shared
        with its eigensystem, else validated here."""
        op = _operator(self.op)
        object.__setattr__(self, "op", op.op if isinstance(op, _View) else op)
        return self.op


@dataclass(frozen=True, eq=False)
class PositiveOperator(_View):
    """A strictly positive definite Hermitian operator.

    The minimum eigenvalue is read from the operator's eigensystem at
    construction and must exceed the eigensolver's floor
    ``n eps max|w|``: a dense eigensolve fixes an eigenvalue only to about
    that much (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002), so a kernel eigenvalue at or below it is refused whatever the sign
    roundoff gave it. A rank-deficient :class:`PsdOperator` declares a
    kernel, and is refused whatever its raw kernel eigenvalues.
    """

    op: HermitianOperator
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.op, PsdOperator) and self.op.rank < self.op.dim:
            raise PositivityError(f"operator has a declared kernel (rank {self.op.rank} < dim {self.op.dim})")
        w = self._hermitian_op().eigensystem[0]
        # max|w| is w[-1] whenever w[0] > 0, and w[0] <= 0 is refused either way.
        if w[0] <= w.size * np.finfo(float).eps * w[-1]:
            raise PositivityError(
                f"operator is not strictly positive (min eigenvalue {w[0]:.3e})"
            )
        object.__setattr__(self, "min_eigenvalue", float(w[0]))


@dataclass(frozen=True, eq=False)
class PsdOperator(_View):
    """A positive semidefinite operator with an explicit zero threshold.

    Eigenvalues in ``[-zero_tol, zero_tol]`` are snapped to exactly zero;
    eigenvalues below ``-zero_tol`` are a construction error rather than
    being clamped. ``rank`` counts eigenvalues above ``zero_tol``. The
    snapped eigenvalues are this operator's own copy; the eigenvectors and
    the unsnapped ``eigensystem`` are those of ``op``.
    """

    op: HermitianOperator
    zero_tol: float = DEFAULT_ZERO_TOL
    rank: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _tolerance("zero_tol", self.zero_tol)
        w, v = self._hermitian_op().eigensystem
        if w[0] < -self.zero_tol:
            raise PositivityError(
                f"operator has eigenvalue {w[0]:.3e} below -zero_tol; not PSD"
            )
        w = np.where(np.abs(w) <= self.zero_tol, 0.0, w)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "rank", int(np.count_nonzero(w > 0.0)))


def _operator(x):
    """``x`` itself when it is an operator or a view of one; any other input,
    an array say, through the :class:`HermitianOperator` constructor."""
    return x if isinstance(x, (HermitianOperator, _View)) else HermitianOperator(x)


def _spectral(v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``V diag(vals) V^H``, the matrix with eigenvectors ``v`` and eigenvalues ``vals``."""
    return (v * vals) @ v.conj().T


def _spectrum(op):
    """``(w, v)``: the snapped eigenvalues and eigenvectors of a
    :class:`PsdOperator`, the eigensystem of any other operator."""
    if isinstance(op, PsdOperator):
        return op.eigenvalues, op.eigenvectors
    return op.eigensystem


def _spectral_map(op, f) -> np.ndarray:
    """``f(A)`` from the spectrum of an operator: ``f`` on its nonzero
    eigenvalues, 0 on its exact zeros, so that a function of a PSD operator
    lives on its support."""
    w, v = _spectrum(op)
    nonzero = w != 0.0
    vals = np.zeros_like(w)
    vals[nonzero] = f(w[nonzero])
    return _spectral(v, vals)


def _powm(op, p: float) -> np.ndarray:
    """``A**p`` on the support of an operator, zero on its kernel."""
    return _spectral_map(op, lambda w: w ** p)


def _logm(op) -> np.ndarray:
    """``log A`` on the support of an operator, zero on its kernel."""
    return _spectral_map(op, np.log)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct clustered eigenvalues with their orthogonal eigenprojectors."""

    eigenvalues: tuple
    projectors: tuple
    cluster_tol: float

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def items(self):
        return zip(self.eigenvalues, self.projectors)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, proj in self.items():
            out += lam * proj.matrix
        return out


def _too_close(lo, hi, tol: float):
    """Whether ascending values ``lo <= hi`` fall within one cluster."""
    return hi - lo <= tol * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))


def _run_mean(w: np.ndarray, start: int, stop: int) -> float:
    """Mean of ``w[start:stop]``, summed exactly as ``np.mean`` sums it."""
    return float(np.add.reduce(w[start:stop]) / (stop - start))


def _cluster_groups(w: np.ndarray, tol: float):
    """Group eigenvalues, sorted ascending, into clusters: adjacent values
    ``a <= b`` join one when ``b - a <= tol * max(1, |a|, |b|)``, a gap
    relative above 1 and absolute below it (ROADMAP open item 2).

    Clusters are contiguous runs of ``w``. Returns ``(starts, reps)``: the
    index where each cluster starts and its representative, the mean of its
    members. On sorted input a mean lies between its run's ends, so adjacent
    representatives stay as far apart as the runs they stand for.
    """
    starts = np.flatnonzero(np.concatenate(([True], ~_too_close(w[:-1], w[1:], tol))))
    stops = np.append(starts[1:], w.size)
    reps = w[starts]
    for j in np.flatnonzero(stops - starts > 1):
        reps[j] = _run_mean(w, starts[j], stops[j])
    return starts, reps


def clustered_eigensystem(A, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Eigensystem of a Hermitian operator with near-degenerate merging.

    Returns ``(reps, cluster_ids, vectors)`` where ``reps[i]`` is the cluster
    representative eigenvalue for eigenvector column ``i`` and
    ``cluster_ids[i]`` the cluster index (ascending order).

    For :class:`PsdOperator` inputs the snapped eigenvalues are used, so the
    zero eigenspace is exact; other operators reuse their eigensystem, and
    any other input is admitted as a :class:`HermitianOperator` first.
    """
    w, v = _spectrum(_operator(A))
    starts, reps = _cluster_groups(np.asarray(w, dtype=float), cluster_tol)
    sizes = np.diff(np.append(starts, w.size))
    return np.repeat(reps, sizes), np.repeat(np.arange(starts.size), sizes), v


def spectral_decompose(A, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """Clustered spectral decomposition ``A = sum_j lambda_j P_j``.

    Eigenvalues within ``cluster_tol * max(1, |a|, |b|)`` of each other are
    merged into one cluster whose projector is the sum of the member
    projectors.
    """
    reps, ids, v = clustered_eigensystem(A, cluster_tol)
    eigenvalues = []
    projectors = []
    for cid in range(int(ids.max()) + 1):
        cols = v[:, ids == cid]
        proj = cols @ cols.conj().T
        projectors.append(hermitize(proj))
        eigenvalues.append(float(reps[ids == cid][0]))
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors), cluster_tol)


def _scalar_values(func, x) -> np.ndarray:
    """``func`` at every entry of ``x``, one call per entry on a Python float,
    so that callables built on :mod:`math` work as well as numpy ones."""
    return np.array([float(func(v)) for v in x.ravel().tolist()]).reshape(x.shape)


def matrix_function(A, f, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> HermitianOperator:
    """Apply a scalar function spectrally: ``f(A) = sum_j f(lambda_j) P_j``.

    ``f`` may be a plain callable or any object with an ``f`` attribute
    (e.g. a registered function/derivative pair). Raises
    :class:`MatrixFunctionDomainError` naming the offending eigenvalue if
    ``f`` is undefined (non-finite) at some cluster.
    """
    func = getattr(f, "f", f)
    fname = getattr(f, "name", getattr(func, "__name__", "f"))
    reps, _, v = clustered_eigensystem(A, cluster_tol)
    with np.errstate(all="ignore"):
        vals = _scalar_values(func, reps)
    if not np.isfinite(vals).all():
        rep = float(reps[~np.isfinite(vals)][0])
        raise MatrixFunctionDomainError(rep, f"{fname} is undefined at eigenvalue {rep!r}")
    return hermitize(_spectral(v, vals))


def _as_psd(A) -> PsdOperator:
    return A if isinstance(A, PsdOperator) else PsdOperator(A)


def _as_positive(x, what: str,
                 error=lambda what, exc: PositivityError(f"{what}: {exc}")) -> PositiveOperator:
    """``x`` as a :class:`PositiveOperator`; an array is validated here. A
    :class:`PositivityError` is raised as ``error(what, exc)`` instead."""
    if isinstance(x, PositiveOperator):
        return x
    try:
        return PositiveOperator(x)
    except PositivityError as exc:
        raise error(what, exc) from exc


def log_cross(A) -> HermitianOperator:
    """Logarithm on the support of a PSD operator, zero on its kernel."""
    return hermitize(_logm(_as_psd(A)))


def zeroth_power(A) -> HermitianOperator:
    """Orthogonal projector onto the nonzero eigenspaces of a PSD operator."""
    return hermitize(_spectral_map(_as_psd(A), np.ones_like))


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product ``tr(A B)`` of two Hermitian operators,
    each admitted as :func:`_operator` admits it; the trace is real."""
    a, b = _operator(A).matrix, _operator(B).matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.trace(a @ b).real)


# ---------------------------------------------------------------------------
# JSON encoding
#
# Square matrices: {"dim": n, "entries": [[[re, im], ...], ...]} (row-major).
# Rectangular matrices (Kraus operators of dimension-changing channels) use
# explicit {"rows": m, "cols": n, "entries": ...}. Every decoder of the package
# declares an object's fields once, through _fields.
# ---------------------------------------------------------------------------


def _number(val, path: str, what: str = "a number", positive: bool = False) -> float:
    """A finite JSON number (not a bool) as a float, strictly positive if
    ``positive``. JSON's ``NaN`` and ``Infinity`` and an integer beyond the
    float range are schema errors."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SchemaError(path, f"expected {what}, got {val!r}")
    try:
        num = float(val)
    except OverflowError:  # an integer beyond the float range
        num = math.inf if val > 0 else -math.inf
    if not math.isfinite(num):
        raise SchemaError(path, f"expected a finite number, got {num!r}")
    if positive and num <= 0:
        raise SchemaError(path, f"expected {what}, got {val!r}")
    return num


def _positive_int(val, path: str, what: str = "a positive integer", least: int | None = 1) -> int:
    """A JSON integer (not a bool) of at least ``least``; ``least=None`` admits any."""
    if not isinstance(val, int) or isinstance(val, bool) or (least is not None and val < least):
        raise SchemaError(path, f"expected {what}, got {val!r}")
    return val


# The largest dimension a JSON builder makes, counting a product of factor
# dimensions: a larger one is refused before anything is allocated.
_MAX_BUILDER_DIM = 1024


def _builder_dim(val, path: str, factor: int = 1) -> int:
    """A positive JSON integer ``n`` with ``factor * n`` at most ``_MAX_BUILDER_DIM``."""
    n = _positive_int(val, path)
    if factor * n > _MAX_BUILDER_DIM:
        raise SchemaError(path, f"expected a dimension of at most {_MAX_BUILDER_DIM}, got {factor * n}")
    return n


def _fields(obj, path: str, required=(), optional=(), what: str = "an object") -> dict:
    """``obj`` as a JSON object of the fields ``required`` and ``optional``.

    A key of neither kind is an error at ``<path>.<key>``, named before a
    missing required field so that a misspelt one reads as itself."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected {what}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required field")
    return obj


@contextmanager
def _schema_at(path: str):
    """Report a library ``ValueError`` raised inside as a schema error at
    ``path``; a :class:`SchemaError` keeps its own, deeper path."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def matrix_to_json(m) -> dict:
    arr = np.asarray(as_matrix(m), dtype=np.complex128)
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in arr]
    if arr.shape[0] == arr.shape[1]:
        return {"dim": int(arr.shape[0]), "entries": entries}
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "entries": entries}


def matrix_from_json(obj, path: str = "matrix") -> np.ndarray:
    """Decode a matrix JSON object, validating shape and finiteness."""
    shape = ("dim",) if isinstance(obj, dict) and "dim" in obj else ("rows", "cols")
    _fields(obj, path, shape + ("entries",), what="an object with 'dim' or 'rows'/'cols'")
    if shape == ("dim",):
        rows = cols = _positive_int(obj["dim"], f"{path}.dim")
    else:
        rows, cols = (_positive_int(obj[key], f"{path}.{key}") for key in shape)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise SchemaError(f"{path}.entries", f"expected a list of {rows} rows")
    flat = _finite_pairs(entries, cols)
    if flat is None:
        _raise_at_first_bad_cell(entries, cols, path)
    pairs = flat.reshape(rows, cols, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _finite_pairs(entries: list, cols: int):
    """Every ``[re, im]`` cell as one float array, in a single conversion; None
    unless each row is a list of ``cols`` cells of two finite numbers."""
    if not all(isinstance(row, list) and len(row) == cols for row in entries):
        return None
    cells = list(chain.from_iterable(entries))
    if not all(issubclass(t, list) for t in set(map(type, cells))) or set(map(len, cells)) != {2}:
        return None
    values = list(chain.from_iterable(cells))
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values))):
        return None
    try:
        flat = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    return flat if np.isfinite(flat).all() else None


def _raise_at_first_bad_cell(entries: list, cols: int, path: str):
    """Walk the cells in row-major order and name the first malformed one."""
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}.entries[{i}]", f"expected a list of {cols} cells")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise SchemaError(
                    f"{path}.entries[{i}][{j}]", "expected a [re, im] pair of numbers"
                )
            try:
                finite = all(math.isfinite(x) for x in cell)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise SchemaError(f"{path}.entries[{i}][{j}]", "entries must be finite")
    raise SchemaError(f"{path}.entries", "entries could not be decoded")
