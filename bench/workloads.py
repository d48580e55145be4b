"""Seeded workload generators for the dpisat benchmark.

Every op is either one ``dpisat run`` on a one-scenario file or one
``dpisat sweep``. Each op carries the verdict its construction guarantees,
so the harness can check the program's output without reference numbers:

* ``saturated``       recoverable fixture; the report must say
                      ``saturated: true`` and every check must pass;
* ``not_saturated``   distinct random states under depolarizing noise with
                      p > 0; the gap must exceed ``gap_tol`` and the report
                      must say ``saturated: false``;
* ``boundary``        recoverable fixture with a rank-deficient first state;
                      every check passes and ``|gap| <= gap_tol``;
* ``tangent``         rank-deficient first state; the tangent-space rank is
                      ``n**2 - k**2``;
* ``sweep``           every row finite, ``gap >= -gap_tol``, one row per
                      in-region grid point; unitary sweeps also saturate on
                      every row.

The structure of a workload (families, dimensions, channels, checks) is
fixed; the seed draws the states, unitaries and channel strengths, so the
amount of work per pass does not depend on the seed.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("corpus", "high_kraus", "sweep")

GAP_TOL = 1e-8
RESIDUAL_TOL = 1e-8

# One spec per family and parameter branch (the 13-spec measure suite).
MEASURES = (
    {"family": "relative_entropy"},
    {"family": "fidelity"},
    {"family": "sandwiched_renyi", "alpha": 0.6},
    {"family": "sandwiched_renyi", "alpha": 1.3},
    {"family": "sandwiched_renyi", "alpha": 2.0},
    {"family": "alpha_z", "alpha": 0.7, "z": 0.9},
    {"family": "alpha_z", "alpha": 1.5, "z": 1.2},
    {"family": "alpha_z", "alpha": 2.5, "z": 2.0},
    {"family": "f_divergence", "f": "x_log_x"},
    {"family": "f_divergence", "f": "power", "alpha": 0.5},
    {"family": "f_divergence", "f": "power", "alpha": 1.5},
    {"family": "f_divergence", "f": "neg_log"},
    {"family": "f_divergence", "f": "chi_square"},
)

_SCALING_FAMILIES = ("relative_entropy", "fidelity", "sandwiched_renyi", "alpha_z")
_RENYI_FAMILIES = ("sandwiched_renyi", "alpha_z")

# corpus: (saturating fixture class, dimension) and the non-saturating
# dimension for each of the 13 specs, in MEASURES order. The five
# non-saturating f-divergence ops, the slowest, share n = 6: the latency p90
# falls inside that cluster, and no single op dominates a pass.
_CORPUS_SATURATING = (
    ("partial_trace", 8),
    ("unitary", 5),
    ("pinching", 6),
    ("measure_prepare", 4),
    ("unitary", 8),
    ("partial_trace", 6),
    ("pinching", 3),
    ("measure_prepare", 7),
    ("unitary", 4),
    ("pinching", 5),
    ("partial_trace", 4),
    ("measure_prepare", 3),
    ("unitary", 2),
)
_CORPUS_NOT_SATURATING = (2, 3, 4, 5, 6, 7, 8, 2, 6, 6, 6, 6, 6)
_SMOKE_MAX_DIM = 3

# Ill-conditioned saturating fixtures: partial trace of rho (x) tau and
# sigma (x) tau with the given sigma spectrum. The 1e-9 one is an exactly
# saturating pair that the clustering in linalg currently misjudges.
_ILL_CONDITIONED = (
    (MEASURES[0], (1e-9, 5e-9, 1.0)),
    (MEASURES[0], (1e-3, 5e-3, 1.0)),
    (MEASURES[4], (1e-4, 1e-2, 1.0)),
)

# sweep: the alpha_z grid and its channels.
SWEEP_GRID = "alpha=0.5:2.5:0.25;z=0.5:2.5:0.25"
SMOKE_SWEEP_GRID = "alpha=0.5:2.5:0.5;z=0.5:2.5:0.5"
# All three map n -> n, so the sweeps cost about the same and the latency
# median falls inside one cluster.
_SWEEP_CHANNELS = ("pinching", "measure_prepare", "unitary")


# ---------------------------------------------------------------------------
# Matrices and JSON encoding
# ---------------------------------------------------------------------------


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def matrix_json(arr) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in arr]
    if arr.shape[0] == arr.shape[1]:
        return {"dim": int(arr.shape[0]), "entries": entries}
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "entries": entries}


def _random_positive(g: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    x = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    return x @ x.conj().T / n + floor * np.eye(n)


def _random_unitary(g: np.random.Generator, n: int) -> np.ndarray:
    x = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_psd_rank(g: np.random.Generator, n: int, rank: int) -> np.ndarray:
    b = g.normal(size=(n, rank)) + 1j * g.normal(size=(n, rank))
    return b @ b.conj().T / n


def _unit_trace(arr: np.ndarray) -> np.ndarray:
    return arr / float(np.real(np.trace(arr)))


def _diag(values) -> dict:
    return {"builder": "diag", "values": [float(v) for v in values]}


def _permutation_measure_prepare(n: int) -> dict:
    """Computational-basis measurement that re-prepares basis state i+1."""
    povm, states = [], []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        t = np.zeros((n, n))
        t[(i + 1) % n, (i + 1) % n] = 1.0
        povm.append(matrix_json(e))
        states.append(matrix_json(t))
    return {"builder": "measure_prepare", "povm": povm, "states": states}


def _split(n: int) -> tuple:
    """Factor n = a * b with b = 2 for the partial-trace fixtures."""
    if n % 2:
        raise ValueError(f"partial-trace fixtures need an even dimension, got {n}")
    return n // 2, 2


def _checks(measure: dict) -> list:
    """Every check that applies to a full-rank pair under this measure."""
    checks = ["gap", "residual1", "residual2", "petz"]
    family = measure["family"]
    if family in _SCALING_FAMILIES:
        checks.append("converse")
    if family in _RENYI_FAMILIES:
        checks.append("alpha_z_crosscheck")
    if family == "relative_entropy":
        checks.append("boundary")
    return checks


def _label(measure: dict) -> str:
    parts = [measure["family"]]
    for key in ("f", "alpha", "z"):
        if key in measure:
            parts.append(f"{key}{measure[key]}")
    return "-".join(parts)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _saturating_states(kind: str, n: int, g: np.random.Generator):
    """(channel, rho, sigma) for a structurally recoverable fixture."""
    if kind == "unitary":
        u = _random_unitary(g, n)
        return (
            {"builder": "unitary", "matrix": matrix_json(u)},
            matrix_json(_random_positive(g, n)),
            matrix_json(_random_positive(g, n)),
        )
    if kind == "pinching":
        return (
            {"builder": "dephasing_pinching", "dim": n},
            _diag(g.uniform(0.1, 1.0, size=n)),
            _diag(g.uniform(0.1, 1.0, size=n)),
        )
    if kind == "partial_trace":
        a, b = _split(n)
        tau = _unit_trace(_random_positive(g, b))
        return (
            {"builder": "partial_trace", "dim_a": a, "dim_b": b, "keep": "a"},
            matrix_json(np.kron(_random_positive(g, a), tau)),
            matrix_json(np.kron(_random_positive(g, a), tau)),
        )
    if kind == "measure_prepare":
        return (
            _permutation_measure_prepare(n),
            _diag(g.uniform(0.1, 1.0, size=n)),
            _diag(g.uniform(0.1, 1.0, size=n)),
        )
    raise ValueError(f"unknown fixture class {kind!r}")


def _boundary_states(kind: str, n: int, g: np.random.Generator):
    """(channel, rho, sigma) recoverable with a rank-deficient rho."""
    if kind == "pinching":
        values = g.uniform(0.1, 1.0, size=n)
        values[-2:] = 0.0
        return (
            {"builder": "dephasing_pinching", "dim": n},
            _diag(values),
            _diag(g.uniform(0.1, 1.0, size=n)),
        )
    if kind == "unitary":
        return (
            {"builder": "unitary", "matrix": matrix_json(_random_unitary(g, n))},
            matrix_json(_random_psd_rank(g, n, n - 1)),
            matrix_json(_random_positive(g, n)),
        )
    if kind == "measure_prepare":
        values = g.uniform(0.1, 1.0, size=n)
        values[1] = 0.0
        return (
            _permutation_measure_prepare(n),
            _diag(values),
            _diag(g.uniform(0.1, 1.0, size=n)),
        )
    if kind == "partial_trace":
        a, b = _split(n)
        vec = g.normal(size=a) + 1j * g.normal(size=a)
        tau = _unit_trace(_random_positive(g, b))
        return (
            {"builder": "partial_trace", "dim_a": a, "dim_b": b, "keep": "a"},
            matrix_json(np.kron(np.outer(vec, vec.conj()), tau)),
            matrix_json(np.kron(_random_positive(g, a), tau)),
        )
    raise ValueError(f"unknown boundary fixture class {kind!r}")


def _run_op(op_id: str, expect: str, measure: dict, channel: dict, rho, sigma, checks: list) -> dict:
    return {
        "id": op_id,
        "kind": "run",
        "expect": expect,
        "scenario": {
            "name": op_id,
            "measure": dict(measure),
            "channel": channel,
            "rho": rho,
            "sigma": sigma,
            "checks": checks,
            "tolerances": {"gap_tol": GAP_TOL, "residual_tol": RESIDUAL_TOL},
        },
    }


def _sized(n: int, smoke: bool) -> int:
    """Dimension used by an op; smoke runs cap it (even sizes stay even)."""
    if not smoke or n <= _SMOKE_MAX_DIM:
        return n
    return 2 if n % 2 == 0 else _SMOKE_MAX_DIM


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def corpus(seed: int, smoke: bool = False) -> list:
    """All 13 specs and every check at n = 2..8 on low-Kraus-rank channels and
    depolarizing noise, plus rank-deficient and ill-conditioned fixtures."""
    ops = []
    for i, measure in enumerate(MEASURES):
        kind, n = _CORPUS_SATURATING[i]
        n = _sized(n, smoke)
        channel, rho, sigma = _saturating_states(kind, n, _rng(seed, 1, i))
        ops.append(_run_op(
            f"sat/{_label(measure)}/{kind}/n{n}", "saturated",
            measure, channel, rho, sigma, _checks(measure),
        ))
    for i, measure in enumerate(MEASURES):
        n = _sized(_CORPUS_NOT_SATURATING[i], smoke)
        g = _rng(seed, 2, i)
        p = float(g.uniform(0.2, 0.7))
        ops.append(_run_op(
            f"nosat/{_label(measure)}/depolarizing/n{n}", "not_saturated",
            measure, {"builder": "depolarizing", "dim": n, "p": p},
            matrix_json(_random_positive(g, n)), matrix_json(_random_positive(g, n)),
            _checks(measure),
        ))
    relent = MEASURES[0]
    boundary_sizes = (("pinching", 5), ("unitary", 4), ("measure_prepare", 3), ("partial_trace", 6))
    for i, (kind, n) in enumerate(boundary_sizes):
        n = _sized(n, smoke)
        channel, rho, sigma = _boundary_states(kind, n, _rng(seed, 3, i))
        ops.append(_run_op(
            f"boundary/{kind}/n{n}", "boundary",
            relent, channel, rho, sigma, ["gap", "boundary", "tangent"],
        ))
    tangent_specs = ((MEASURES[1], 4, 2), (MEASURES[4], 5, 3), (MEASURES[6], 6, 4), (MEASURES[8], 3, 1))
    for i, (measure, n, rank) in enumerate(tangent_specs):
        n, rank = _sized(n, smoke), min(rank, _sized(n, smoke) - 1)
        g = _rng(seed, 4, i)
        ops.append(_run_op(
            f"tangent/{_label(measure)}/n{n}r{rank}", "tangent",
            measure, {"builder": "depolarizing", "dim": n, "p": float(g.uniform(0.2, 0.7))},
            matrix_json(_random_psd_rank(g, n, rank)), matrix_json(_random_positive(g, n)),
            ["tangent"],
        ))
    for i, (measure, spectrum) in enumerate(_ILL_CONDITIONED):
        g = _rng(seed, 5, i)
        v = _random_unitary(g, 3)
        sigma_a = (v * np.asarray(spectrum)) @ v.conj().T
        tau = _unit_trace(_random_positive(g, 2))
        ops.append(_run_op(
            f"illcond/{measure['family']}/sigma{spectrum[0]:.0e}/n6", "saturated",
            measure, {"builder": "partial_trace", "dim_a": 3, "dim_b": 2, "keep": "a"},
            matrix_json(np.kron(_random_positive(g, 3), tau)),
            matrix_json(np.kron(sigma_a, tau)),
            ["gap", "residual1", "residual2"],
        ))
    return ops


def high_kraus(seed: int, smoke: bool = False) -> list:
    """gap, residual1, residual2 and petz under depolarizing (Kraus rank
    n**2 + 1), for the eight specs outside the f-divergence family: the first
    spec of each family at n = 24, relative entropy and the other four at
    n = 32. Nine short ops give each op many timed runs per measured second,
    and the latency median is the fastest n = 32 op, not the edge of a
    cluster that one slow op could move."""
    specs = [m for m in MEASURES if m["family"] != "f_divergence"]
    first = [m for i, m in enumerate(specs) if m["family"] not in
             {s["family"] for s in specs[:i]}]
    rest = [m for m in specs if m not in first]
    plan = [(24, m) for m in first] + [(32, m) for m in [specs[0], *rest]]
    ops = []
    for i, (n, measure) in enumerate(plan):
        if smoke:
            n = 3 if n == 24 else 4
        g = _rng(seed, 6, n, i)
        ops.append(_run_op(
            f"high_kraus/{_label(measure)}/n{n}", "not_saturated",
            measure, {"builder": "depolarizing", "dim": n, "p": float(g.uniform(0.2, 0.7))},
            matrix_json(_random_positive(g, n)), matrix_json(_random_positive(g, n)),
            ["gap", "residual1", "residual2", "petz"],
        ))
    return ops


def sweep(seed: int, smoke: bool = False) -> list:
    """``dpisat sweep --measure alpha_z`` over a fixed grid, one seeded state
    pair per sweep, under low-Kraus-rank channels."""
    n = 4 if smoke else 16
    grid = SMOKE_SWEEP_GRID if smoke else SWEEP_GRID
    ops = []
    for i, kind in enumerate(_SWEEP_CHANNELS):
        g = _rng(seed, 7, i)
        if kind == "pinching":
            channel = {"builder": "dephasing_pinching", "dim": n}
        elif kind == "measure_prepare":
            channel = _permutation_measure_prepare(n)
        else:
            channel = {"builder": "unitary", "matrix": matrix_json(_random_unitary(g, n))}
        ops.append({
            "id": f"sweep/alpha_z/{kind}/n{n}",
            "kind": "sweep",
            "expect": "sweep",
            "saturating": kind == "unitary",
            "rows": in_region_points(grid),
            "argv": [
                "sweep", "--measure", "alpha_z", "--grid", grid,
                "--channel", _compact(channel),
                "--rho", _compact(matrix_json(_random_positive(g, n))),
                "--sigma", _compact(matrix_json(_random_positive(g, n))),
            ],
        })
    return ops


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _axis(spec: str) -> list:
    start, stop, step = (float(x) for x in spec.split(":"))
    count = int(round((stop - start) / step)) + 1
    return [round(start + k * step, 12) for k in range(count)]


def in_alpha_z_region(alpha: float, z: float) -> bool:
    """The published alpha-z data-processing region (alpha != 1)."""
    eps = 1e-12
    if 0.0 < alpha < 1.0:
        return z >= max(alpha, 1.0 - alpha) - eps
    if 1.0 < alpha <= 2.0:
        return alpha / 2.0 - eps <= z <= alpha + eps
    if alpha > 2.0:
        return alpha - 1.0 - eps <= z <= alpha + eps
    return False


def in_region_points(grid: str) -> list:
    """The (alpha, z) grid points a sweep must report, in output order."""
    axes = dict(part.split("=") for part in grid.split(";"))
    return [
        [a, z]
        for a in _axis(axes["alpha"])
        for z in _axis(axes["z"])
        if abs(a - 1.0) > 1e-12 and in_alpha_z_region(a, z)
    ]


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The op list of one workload, as JSON-serializable dicts."""
    if workload == "corpus":
        return corpus(seed, smoke)
    if workload == "high_kraus":
        return high_kraus(seed, smoke)
    if workload == "sweep":
        return sweep(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
