"""Scenario-driven command line front end.

Commands
--------

``run <file> --out <dir>``
    Load one scenario (or a list) from JSON, execute the requested checks,
    and write one report per scenario to the output directory. Exit code 0
    when every asserted check passes, 1 on a numerical check failure, 2 on
    a schema violation (with the offending field path).

``sweep --measure ... --grid ... --channel ... --rho ... --sigma ... --out f.csv``
    Evaluate gap and residual norms over a Renyi parameter grid and emit a
    CSV with one row per grid point. Exit code 0 when every point is
    evaluated; 1 when one cannot be, naming it on stderr and writing no CSV;
    2 on a schema violation, a dimension mismatch included.

``validate <file>``
    Schema-check a scenario file without running anything.

Check semantics (README.md has them in full): each check asserts an
invariant of any valid configuration and is one row of ``_CHECKS``, its
verdict function and what it needs; the measure's family row says which
checks apply and what ``petz`` and ``boundary`` judge.

* ``gap`` >= -gap_tol; ``residual1`` and ``residual2`` vanish when
  |gap| <= gap_tol; ``converse``: for a family with a scaling law, a
  vanishing residual1 forces a vanishing gap;
* ``petz``: sigma is recovered, and so is rho at saturation when saturation
  implies recovery for the family (otherwise ``"judged": false``);
* ``boundary``: the tangent-space residual, the report's residual1, vanishes
  at saturation, and so do the family's support-logarithm residuals (the
  zeros-log one is residual1 too, by the support lemma);
* ``alpha_z_crosscheck``: three published conditions agree at saturation;
* ``tangent``: the tangent space at rho has dimension n^2 - k^2, read from
  the spectrum of rho's kernel projector in O(n^3).

Every check but ``tangent`` reads the report of ``build_report``, at any rank
of rho. A check that cannot be evaluated fails alone, with the reason.

State builders: a matrix object, ``{"builder": "diag", "values": [...]}``,
or ``{"builder": "random_pos", "dim": n, "seed": s}``. Random states are
drawn from numpy's PCG64 generator, so a fixed seed reproduces the same
state on every platform; the ``DPISAT_SEED`` environment variable overrides
all scenario seeds.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .channels import KrausChannel, channel_from_json
from .divergences import (
    _FAMILY_TABLE,
    FAMILIES,
    MeasureSpec,
    grad2_method,
    measure_from_json,
    measure_to_json,
)
from .linalg import (
    DEFAULT_HERM_TOL,
    DEFAULT_ZERO_TOL,
    PositiveOperator,
    PsdOperator,
    SchemaError,
    _builder_dim,
    _fields,
    _number,
    _positive_int,
    _schema_at,
    frobenius,
    hermitize,
    matrix_from_json,
)
from .saturation import (
    DEFAULT_GAP_TOL,
    DEFAULT_RESIDUAL_TOL,
    _alpha_z_crosscheck,
    _converse_verdict,
    _hiai_residual,
    _petz_recovery_errors,
    _report_fields,
    build_report,
    report_to_json,
    tangent_space_rank,
)

# The most points a sweep grid may have.
_MAX_GRID_POINTS = 10 ** 5

# ``petz`` passes when each Petz recovery error is at most this factor times
# the Frobenius norm of its state, a rule that scaling both states keeps.
_PETZ_SIGMA_REL_TOL = 1e-9
_PETZ_RHO_REL_TOL = 1e-7

# The longest report file name, in bytes, that common file systems take.
_MAX_REPORT_NAME_BYTES = 255


@dataclass
class Scenario:
    name: str
    measure: MeasureSpec
    channel: KrausChannel
    rho: PsdOperator
    sigma: PositiveOperator
    checks: list
    gap_tol: float = DEFAULT_GAP_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    seeds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Scenario loading and schema validation
# ---------------------------------------------------------------------------


def random_positive_state(dim: int, seed: int) -> np.ndarray:
    """Reproducible strictly positive state: G G^H / n + 0.1 I, complex
    Gaussian G from PCG64(seed)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return g @ g.conj().T / dim + 0.1 * np.eye(dim)


def _state_from_json(obj, path: str, seed_override: int | None):
    """Decode a state: explicit matrix, diag builder, or seeded random_pos."""
    if not isinstance(obj, dict) or "builder" not in obj:
        return matrix_from_json(obj, path), None
    name = obj["builder"]
    if name == "diag":
        values = _fields(obj, path, ("builder", "values"))["values"]
        what = "a non-empty list of numbers"
        if not isinstance(values, list) or not values:
            raise SchemaError(f"{path}.values", f"expected {what}, got {values!r}")
        _builder_dim(len(values), f"{path}.values")
        for v in values:
            _number(v, f"{path}.values", what)
        return np.diag(np.asarray(values, dtype=np.complex128)), None
    if name == "random_pos":
        _fields(obj, path, ("builder", "dim", "seed"))
        dim = _builder_dim(obj["dim"], f"{path}.dim")
        seed = _positive_int(obj["seed"], f"{path}.seed", "a non-negative integer seed", least=0)
        if seed_override is not None:
            seed = seed_override
        return random_positive_state(dim, seed), seed
    raise SchemaError(f"{path}.builder", f"unknown state builder {name!r}")


def _admit_state(arr: np.ndarray, path: str, psd: bool = False):
    """A scenario state, strictly positive or, with ``psd``, PSD, judged by the
    scale rule of :func:`hermitize` and the clusters: skew within
    ``1e-10 max(1, max|A|)``, and eigenvalues within ``1e-10 max(1, tr A)`` of
    zero snapped to 0. A strictly positive state's smallest eigenvalue must
    exceed the eigensolver's floor ``n eps max|w|``, so a sigma with a kernel
    is refused whatever sign roundoff gave it. A state it refuses is a schema
    error at ``path``."""
    with _schema_at(path):
        op = hermitize(arr, DEFAULT_HERM_TOL)
        if not psd:
            return PositiveOperator(op)
        return PsdOperator(op, DEFAULT_ZERO_TOL * max(1.0, float(np.trace(op.matrix).real)))


def _tolerances_from_json(obj, path: str):
    tols = {"gap_tol": DEFAULT_GAP_TOL, "residual_tol": DEFAULT_RESIDUAL_TOL}
    for key, val in _fields(obj, path, optional=tols).items():
        tols[key] = _number(val, f"{path}.{key}", "a positive number", positive=True)
    return tols["gap_tol"], tols["residual_tol"]


def _tolerance_arg(text: str) -> float:
    """A ``--tol-*`` value, under the rule of the JSON tolerances."""
    try:
        return _number(float(text), "tolerance", positive=True)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}") from None


def _validate_checks(sc: Scenario, path: str):
    """Every requested check must apply to the measure, as its row of
    ``_CHECKS`` says, and be requested once: the report keeps one entry per
    check."""
    for i, name in enumerate(sc.checks):
        cpath, check = f"{path}.checks[{i}]", _CHECKS.get(name)
        if check is None:
            raise SchemaError(cpath, f"unknown check {name!r}")
        if name in sc.checks[:i]:
            raise SchemaError(cpath, f"check {name!r} is requested more than once")
        if check.family and not getattr(sc.measure._row, check.family[0]):
            raise SchemaError(cpath, f"{name!r} needs {check.family[1]}, not {sc.measure.family!r}")


def _check_dims(channel: KrausChannel, rho, sigma, prefix: str = "") -> None:
    """rho, sigma and the channel input share one dimension; a mismatch names
    the field at ``prefix + "sigma"`` or ``prefix + "channel"``."""
    if rho.dim != sigma.dim:
        raise SchemaError(f"{prefix}sigma", f"sigma dim {sigma.dim} != rho dim {rho.dim}")
    if channel.dim_in != rho.dim:
        raise SchemaError(f"{prefix}channel", f"channel dim_in {channel.dim_in} != state dim {rho.dim}")


def _build_scenario(obj, path: str, args, seed_override: int | None) -> Scenario:
    _fields(obj, path, ("name", "measure", "channel", "rho", "sigma", "checks"), ("tolerances",),
            "a scenario object")
    name = obj["name"]
    if not isinstance(name, str) or not name.strip():
        raise SchemaError(f"{path}.name", "expected a non-empty string")
    measure = measure_from_json(obj["measure"], f"{path}.measure", allow_non_dpi=args.allow_non_dpi)
    channel = channel_from_json(obj["channel"], f"{path}.channel")
    states, seeds = {}, {}
    for key in ("rho", "sigma"):
        states[key], seed = _state_from_json(obj[key], f"{path}.{key}", seed_override)
        if seed is not None:
            seeds[key] = seed

    rho_psd = _admit_state(states["rho"], f"{path}.rho", psd=True)
    sigma = _admit_state(states["sigma"], f"{path}.sigma")
    _check_dims(channel, rho_psd, sigma, f"{path}.")

    checks = obj["checks"]
    if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
        raise SchemaError(f"{path}.checks", "expected a non-empty list of check names")

    gap_tol, residual_tol = _tolerances_from_json(obj.get("tolerances", {}), f"{path}.tolerances")
    gap_tol = args.tol_gap if args.tol_gap is not None else gap_tol
    residual_tol = args.tol_residual if args.tol_residual is not None else residual_tol

    sc = Scenario(name=name, measure=measure, channel=channel, rho=rho_psd, sigma=sigma,
                  checks=list(checks), gap_tol=gap_tol, residual_tol=residual_tol, seeds=seeds)
    _validate_checks(sc, path)
    return sc


def _json_from(source: str, path: str, inline: bool = False):
    """The JSON document in the file ``source``, or ``source`` itself when
    ``inline``; one that cannot be read or decoded is a schema error at ``path``."""
    try:
        if inline:
            return json.loads(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, too many digits for int(), or too deep
        raise SchemaError(path, f"invalid JSON: {exc}") from exc


def _load_scenarios(file_path: str, args) -> list:
    doc = _json_from(file_path, file_path)
    items = [doc] if isinstance(doc, dict) else doc
    if not isinstance(items, list) or not items:
        raise SchemaError(file_path, "expected a scenario object or a non-empty list of them")
    seed_override = _seed_override()
    by_file = {}  # each scenario writes the report file of its name
    for i, obj in enumerate(items):
        sc = _build_scenario(obj, f"scenario[{i}]", args, seed_override)
        fname = _report_filename(sc.name)
        size = len(fname.encode())
        if size > _MAX_REPORT_NAME_BYTES:
            raise SchemaError(f"scenario[{i}].name",
                              f"the report file name has {size} bytes, more than {_MAX_REPORT_NAME_BYTES}")
        if fname in by_file:
            raise SchemaError(f"scenario[{i}].name", f"scenarios {by_file[fname].name!r} and {sc.name!r} "
                              f"share the report file {fname!r}; report file names must be unique")
        by_file[fname] = sc
    return list(by_file.values())


# ---------------------------------------------------------------------------
# Check execution
# ---------------------------------------------------------------------------


class _Context(namedtuple("_Context", "sc report made")):
    """What a check's verdict reads; ``core`` is the SaturationReport, and
    raises ValueError with the reason (``made``) when it could not be made."""

    @property
    def core(self):
        if isinstance(self.made, str):
            raise ValueError(self.made)
        return self.made

    @property
    def saturated_here(self) -> bool:
        return abs(self.core.gap) <= self.sc.gap_tol


def _gap_check(ctx):
    return ctx.core.gap >= -ctx.sc.gap_tol, {"value": ctx.core.gap}


def _residual_check(side: str, ctx):
    norm = getattr(ctx.core, f"{side}_frobenius")
    return not ctx.saturated_here or norm <= ctx.sc.residual_tol, {"norm": norm}


def _converse_check(ctx):
    """A vanishing residual1 comes with a vanishing gap, both the report's;
    the check's ``family`` column admits only scaling-law families."""
    sc, core = ctx.sc, ctx.core
    cert, holds = _converse_verdict(core.residual1_frobenius, core.gap, sc.residual_tol, sc.gap_tol)
    return holds, {"residual1_norm": cert.residual1_norm, "gap": cert.gap,
                   "implied_gap_zero": cert.implied_gap_zero}


def _petz_check(ctx):
    """sigma is recovered, and so is rho at saturation when the family's row
    says saturation implies recovery (otherwise ``"judged": false``); the
    errors, from the report's pairs, go to its v1 fields."""
    m = ctx.sc.measure
    err_rho, err_sigma = _petz_recovery_errors(ctx.sc.channel, *ctx.core.pairs)
    ctx.report.update(petz_recovery_error_rho=err_rho, petz_recovery_error_sigma=err_sigma)
    detail = {"recovery_error_rho": err_rho, "recovery_error_sigma": err_sigma}
    judged = m._row.recovers(m)
    if not judged:
        detail["judged"] = False
    rho_lost = judged and ctx.saturated_here and err_rho > _PETZ_RHO_REL_TOL * frobenius(ctx.sc.rho)
    return err_sigma <= _PETZ_SIGMA_REL_TOL * frobenius(ctx.sc.sigma) and not rho_lost, detail


def _boundary_check(ctx):
    """Boundary residuals on the report's pairs.

    The tangent-space gradient residual (``general_norm``) is the report's
    residual1 and applies to every family. The support-logarithm residuals
    (``zeros_log_norm``, ``hiai_norm``) are recoverability conditions of the
    relative entropy; saturating another family, the fidelity say, does not
    imply recoverability, so only a family whose row owns them reports them.
    The zeros-log one is residual1, by the support lemma."""
    sc, core = ctx.sc, ctx.core
    detail: dict = {"general_norm": core.residual1_frobenius}
    if sc.measure._row.support_log:
        detail["zeros_log_norm"] = core.residual1_frobenius
        detail["hiai_norm"] = float(np.linalg.norm(_hiai_residual(sc.channel, *core.pairs)))
    return not ctx.saturated_here or all(v <= sc.residual_tol for v in detail.values()), detail


def _alpha_z_check(ctx):
    """Three published alpha-z conditions, the first the report's residual1."""
    sc, core = ctx.sc, ctx.core
    detail = asdict(_alpha_z_crosscheck(sc.channel, *core.pairs, sc.measure, core.residual1_frobenius))
    return not ctx.saturated_here or all(n <= sc.residual_tol for n in detail.values()), detail


def _tangent_check(ctx):
    rho = ctx.sc.rho
    rank, expected = tangent_space_rank(rho), rho.dim ** 2 - (rho.dim - rho.rank) ** 2
    return rank == expected, {"measured": rank, "expected": expected}


# One check of ``run``: its verdict ``run(ctx) -> (passed, detail)``, and the
# family-row column it needs with the phrase naming it (``family``). A verdict
# that raises ValueError or RuntimeError fails its check alone, with the
# reason; reading ``ctx.core`` raises when the report could not be made.
_Check = namedtuple("_Check", "run family", defaults=((),))

_CHECKS = {
    "gap": _Check(_gap_check),
    "residual1": _Check(functools.partial(_residual_check, "residual1")),
    "residual2": _Check(functools.partial(_residual_check, "residual2")),
    "converse": _Check(_converse_check, family=("scaling", "a scaling-law family")),
    "boundary": _Check(_boundary_check),
    "petz": _Check(_petz_check),
    "alpha_z_crosscheck": _Check(_alpha_z_check, family=("renyi", "a Renyi family")),
    "tangent": _Check(_tangent_check),
}


def _execute_scenario(sc: Scenario, dump_matrices: bool) -> dict:
    report = {
        "schema_version": "v1",
        "name": sc.name,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "measure": measure_to_json(sc.measure),
        "tolerances": {"gap_tol": sc.gap_tol, "residual_tol": sc.residual_tol},
        "seeds": sc.seeds,
        "grad2_method": grad2_method(sc.measure),
        # Made or not, a report has every v1 field, null where no number is known.
        **dict.fromkeys(_report_fields(dump_matrices)),
    }
    try:
        made = build_report(sc.measure, sc.channel, sc.rho, sc.sigma,
                            gap_tol=sc.gap_tol, residual_tol=sc.residual_tol, with_petz=False)
    except (ValueError, RuntimeError) as exc:
        made = f"report could not be made: {exc}"
    else:
        report.update(report_to_json(made, include_matrices=dump_matrices))

    ctx = _Context(sc, report, made)
    checks_out = {}
    for name in sc.checks:
        try:
            passed, detail = _CHECKS[name].run(ctx)
        except (ValueError, RuntimeError) as exc:
            passed, detail = False, {"reason": str(exc)}
        checks_out[name] = {"passed": bool(passed), **detail}

    report["checks"] = checks_out
    report["passed"] = all(c["passed"] for c in checks_out.values())
    return report


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) + ".json"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _seed_override() -> int | None:
    """``DPISAT_SEED``, the override of every scenario seed, read on each call."""
    env_seed = os.environ.get("DPISAT_SEED")
    if env_seed is not None and not env_seed.strip().isdecimal():
        raise SchemaError("DPISAT_SEED", f"expected a non-negative integer, got {env_seed!r}")
    with _schema_at("DPISAT_SEED"):  # more digits than int() takes
        return None if env_seed is None else int(env_seed)


def _cmd_run(args) -> int:
    scenarios = _load_scenarios(args.file, args)
    all_passed = True
    for sc in scenarios:
        report = _execute_scenario(sc, dump_matrices=args.dump_matrices)
        out_path = os.path.join(args.out, _report_filename(sc.name))
        _write_atomic(out_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        failed = ", ".join(name for name, c in report["checks"].items() if not c["passed"])
        print(f"{sc.name}: {'PASS' if report['passed'] else 'FAIL'}" + (f" ({failed})" if failed else ""))
        all_passed = all_passed and report["passed"]
    return 0 if all_passed else 1


def _parse_grid(text: str):
    """Parse 'alpha=0.5:3.0:0.25;z=...' into an ordered (name, values) list;
    point k of an axis is ``round(start + k*step, 12)``, ``k <= (stop - start)/step + 1e-9``."""
    axes, size = [], 1
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SchemaError("grid", f"expected name=start:stop:step, got {part!r}")
        name, rng = part.split("=", 1)
        name = name.strip()
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise SchemaError("grid", f"expected start:stop:step in {part!r}")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError as exc:
            raise SchemaError("grid", f"non-numeric grid bound in {part!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise SchemaError("grid", f"non-finite grid bound in {part!r}")
        if step <= 0 or stop < start:
            raise SchemaError("grid", f"empty or descending grid in {part!r}")
        count = math.floor(min((stop - start) / step + 1e-9, _MAX_GRID_POINTS)) + 1
        size *= count
        if size > _MAX_GRID_POINTS:
            raise SchemaError("grid", f"more than {_MAX_GRID_POINTS} grid points in {text!r}")
        axes.append((name, start, step, count, part))
    if not axes:
        raise SchemaError("grid", "no axes given")
    grid = []  # formed once every axis has passed the point-count bound
    for name, start, step, count, part in axes:
        values = [round(start + k * step, 12) for k in range(count)]
        if len(set(values)) < count:
            raise SchemaError("grid", f"step too fine for points rounded to 12 digits in {part!r}")
        grid.append((name, values))
    return grid


def _operand_from_arg(text: str, decoder, path: str):
    """Accept inline JSON (starting with '{') or a path to a JSON file."""
    return decoder(_json_from(text, path, inline=text.lstrip().startswith("{")), path)


def _cmd_sweep(args) -> int:
    seed_override = _seed_override()
    row = _FAMILY_TABLE.get(args.measure)
    if row is None or not row.renyi:
        renyi = [f for f in FAMILIES if _FAMILY_TABLE[f].renyi]
        raise SchemaError("measure", f"sweep supports {' and '.join(renyi)}")
    axes = _parse_grid(args.grid)
    axis_names = [a for a, _ in axes]
    if axis_names != list(row.fields):
        raise SchemaError("grid", f"{args.measure} sweep needs axes {list(row.fields)}, got {axis_names}")
    channel = _operand_from_arg(args.channel, channel_from_json, "channel")

    def state(obj, path, psd=False):
        return _admit_state(_state_from_json(obj, path, seed_override)[0], path, psd)

    rho = _operand_from_arg(args.rho, functools.partial(state, psd=True), "rho")
    sigma = _operand_from_arg(args.sigma, state, "sigma")
    _check_dims(channel, rho, sigma)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(axis_names + ["gap", "residual1_norm", "residual2_norm"])
    for point in itertools.product(*(values for _, values in axes)):
        try:
            m = MeasureSpec(args.measure, **dict(zip(axis_names, point)), allow_non_dpi=args.allow_non_dpi)
        except ValueError as exc:
            print(f"warning: skipping {point}: {exc}", file=sys.stderr)
            continue
        try:
            rep = build_report(m, channel, rho, sigma, with_petz=False)
        except (ValueError, RuntimeError) as exc:
            where = ", ".join(f"{name}={v!r}" for name, v in zip(axis_names, point))
            print(f"error at {where}: {exc}", file=sys.stderr)
            return 1
        values = (rep.gap, rep.residual1_frobenius, rep.residual2_frobenius)
        writer.writerow([repr(v) for v in point] + [repr(x) for x in values])
    _write_atomic(args.out, buf.getvalue())
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    scenarios = _load_scenarios(args.file, args)
    print(f"{args.file}: {len(scenarios)} scenario(s) OK")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use, once per process; each parse gets a new namespace."""
    parser = argparse.ArgumentParser(
        prog="dpisat",
        description="Distinguishability measures, matrix gradients, and "
        "data-processing saturation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenarios and write reports")
    run_p.add_argument("file", help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory for reports")
    run_p.add_argument("--allow-non-dpi", action="store_true", dest="allow_non_dpi")
    run_p.add_argument("--tol-gap", type=_tolerance_arg, dest="tol_gap")
    run_p.add_argument("--tol-residual", type=_tolerance_arg, dest="tol_residual")
    run_p.add_argument("--dump-matrices", action="store_true", dest="dump_matrices")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="gap/residual norms over a parameter grid")
    sweep_p.add_argument("--measure", required=True)
    sweep_p.add_argument("--grid", required=True, help="e.g. alpha=0.5:3.0:0.25;z=0.5:3.0:0.25")
    sweep_p.add_argument("--channel", required=True, help="channel JSON (inline or file)")
    sweep_p.add_argument("--rho", required=True, help="state JSON (inline or file)")
    sweep_p.add_argument("--sigma", required=True, help="state JSON (inline or file)")
    sweep_p.add_argument("--out", required=True, help="output CSV path")
    sweep_p.add_argument("--allow-non-dpi", action="store_true", dest="allow_non_dpi")
    sweep_p.set_defaults(func=_cmd_sweep)

    val_p = sub.add_parser("validate", help="schema-check a scenario file")
    val_p.add_argument("file")
    val_p.set_defaults(func=_cmd_validate)
    # The options a subcommand lacks read as unset in every namespace.
    for p in (run_p, sweep_p, val_p):
        p.set_defaults(allow_non_dpi=False, tol_gap=None, tol_residual=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading is a schema error, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
