"""Output checks: compare each op's output with the verdict its construction
guarantees, and extract the report numbers that a run records."""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass

from workloads import GAP_TOL, RESIDUAL_TOL

# Report fields that carry no numerical result.
_SKIP_FIELDS = ("generated_at", "schema_version", "name", "measure", "tolerances", "seeds")


def take_run_report(report_dir: str) -> dict:
    """Read and remove the one report that ``dpisat run`` wrote into
    ``report_dir``."""
    names = os.listdir(report_dir)
    if len(names) != 1:
        raise ValueError(f"expected one report in {report_dir}, found {sorted(names)}")
    path = os.path.join(report_dir, names[0])
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    os.unlink(path)
    return report


def read_sweep_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, (float(x) for x in row))) for row in body]


def check_op(op: dict, rc: int, output) -> str | None:
    """None when the output matches the op's guaranteed verdict, otherwise a
    one-line reason."""
    if op["kind"] == "sweep":
        return f"exit code {rc}" if rc != 0 else _check_sweep(op, output)
    # ``dpisat run`` exits 1 exactly when a report fails a check.
    if rc != (0 if output.get("passed") else 1):
        return f"exit code {rc} with passed={output.get('passed')}"
    return _check_run(op["expect"], output)


def _check_run(expect: str, report: dict) -> str | None:
    if "error" in report:
        return f"error: {report['error']}"
    failed = sorted(name for name, c in report["checks"].items() if not c["passed"])
    if failed or not report["passed"]:
        return f"checks failed: {', '.join(failed) or 'report'}"
    gap = report["gap"]
    if not math.isfinite(gap):
        return f"non-finite gap {gap!r}"
    if expect == "saturated":
        if report["saturated"] is not True:
            return (
                f"saturated={report['saturated']} on a saturating fixture "
                f"(gap={gap:.3e}, residual1={report['residual1_frobenius']:.3e}, "
                f"residual2={report['residual2_frobenius']:.3e})"
            )
    elif expect == "not_saturated":
        if not gap > GAP_TOL:
            return f"gap {gap:.3e} is not positive under depolarizing noise"
        if report["saturated"] is not False:
            return f"saturated={report['saturated']} under depolarizing noise"
    elif expect == "boundary":
        if abs(gap) > GAP_TOL:
            return f"|gap| = {abs(gap):.3e} on a saturating boundary fixture"
    elif expect == "tangent":
        detail = report["checks"]["tangent"]
        if detail["measured"] != detail["expected"]:
            return f"tangent rank {detail['measured']} != {detail['expected']}"
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    return None


def _check_sweep(op: dict, rows: list) -> str | None:
    points = op["rows"]
    if len(rows) != len(points):
        return f"{len(rows)} rows, expected {len(points)} in-region grid points"
    for row, (alpha, z) in zip(rows, points):
        if (row["alpha"], row["z"]) != (alpha, z):
            return f"row ({row['alpha']}, {row['z']}) where ({alpha}, {z}) was expected"
        values = (row["gap"], row["residual1_norm"], row["residual2_norm"])
        if not all(math.isfinite(v) for v in values):
            return f"non-finite row at alpha={alpha}, z={z}"
        if row["gap"] < -GAP_TOL:
            return f"gap {row['gap']:.3e} < -gap_tol at alpha={alpha}, z={z}"
        if op["saturating"] and (
            abs(row["gap"]) > GAP_TOL or max(values[1:]) > RESIDUAL_TOL
        ):
            return f"unitary sweep does not saturate at alpha={alpha}, z={z}"
    return None


@dataclass(frozen=True)
class KnownDefect:
    """A verdict that was already wrong when the benchmark was written, and
    the way it goes wrong. A matching op fails in that way only: its report
    says ``saturated: false``, only the listed checks fail, and the numbers
    stay in the recorded ranges. Any other failure of the op, a raise or an
    unexpected exit code included, is unexpected.

    The ops a known defect covers are not timed: each run executes them once,
    as a probe, and reports how they failed. The timed ops are the others,
    and none of them may fail."""

    pattern: str            # regex on the op id
    cause: str
    may_fail: frozenset     # checks allowed to fail
    max_abs_gap: float
    max_residual1: float
    residual2: tuple        # (low, high) range of residual2_frobenius
    grad2_method: str | None = None

    def fits(self, op_id: str, report) -> bool:
        if not isinstance(report, dict) or not re.search(self.pattern, op_id):
            return False
        if "error" in report or report.get("saturated") is not False:
            return False
        if self.grad2_method is not None and report.get("grad2_method") != self.grad2_method:
            return False
        failed = {name for name, c in report["checks"].items() if not c["passed"]}
        low, high = self.residual2
        return (
            failed <= self.may_fail
            and abs(report["gap"]) <= self.max_abs_gap
            and report["residual1_frobenius"] <= self.max_residual1
            and low <= report["residual2_frobenius"] <= high
        )


# Ranges were set from the corpus ops of seeds 0..1499: every failure of these
# ops on those seeds lies inside its range, with the margin noted.
KNOWN_DEFECTS = (
    KnownDefect(
        # The partial trace of rho (x) tau against sigma (x) tau with sigma
        # eigenvalues {1e-9, 5e-9, 1}: an exactly saturating pair.
        pattern=r"^illcond/relative_entropy/sigma1e-09/",
        cause="eigenvalue clustering tests |a-b| <= tol*max(1,|a|,|b|), which is absolute "
        "below 1: 1e-9 and 5e-9 merge, the log Frechet derivative is wrong and residual2 "
        "is ~1e9",
        # Seen: |gap| <= 3.2e-6, residual1 <= 7.3e-6, residual2 in [1e8, 3.6e9].
        may_fail=frozenset({"gap", "residual1", "residual2"}),
        max_abs_gap=1e-5,
        max_residual1=1e-4,
        residual2=(1e6, math.inf),
    ),
    KnownDefect(
        pattern=r"^illcond/(relative_entropy/sigma1e-03|sandwiched_renyi/sigma1e-04)/",
        cause="residual2 is judged against an absolute residual_tol, but its roundoff "
        "grows with the conditioning of sigma",
        # Seen: residual2 <= 1.7e-6 (sandwiched_renyi) and <= 2e-8 (relative_entropy).
        may_fail=frozenset({"residual2"}),
        max_abs_gap=GAP_TOL,
        max_residual1=RESIDUAL_TOL,
        residual2=(RESIDUAL_TOL, 1e-5),
    ),
    KnownDefect(
        # The commuting pinching and measure-prepare f-divergence fixtures
        # pass and are not listed.
        pattern=r"^sat/f_divergence-[^/]+/(unitary|partial_trace)/",
        cause="the f-divergence grad2 is a central finite-difference estimate whose "
        "error exceeds the default residual_tol on non-commuting fixtures",
        # Seen: residual2 <= 4.1e-3 (power 1.5 under the partial trace; 99th
        # percentile 5.8e-4). A closed-form grad2 is not covered at all.
        may_fail=frozenset({"residual2"}),
        max_abs_gap=GAP_TOL,
        max_residual1=RESIDUAL_TOL,
        residual2=(RESIDUAL_TOL, 2e-2),
        grad2_method="numeric",
    ),
)


def covered_by_known_defect(op_id: str) -> bool:
    """Whether ``op_id`` belongs to the known-defect probe."""
    return any(re.search(defect.pattern, op_id) for defect in KNOWN_DEFECTS)


def known_defect(op_id: str, output) -> str | None:
    """The recorded cause when ``op_id`` failed in a known defect's recorded
    way, else None."""
    for defect in KNOWN_DEFECTS:
        if defect.fits(op_id, output):
            return defect.cause
    return None


def report_numbers(op: dict, output) -> dict:
    """Flatten an op's numerical results into ``{dotted.key: float}``."""
    out: dict = {}
    if op["kind"] == "sweep":
        for i, row in enumerate(output):
            for key in ("gap", "residual1_norm", "residual2_norm"):
                out[f"rows[{i}].{key}"] = row[key]
        return out
    _flatten({k: v for k, v in output.items() if k not in _SKIP_FIELDS}, "", out)
    return out


def _flatten(obj, prefix: str, out: dict):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
