"""Compare the report numbers recorded by two benchmark runs.

Usage::

    python3 bench/compare.py BASE NEW

BASE and NEW are record files written by ``run_bench.py`` (``--record``) or
directories of them. Records are paired by workload, seed and trace flag;
for each workload the script prints the largest relative deviation

    |a - b| / max(|a|, |b|, floor)

over every recorded number (gap, residual norms, Petz errors, check
details, sweep rows), with the op and field where it occurs. The floor,
the default residual tolerance 1e-8, keeps roundoff-level numbers such as
residuals at saturation from dominating.
Exits 1 when a pair disagrees on which ops or fields were recorded.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

FLOOR = 1e-8


def load_records(path: str) -> dict:
    """{(workload, seed, trace): record} from a file or a directory."""
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = {}
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if "records" in rec:
            out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def deviation(a: float, b: float, floor: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), floor)


def compare(base: dict, new: dict, floor: float) -> tuple:
    """(per-workload worst deviation rows, mismatch messages)."""
    worst: dict = {}
    problems = []
    for key in sorted(set(base) & set(new)):
        workload, seed, _trace = key
        a_ops, b_ops = base[key]["records"], new[key]["records"]
        if set(a_ops) != set(b_ops):
            problems.append(f"{workload} seed {seed}: recorded ops differ")
        for op_id in sorted(set(a_ops) & set(b_ops)):
            a, b = a_ops[op_id], b_ops[op_id]
            if set(a) != set(b):
                problems.append(f"{workload} seed {seed} {op_id}: recorded fields differ")
            row = worst.setdefault(workload, {"dev": -1.0, "numbers": 0})
            for field in sorted(set(a) & set(b)):
                row["numbers"] += 1
                dev = deviation(a[field], b[field], floor)
                if dev > row["dev"]:
                    row.update(dev=dev, seed=seed, op=op_id, field=field, a=a[field], b=b[field])
    return worst, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load_records(args.base), load_records(args.new)
    if not set(base) & set(new):
        print("no records with matching workload, seed and trace flag", file=sys.stderr)
        return 2
    worst, problems = compare(base, new, FLOOR)
    for workload, row in sorted(worst.items()):
        print(
            f"{workload}: largest relative deviation {row['dev']:.3e} over "
            f"{row['numbers']} numbers (seed {row['seed']}, {row['op']}, {row['field']}: "
            f"{row['a']!r} vs {row['b']!r})"
        )
    for problem in problems:
        print(f"mismatch: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
