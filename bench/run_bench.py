"""dpisat benchmark: one workload, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout (stdlib only; numpy is needed by the
workload process)::

    python3 bench/run_bench.py --workload corpus --seed 1 --seconds 56 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, ops_per_s, op_p50_ms,
op_p90_ms, peak_rss_mb; fail_ratio is given as failed/attempted).
``--trace 1`` prints the per-layer metrics of a separate traced run. Every
line before the last names a metric with its unit; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The run also
writes a record of each op's report numbers (see ``compare.py``).

The workload runs in a fresh process with the BLAS thread count set to 1.
The launcher exits non-zero without a result when the dpisat sources are
missing, the workload process fails, or it exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("corpus", "high_kraus", "sweep")
TIME_LIMIT_S = 170.0

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "linalg.eigh_calls": "count",
    "linalg.eigh_self_s": "s",
    "linalg.eigh_n3": "count",
    "calculus.frechet_calls": "count",
    "calculus.frechet_self_s": "s",
    "calculus.numeric_gradient_calls": "count",
    "calculus.self_s": "s",
    "channels.apply_calls": "count",
    "channels.adjoint_calls": "count",
    "channels.kraus_products": "count",
    "channels.self_s": "s",
    "divergences.evaluate_calls": "count",
    "divergences.grad1_calls": "count",
    "divergences.grad2_calls": "count",
    "divergences.self_s": "s",
    "saturation.build_report_calls": "count",
    "saturation.reports": "count",
    "saturation.eigh_per_report": "count",
    "saturation.apply_per_report": "count",
    "saturation.self_s": "s",
    "cli.self_s": "s",
    "host.calib_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_worker(args, env: dict, op_dir: str, result_path: str, deadline: float):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", SRC, "--out-dir", op_dir, "--result", result_path,
    ]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(args, res: dict) -> tuple:
    """(metrics, human-readable lines) for the printed result."""
    calib = res["host_calib_ms"]
    lines = [
        f"workload {res['workload']} seed {res['seed']}: closed loop, 1 client, "
        f"{res['ops']} ops per pass",
        "host: python {python}, numpy {numpy}, {blas}, nproc {nproc}, "
        "blas_threads {blas_threads}".format(**res["meta"]),
        f"host.calib_ms: start {calib['start']:.4f} ms, end {calib['end']:.4f} ms "
        "(not used to rescale any metric)",
    ]
    if args.trace:
        trace = res["trace"]
        values = dict(trace["metrics"])
        values["host.calib_ms"] = (calib["start"] + calib["end"]) / 2.0
        values["trace.overhead_ratio"] = trace["overhead_ratio"]
        units, notes = PER_LAYER_UNITS, {}
        lines.append(f"traced passes: {trace['passes']} (counts per pass, times median per pass)")
        spans = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in spans:
            lines.append(f"span {name}: {row['self_s']:.6g} s self, {row['calls']} calls")
    else:
        m = res["measure"]
        values = {
            "setup_s": m["setup_s"],
            "ops_per_s": m["ops_per_s"],
            "op_p50_ms": m["op_p50_ms"],
            "op_p90_ms": m["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        best = f"of the {res['ops']} ops' best latencies over {m['passes']} passes"
        notes = {
            "setup_s": f"median over groups of {m['setup_group']} of each group's best; "
                       f"{len(m['setup_samples_s'])} fresh interpreters during the run",
            "ops_per_s": f"verified ops over the sum {best}",
            "op_p50_ms": f"median {best}",
            "op_p90_ms": f"p90 {best}",
            "peak_rss_mb": "peak RSS of the workload process",
        }
        lines.append(
            f"measured {m['measured_s']:.1f} s: {m['passes']} passes, {m['samples']} op samples"
        )
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    for name, entry in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name}: {entry['value']:.6g} {entry['unit']}{note}")
    lines.append(
        f"fail_ratio: {res['failed'] / res['attempted']:.4f} failed/attempted "
        f"({res['failed']}/{res['attempted']} measured op runs)"
    )
    probe = res["probe"]
    lines.append(
        f"known-defect probe (untimed, not in fail_ratio): {probe['failed']} of "
        f"{probe['ops']} ops failed, each in its recorded way"
    )
    for op_id, info in sorted(probe["known_defects"].items()):
        lines.append(f"  known defect {op_id}: {info['last']}; {info['cause']}")
    for problem in res["unexpected_failures"][:20]:
        lines.append(f"  UNEXPECTED {problem}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dpisat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op sizes, for the benchmark's own tests")
    parser.add_argument("--record", help="record file (default: .bench_out/BENCH_<...>.json)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "dpisat", "cli.py")):
        print(f"error: dpisat sources not found under {SRC}", file=sys.stderr)
        return 2

    label = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    record_path = args.record or os.path.join(OUT, f"BENCH_{label}.json")
    op_dir = os.path.join(OUT, f"ops_{label}_{os.getpid()}")
    os.makedirs(op_dir, exist_ok=True)
    env = child_env()
    try:
        res = run_worker(args, env, op_dir, os.path.join(op_dir, "result.json"), deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)

    metrics, lines = summarize(args, res)
    correct = not res["unexpected_failures"] and res["attempted"] > 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "metrics": metrics, "correct": correct,
        **{k: v for k, v in res.items() if k not in ("workload", "seed", "smoke")},
    }
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
