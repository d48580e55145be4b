"""One workload in one fresh process: generate, warm up, measure, check.

Started by ``run_bench.py`` with the BLAS thread count pinned to 1. Ops call
the public CLI entry point ``dpisat.cli.main`` in-process, one at a time (a
closed loop with one client). Ops that a known defect covers
(``checks.KNOWN_DEFECTS``) are run once, untimed, as a probe; the measured
ops are the rest. Writes a JSON result for the launcher and a record of
every op's report numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracer as tracing
import workloads

CALIB_DIM = 32
CALIB_LOOPS = 40
CALIB_REPEATS = 7
# Seconds between set-up samples during a measured run, and the number of
# consecutive samples whose best one counts as one set-up reading.
SETUP_EVERY_S = 2.0
SETUP_GROUP = 3


def host_calibration_ms() -> float:
    """Median time of a fixed numpy-only loop (eigh and matmul at n = 32)."""
    g = np.random.Generator(np.random.PCG64(12345))
    x = g.normal(size=(CALIB_DIM, CALIB_DIM)) + 1j * g.normal(size=(CALIB_DIM, CALIB_DIM))
    a = x + x.conj().T
    samples = []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        for _ in range(CALIB_LOOPS):
            w, v = np.linalg.eigh(a)
            a_back = (v * w) @ v.conj().T
        samples.append((time.perf_counter() - start) * 1e3)
        if not np.allclose(a_back, a):
            raise RuntimeError("calibration loop lost accuracy")
    return statistics.median(samples)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Materializes a workload's ops and runs them through the CLI."""

    def __init__(self, ops: list, out_dir: str):
        import dpisat.cli

        # Looked up at every call, so a traced pass goes through the wrapper.
        self.cli = dpisat.cli
        self.ops = ops
        self.argv = []
        self.outputs = []
        os.makedirs(out_dir, exist_ok=True)
        for i, op in enumerate(ops):
            if op["kind"] == "run":
                path = os.path.join(out_dir, f"{i}.scenario.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op["scenario"], fh)
                # Each op writes its single report into a directory of its own.
                report_dir = os.path.join(out_dir, f"{i}.reports")
                os.mkdir(report_dir)
                self.argv.append(["run", path, "--out", report_dir])
                self.outputs.append(report_dir)
            else:
                path = os.path.join(out_dir, f"{i}.csv")
                self.argv.append(op["argv"] + ["--out", path])
                self.outputs.append(path)
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}

    def run_op(self, i: int):
        """Run op i once; return (seconds, output or None, passed its check)."""
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(self.argv[i])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - any raise is a failed op
            elapsed = time.perf_counter() - start
            return elapsed, None, self._record(i, f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        op = self.ops[i]
        try:
            if op["kind"] == "run":
                output = checks.take_run_report(self.outputs[i])
            else:
                output = checks.read_sweep_rows(self.outputs[i])
                os.unlink(self.outputs[i])
        except (OSError, ValueError, KeyError) as exc:
            return elapsed, None, self._record(i, f"unreadable output: {exc}")
        return elapsed, output, self._record(i, checks.check_op(op, rc, output), output)

    def _record(self, i: int, problem, output=None) -> bool:
        """Count one attempt of op i; True when it passed its check."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        op_id = self.ops[i]["id"]
        cause = checks.known_defect(op_id, output)
        if cause is None:
            self.unexpected.append(f"{op_id}: {problem}")
        else:
            entry = self.known.setdefault(op_id, {"cause": cause, "count": 0, "last": ""})
            entry["count"] += 1
            entry["last"] = problem
        return False


def nearest_rank(samples: list, q: float) -> float:
    """The q-quantile of ``samples`` by the nearest-rank rule."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def setup_seconds(src: str) -> float:
    """Seconds from spawning a fresh interpreter until ``import dpisat.cli``
    completes. The interpreter inherits this process's environment."""
    code = "import time, dpisat.cli as c; print(time.monotonic(), c.__file__)"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
    )
    done, path = proc.stdout.split(maxsplit=1)
    expected = os.path.join(src, "dpisat", "cli.py")
    if os.path.abspath(path.strip()) != expected:
        raise RuntimeError(f"fresh interpreter imported {path.strip()}, expected {expected}")
    return float(done) - start


def _time_for_another(start: float, seconds: float, last_pass: list) -> bool:
    """Whether to start another pass: the run stops at the pass boundary
    nearest to ``seconds``, so it overshoots by about half a pass at most."""
    return time.perf_counter() - start + sum(last_pass) / 2 < seconds


def measure(runner: Runner, seconds: float, src: str) -> dict:
    """Closed loop: whole passes over the op list until ``seconds`` elapse,
    with a set-up sample (a fresh interpreter importing the CLI) between ops
    every SETUP_EVERY_S seconds, so that set-up sees the same host as the ops.

    The shared host switches, for seconds at a time, between a fast state
    and one about 1.9 times slower, and the share of each changes from run
    to run. Means and pooled quantiles follow that share. So each op is
    timed at its best latency over the run's passes, the latency that the
    program itself sets, and throughput and the latency percentiles are
    taken over those per-op bests. Set-up is the median over groups of
    SETUP_GROUP consecutive samples of each group's best.
    """
    passes, passed, setup = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    setup_seconds(src)  # warms the file cache
    start, last_setup = time.perf_counter(), -math.inf
    while not passes or _time_for_another(start, seconds, passes[-1]):
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        latencies, ok = [], 0
        for i in range(len(runner.ops)):
            elapsed, _, good = runner.run_op(i)
            latencies.append(elapsed)
            ok += good
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup.append(setup_seconds(src))
                last_setup = time.perf_counter()
        passes.append(latencies)
        passed.append(ok)
    os.sched_setaffinity(0, cpus)
    return {
        **timing_metrics(passes, passed, setup),
        "samples": len(passes) * len(runner.ops),
        "passes": len(passes),
        "passed_per_pass": passed,
        "setup_samples_s": setup,
        "pass_latencies_ms": [[round(t * 1e3, 4) for t in p] for p in passes],
        "measured_s": time.perf_counter() - start,
    }


def timing_metrics(passes: list, passed: list, setup: list) -> dict:
    """End-to-end timings from per-pass op latencies (s), the ops that
    passed their check in each pass, and set-up samples (s)."""
    best = [min(column) for column in zip(*passes)]
    groups = [setup[i:i + SETUP_GROUP] for i in range(0, len(setup), SETUP_GROUP)]
    return {
        "ops_per_s": sum(passed) / (len(passes) * sum(best)),
        "op_p50_ms": nearest_rank(best, 0.5) * 1e3,
        "op_p90_ms": nearest_rank(best, 0.9) * 1e3,
        "best_ms": [round(t * 1e3, 4) for t in best],
        "setup_s": statistics.median(min(g) for g in groups),
        "setup_group": SETUP_GROUP,
    }


def trace_run(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes, each pair on the next CPU as in
    ``measure``; per-layer numbers come from the traced passes, and the
    overhead ratio compares the summed best op latencies of both kinds."""
    sweep_ops = frozenset(op["id"] for op in runner.ops if op["kind"] == "sweep")
    tracer = tracing.Tracer()
    plain, traced, tables = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while not plain or _time_for_another(start, seconds, [sum(plain[-1]), sum(traced[-1])]):
        os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
        plain.append([runner.run_op(i)[0] for i in range(len(runner.ops))])
        tracer.clear()
        latencies = []
        with tracer:
            for i, op in enumerate(runner.ops):
                tracer.op = op["id"]
                latencies.append(runner.run_op(i)[0])
        traced.append(latencies)
        if not tracing.unpatched():
            raise RuntimeError("tracer left a wrapped binding behind")
        tables.append(tracing.aggregate(tracer.spans, sweep_ops))
    os.sched_setaffinity(0, cpus)
    counts = [_counts(t) for t in tables]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("traced passes disagree on call counts")
    missing = [op["id"] for op in runner.ops if tables[0]["eigh_per_op"].get(op["id"], 0) == 0]
    if missing:
        raise RuntimeError(f"ops with zero linalg.eigh calls (missed binding?): {missing}")
    return {
        "metrics": _layer_metrics(tables),
        "overhead_ratio": sum(map(min, zip(*traced))) / sum(map(min, zip(*plain))),
        "passes": len(traced),
        "functions": _function_table(tables),
    }


def _counts(table: dict) -> dict:
    return {
        "functions": {k: (v["calls"], v["work"]) for k, v in table["functions"].items()},
        "reports": (table["reports"], table["eigh_in_reports"], table["apply_in_reports"]),
    }


def _function_table(tables: list) -> dict:
    """Calls and work of one traced pass, self time as the median over passes."""
    out = {}
    for name, row in sorted(tables[0]["functions"].items()):
        out[name] = {
            "calls": row["calls"],
            "work": row["work"],
            "self_s": statistics.median(t["functions"][name]["self_s"] for t in tables),
        }
    return out


def _layer_metrics(tables: list) -> dict:
    def fn(table, name, key):
        row = table["functions"].get(name)
        return row[key] if row else 0

    def layer_self(table, layer):
        return sum(v["self_s"] for k, v in table["functions"].items() if k.split(".")[0] == layer)

    def med(f):
        return statistics.median(f(t) for t in tables)

    first = tables[0]
    reports = first["reports"]
    return {
        "linalg.eigh_calls": fn(first, "linalg.eigh", "calls"),
        "linalg.eigh_self_s": med(lambda t: fn(t, "linalg.eigh", "self_s")),
        "linalg.eigh_n3": fn(first, "linalg.eigh", "work"),
        "calculus.frechet_calls": fn(first, "calculus.frechet_derivative", "calls"),
        "calculus.frechet_self_s": med(lambda t: fn(t, "calculus.frechet_derivative", "self_s")),
        "calculus.numeric_gradient_calls": fn(first, "calculus.numeric_gradient", "calls"),
        "calculus.self_s": med(lambda t: layer_self(t, "calculus")),
        "channels.apply_calls": fn(first, "channels.apply", "calls"),
        "channels.adjoint_calls": fn(first, "channels.adjoint_apply", "calls"),
        "channels.kraus_products": sum(
            fn(first, name, "work")
            for name in ("channels.apply", "channels.adjoint_apply", "channels.apply_raw")
        ),
        "channels.self_s": med(lambda t: layer_self(t, "channels")),
        "divergences.evaluate_calls": fn(first, "divergences.evaluate", "calls"),
        "divergences.grad1_calls": fn(first, "divergences.grad1", "calls"),
        "divergences.grad2_calls": fn(first, "divergences.grad2", "calls"),
        "divergences.self_s": med(lambda t: layer_self(t, "divergences")),
        "saturation.build_report_calls": fn(first, "saturation.build_report", "calls"),
        "saturation.reports": reports,
        "saturation.eigh_per_report": first["eigh_in_reports"] / reports if reports else 0.0,
        "saturation.apply_per_report": first["apply_in_reports"] / reports if reports else 0.0,
        "saturation.self_s": med(lambda t: layer_self(t, "saturation")),
        "cli.self_s": med(lambda t: layer_self(t, "cli")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True, help="directory holding the dpisat package")
    parser.add_argument("--out-dir", required=True, help="scratch directory for op files")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import dpisat.cli

    expected = os.path.join(os.path.abspath(args.src), "dpisat")
    if os.path.dirname(os.path.abspath(dpisat.cli.__file__)) != expected:
        raise RuntimeError(f"imported dpisat from {dpisat.cli.__file__}, expected {expected}")

    meta = run_metadata()
    calib_start = host_calibration_ms()
    ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
    covered = [checks.covered_by_known_defect(op["id"]) for op in ops]
    runner = Runner([op for op, c in zip(ops, covered) if not c],
                    os.path.join(args.out_dir, "measured"))
    probe = Runner([op for op, c in zip(ops, covered) if c], os.path.join(args.out_dir, "probe"))

    # The probe runs each known-defect op once; the warm-up pass fills caches.
    # Both record each op's report numbers.
    records = {}
    for r in (probe, runner):
        for i, op in enumerate(r.ops):
            _, output, _ = r.run_op(i)
            if output is not None:
                records[op["id"]] = checks.report_numbers(op, output)

    result = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "meta": meta}
    if args.trace:
        result["trace"] = trace_run(runner, args.seconds)
    else:
        result["measure"] = measure(runner, args.seconds, os.path.abspath(args.src))
    calib_end = host_calibration_ms()
    result.update({
        "ops": len(runner.ops),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "unexpected_failures": probe.unexpected + runner.unexpected,
        "probe": {"ops": len(probe.ops), "failed": probe.failed, "known_defects": probe.known},
        "host_calib_ms": {"start": calib_start, "end": calib_end},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
