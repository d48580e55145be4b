"""Span tracer that wraps dpisat's public functions from outside the library.

The layers are the modules. In ``cli``, ``saturation``, ``divergences``,
``calculus`` and ``channels`` every public function is a span. The
``linalg`` layer is measured at ``numpy.linalg.eigh``, the library's only
eigensolver entry (reached through ``linalg._eigh``); linalg's operator
helpers (``hermitize``, ``as_matrix``, ``spectral_decompose``, ...) are not
spans, so their time counts toward the layer that calls them.

The library imports names directly (``from .channels import apply``), so a
function is wrapped at every module that binds it, not only where it is
defined. Spans are kept in memory and aggregated after the run;
:meth:`Tracer.restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

WRAPPED_LAYERS = ("cli", "saturation", "divergences", "calculus", "channels")
EIGH = "linalg.eigh"

# Report units: a build_report call in ``run``, one grid point in ``sweep``
# (dpi_gap, residual1 and residual2 called from the CLI).
_REPORT = "saturation.build_report"
_SWEEP_POINT = ("saturation.dpi_gap", "saturation.residual1", "saturation.residual2")


def _eigh_work(args, kwargs) -> int:
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


def _kraus_rank_of_channel(args, kwargs) -> int:
    return len((args[0] if args else kwargs["ch"]).kraus)


def _kraus_rank_of_list(args, kwargs) -> int:
    return len(args[0] if args else kwargs["kraus"])


_WORK = {
    EIGH: _eigh_work,
    "channels.apply": _kraus_rank_of_channel,
    "channels.adjoint_apply": _kraus_rank_of_channel,
    "channels.apply_raw": _kraus_rank_of_list,
}


def public_functions() -> dict:
    """``{span name: function}`` for every public function defined in the
    wrapped layer modules, plus ``numpy.linalg.eigh``."""
    targets = {EIGH: np.linalg.eigh}
    for layer in WRAPPED_LAYERS:
        mod = sys.modules[f"dpisat.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                targets[f"{layer}.{name}"] = obj
    return targets


def _binding_namespaces() -> list:
    mods = [m for name, m in sys.modules.items() if name == "dpisat" or name.startswith("dpisat.")]
    return mods + [np.linalg]


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``(name, start, end, parent index, op id, work)``; ``work`` is
    the Kraus rank of a channel call or ``n**3`` of an eigensolve, else 0.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work_of = _WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            work = work_of(args, kwargs) if work_of else 0
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, work)

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        for mod in _binding_namespaces():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def restore(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def clear(self):
        self.spans.clear()


def unpatched() -> bool:
    """True when no dpisat or numpy.linalg binding is a tracer wrapper."""
    originals = {id(fn) for fn in public_functions().values()}
    for mod in _binding_namespaces():
        for val in vars(mod).values():
            if callable(val) and hasattr(val, "__wrapped__") and id(val.__wrapped__) in originals:
                return False
    return True


def aggregate(spans: list, sweep_ops: frozenset = frozenset()) -> dict:
    """Per-function calls, self time and work, plus the per-report ratios.

    Self time is a span's duration minus the durations of its direct
    children. ``sweep_ops`` names the ops whose CLI-level dpi_gap/residual
    calls form one report per grid point.
    """
    count = len(spans)
    child_time = [0.0] * count
    for name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    per_op_eigh: dict = defaultdict(int)
    # in_report[i]: span i lies inside a report unit.
    in_report = [False] * count
    reports = eigh_in_reports = apply_in_reports = 0
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        row = by_name[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "channels.apply_raw" and parent_name == "channels.apply":
            work = 0  # already counted at channels.apply
        row["work"] += work
        unit = name == _REPORT or (
            op in sweep_ops and name in _SWEEP_POINT and parent_name == "cli.main"
        )
        if unit and name in (_REPORT, _SWEEP_POINT[0]):
            reports += 1
        in_report[i] = unit or (parent >= 0 and in_report[parent])
        if name == EIGH:
            per_op_eigh[op] += 1
            eigh_in_reports += in_report[i]
        elif name == "channels.apply":
            apply_in_reports += in_report[i]
    return {
        "functions": dict(by_name),
        "eigh_per_op": dict(per_op_eigh),
        "reports": reports,
        "eigh_in_reports": eigh_in_reports,
        "apply_in_reports": apply_in_reports,
    }
