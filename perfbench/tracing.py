"""Spans recorded around qcs entry points, from outside the package.

The traced run replaces module-level names that the qcs call path looks
up at call time (``qcs.harness.solve``, ``qcs.solver.admm_step``, ...)
with wrappers that record one span per call: name, start, end and the
span that was open when the call began. Names are resolved when the
wrappers are installed, so a name that no longer exists is reported as
absent instead of failing the run.

Spans live in flat arrays while the run is going and are reduced to
per-name totals and self times (duration minus the time covered by
direct children) afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute path). Which layer a span belongs to is
# the part of its name before the first dot.
TRACE_POINTS = (
    ("harness.run_sweep", "qcs.harness", "run_sweep"),
    ("harness.trial", "qcs.harness", "run_single_trial"),
    ("random.trial_stream", "qcs.random", "trial_stream"),
    ("random.matrix", "qcs.random", "sample_gaussian_matrix"),
    ("random.real_matrix", "qcs.random", "sample_real_gaussian_matrix"),
    ("random.signal", "qcs.random", "sample_sparse_signal"),
    ("random.real_signal", "qcs.random", "sample_real_sparse_signal"),
    ("random.noise", "qcs.random", "sample_sphere_noise"),
    ("qlinalg.matvec", "qcs.harness", "matvec"),
    ("qlinalg.lp_norm", "qcs.harness", "lp_norm"),
    ("solver.solve", "qcs.harness", "solve"),
    ("embedding.build", "qcs.solver", "build_embedding"),
    ("solver.factor", "qcs.solver", "GraphProjector.__init__"),
    ("solver.project", "qcs.solver", "GraphProjector.project"),
    ("solver.admm_step", "qcs.solver", "admm_step"),
    ("solver.shrink", "qcs.solver", "block_soft_threshold"),
    ("solver.residuals", "qcs.solver", "residuals"),
    ("solver.residual_scales", "qcs.solver", "residual_scales"),
    ("solver.polish", "qcs.solver", "_polish_candidate"),
    ("solver.gap", "qcs.solver", "_least_squares_gap"),
    ("rip.exact", "qcs.rip", "exact_delta"),
    ("rip.sampled", "qcs.rip", "sampled_delta_lower_bound"),
    ("rip.ip", "qcs.rip", "check_rip_ip"),
    ("qlinalg.complex_adjoint", "qcs.rip", "complex_adjoint"),
    ("rip.ratio", "qcs.harness", "run_ratio_test"),
)


def array_bytes(obj) -> int:
    """Sum of nbytes over the arrays held by obj, directly or in fields."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    return 0


def _resolve(module: str, path: str):
    """(owner, attribute, current value), or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Installs the wrappers, records spans and counters, removes them."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, list] = {}
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, value) -> None:
        self.counters.setdefault(key, []).append(value)

    def _wrap(self, fn, name_id: int, on_result):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, on_result=None) -> None:
        """Wrap every trace point; on_result maps span name -> callback
        that receives the wrapped call's return value."""
        on_result = on_result or {}
        for name, module, path in TRACE_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            self.names.append(name)
            setattr(owner, attr, self._wrap(fn, len(self.names) - 1,
                                             on_result.get(name)))
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        out = {}
        for k, name in enumerate(self.names):
            sel = ids == k
            out[name] = {"calls": int(sel.sum()), "total": float(dur[sel].sum()),
                         "self": float(self_time[sel].sum())}
        return out


def layer_metrics(summary: dict, counters: dict, absent: list[str],
                  rip_rounds: int) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics from a traced pass: name -> (value, unit).

    Sweep metrics are per trial, per solve or per ADMM iteration; rip
    metrics are per round of rip-diagnostics (rip_rounds, 0 on a sweep).
    The value is None when every span it is built from is absent, and 0
    when the spans exist but the workload never entered them.
    """

    def total(*names, key="total"):
        present = [summary[n] for n in names if n in summary]
        return sum(p[key] for p in present) if present else None

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def per(value, count, scale=1.0):
        if value is None:
            return None
        return value * scale / count if count else 0.0

    def counted(key, span):
        return float(sum(counters.get(key, []))) if span in summary else None

    trials = calls("harness.trial")
    solves = calls("solver.solve")
    iterations = counters.get("iterations", [])
    iters = sum(iterations)
    polish = counters.get("polish_accepted", [])
    trial_total = total("harness.trial")
    loop = total("solver.solve")
    if loop is not None:
        loop -= total("embedding.build", "solver.factor", "solver.polish", "solver.gap") or 0.0
    random_spans = [name for name, _, _ in TRACE_POINTS if name.startswith("random.")]
    ordered = sorted(iterations) or [0]
    if "solver.solve" not in summary:
        ordered = [None]
    return {
        "harness.trial_ms": (per(trial_total, trials, 1e3), "ms"),
        "harness.overhead_ms_per_trial":
            (per(total("harness.run_sweep", key="self"), trials, 1e3), "ms"),
        "harness.records_bytes":
            (per(counted("records_bytes", "harness.run_sweep"), trials), "bytes"),
        "random.sample_ms": (per(total(*random_spans), trials, 1e3), "ms"),
        "qlinalg.matvec_ms": (per(total("qlinalg.matvec"), trials, 1e3), "ms"),
        "qlinalg.lp_norm_ms": (per(total("qlinalg.lp_norm"), trials, 1e3), "ms"),
        "qlinalg.complex_adjoint_ms":
            (per(total("qlinalg.complex_adjoint"), rip_rounds, 1e3), "ms"),
        "embedding.build_ms": (per(total("embedding.build"), solves, 1e3), "ms"),
        "embedding.bytes_built": (per(counted("bytes_built", "embedding.build"), solves), "bytes"),
        "solver.factor_ms": (per(total("solver.factor"), solves, 1e3), "ms"),
        "solver.iterations_p50": (ordered[(len(ordered) - 1) // 2], "count"),
        "solver.iterations_max": (ordered[-1], "count"),
        "solver.iter_us": (per(loop, iters, 1e6), "us"),
        "solver.prox_us": (per(total("solver.admm_step", key="self"), iters, 1e6), "us"),
        "solver.shrink_us": (per(total("solver.shrink"), iters, 1e6), "us"),
        "solver.project_us": (per(total("solver.project"), iters, 1e6), "us"),
        "solver.check_us":
            (per(total("solver.residuals", "solver.residual_scales"), iters, 1e6), "us"),
        "solver.loop_other_us": (per(total("solver.solve", key="self"), iters, 1e6), "us"),
        "solver.polish_ms": (per(total("solver.polish"), solves, 1e3), "ms"),
        "solver.polish_accept_frac":
            (per(counted("polish_accepted", "solver.polish"), len(polish)), "ratio"),
        "solver.gap_ms": (per(total("solver.gap"), calls("solver.gap"), 1e3), "ms"),
        "rip.exact_s": (per(total("rip.exact"), rip_rounds), "s"),
        "rip.supports_examined":
            (per(counted("supports", "rip.exact"), rip_rounds), "count"),
        "rip.sampled_s": (per(total("rip.sampled"), rip_rounds), "s"),
        "rip.ip_s": (per(total("rip.ip", key="self"), rip_rounds), "s"),
        "rip.ratio_s": (per(total("rip.ratio"), rip_rounds), "s"),
        "trace.uncovered_frac": (per(total("harness.trial", key="self"), trial_total or 0.0),
                                 "ratio"),
        "trace.absent_names": (float(len(absent)), "count"),
    }
