"""Experiment orchestration: phase-transition sweeps, the dense-signal
lower-bound scatter, the measurement-ratio distribution test, persistence
and plot emission.

Persistence layout under ExperimentConfig.out_dir:

    config.json    frozen config snapshot (guards resumes against drift)
    records.jsonl  one TrialRecord per line, appended cell by cell
    summary.json   per-cell rates plus the config snapshot

Determinism: every random draw comes from a stream derived as
(base_seed, purpose, m, s, trial), so results do not depend on worker
count or scheduling. Records within a cell are written sorted by trial
index; wall times are measured but serialized as null unless
record_timings is set, keeping output files byte-identical across runs.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import random as qrandom
from .errors import IoFailure, QcsError
from .qlinalg import (QVector, _pair_product, _split_complex, best_s_sparse, lp_norm,
                      matvec)
from .solver import RecoveryProblem, SolverParams, solve

SCHEMA_VERSION = 1


def sweep_solver_params() -> SolverParams:
    """Solver profile used by experiments.

    Tighter than needed for the 1e-7 perfect-recovery threshold (support
    polish lands well below it once the iterate is accurate to ~1e-9),
    but capped at an iteration count that keeps failing cells cheap.
    """
    return SolverParams(max_iters=3000, tol_primal=1e-9, tol_dual=1e-9)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_int, v))


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# the type each ExperimentConfig field takes, by field name: a new field
# needs an entry here. numpy numbers pass; bools pass only as bool.
# SolverParams checks its own fields.
_CONFIG_TYPES = {
    "n": ("an integer", _is_int),
    "m_values": ("a list of integers", _is_int_list),
    "s_rule": ("\"1..m/2\" or a list of integers",
               lambda v: isinstance(v, str) or _is_int_list(v)),
    "trials": ("an integer", _is_int),
    "base_seed": ("an integer", _is_int),
    "scalar_mode": ("a string", lambda v: isinstance(v, str)),
    "perfect_threshold": ("a number", _is_real),
    "eta": ("a number", _is_real),
    "solver": ("a solver object", lambda v: isinstance(v, SolverParams)),
    "out_dir": ("a string", lambda v: isinstance(v, str)),
    "record_timings": ("true or false", lambda v: isinstance(v, bool)),
}


def _check_object(d, cls, where: str) -> None:
    """d must be a JSON object whose keys are field names of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 256
    m_values: tuple[int, ...] = (32,)
    s_rule: str | tuple[int, ...] = "1..m/2"
    trials: int = 1000
    base_seed: int = 0
    scalar_mode: str = "quaternion"
    perfect_threshold: float = 1e-7
    eta: float = 0.0
    solver: SolverParams = field(default_factory=sweep_solver_params)
    out_dir: str = "qcs_results"
    record_timings: bool = False

    def __post_init__(self):
        for f in fields(self):
            what, ok = _CONFIG_TYPES[f.name]
            if not ok(getattr(self, f.name)):
                raise ValueError(f"config key {f.name} must be {what}, "
                                 f"got {getattr(self, f.name)!r}")
        # plain ints, so that numpy integers serialize
        for name in ("n", "trials", "base_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        if isinstance(self.s_rule, (list, tuple)):
            object.__setattr__(self, "s_rule", tuple(int(s) for s in self.s_rule))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValueError(f"bad m_values {self.m_values}")
        if self.scalar_mode not in qrandom.GROUP_SIZES:
            raise ValueError(f"scalar_mode must be {'|'.join(qrandom.GROUP_SIZES)}, got "
                             f"{self.scalar_mode!r}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.perfect_threshold) and self.perfect_threshold > 0):
            raise ValueError(f"perfect_threshold must be finite and positive, "
                             f"got {self.perfect_threshold}")
        if isinstance(self.s_rule, str) and self.s_rule != "1..m/2":
            raise ValueError(f"unknown s_rule {self.s_rule!r}")
        if isinstance(self.s_rule, tuple) and any(s < 1 for s in self.s_rule):
            raise ValueError(f"bad sparsity list {self.s_rule}")
        if not 0 <= self.base_seed < 2 ** 64:
            raise ValueError(f"base_seed {self.base_seed} outside [0, 2^64)")
        # every trial's stream id must fit the layout qcs.random packs
        qrandom.derive_stream_id(0, max(self.m_values), 0, self.trials - 1)
        for m, s in self.cells():
            if s > self.n:
                raise ValueError(f"cell (m={m}, s={s}) has s > n = {self.n}")

    def s_values_for(self, m: int) -> list[int]:
        """Sparsities for one m; the protocol caps s at m/2."""
        if self.s_rule == "1..m/2":
            return list(range(1, m // 2 + 1))
        return [s for s in sorted(set(self.s_rule)) if s <= m // 2]

    def cells(self) -> list[tuple[int, int]]:
        return [(m, s) for m in sorted(set(self.m_values))
                for s in self.s_values_for(m)]

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["m_values"] = list(self.m_values)
        if isinstance(self.s_rule, tuple):
            d["s_rule"] = list(self.s_rule)
        d["solver"] = asdict(self.solver)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> ExperimentConfig:
        _check_object(d, cls, "config")
        d = dict(d)
        if "solver" in d:
            _check_object(d["solver"], SolverParams, "solver")
            try:
                d["solver"] = SolverParams(**d["solver"])
            except ValueError as e:
                raise ValueError(f"solver {e}") from None
        return cls(**d)


@dataclass(frozen=True)
class TrialRecord:
    m: int
    s: int
    trial_index: int
    seed: int
    err_l1: float
    err_l2: float
    perfect: bool
    status: str
    iterations: int
    wall_time: float | None

    def to_json_dict(self, record_timings: bool) -> dict:
        d = asdict(self)
        d["err_l1"] = self.err_l1 if math.isfinite(self.err_l1) else None
        d["err_l2"] = self.err_l2 if math.isfinite(self.err_l2) else None
        if not record_timings:
            d["wall_time"] = None
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> TrialRecord:
        d = dict(d)
        d["err_l1"] = math.inf if d["err_l1"] is None else d["err_l1"]
        d["err_l2"] = math.inf if d["err_l2"] is None else d["err_l2"]
        return cls(**d)


@dataclass(frozen=True)
class PhaseDiagram:
    rates: dict[tuple[int, int], float]
    counts: dict[tuple[int, int], int]
    config: dict

    def to_summary_dict(self) -> dict:
        cells = [{"m": m, "s": s, "trials": self.counts[(m, s)],
                  "rate": self.rates[(m, s)]}
                 for (m, s) in sorted(self.rates)]
        return {"schema_version": SCHEMA_VERSION, "kind": "sweep_summary",
                "config": self.config, "cells": cells}

    @classmethod
    def from_summary_dict(cls, d: dict) -> PhaseDiagram:
        rates = {(c["m"], c["s"]): c["rate"] for c in d["cells"]}
        counts = {(c["m"], c["s"]): c["trials"] for c in d["cells"]}
        return cls(rates=rates, counts=counts, config=d.get("config", {}))

    def to_csv(self, path) -> None:
        """Grid with one row per s, one column per m, rates as cells."""
        ms = sorted({m for m, _ in self.rates})
        ss = sorted({s for _, s in self.rates})
        with open(path, "w") as fh:
            fh.write("s\\m," + ",".join(str(m) for m in ms) + "\n")
            for s in ss:
                row = [f"{self.rates[(m, s)]:.6f}" if (m, s) in self.rates else ""
                       for m in ms]
                fh.write(f"{s}," + ",".join(row) + "\n")


def _sample_problem(config: ExperimentConfig, m: int, s: int, trial: int):
    group = qrandom.GROUP_SIZES[config.scalar_mode]
    seed = config.base_seed
    Phi = qrandom.sample_gaussian_matrix(
        qrandom.trial_stream(seed, qrandom.PURPOSE_MATRIX, m, s, trial),
        m, config.n, 1.0 / m, group)
    x, _ = qrandom.sample_sparse_signal(
        qrandom.trial_stream(seed, qrandom.PURPOSE_SIGNAL, m, s, trial),
        config.n, s, group)
    y = matvec(Phi, x)
    if config.eta > 0:
        noise_rng = qrandom.trial_stream(seed, qrandom.PURPOSE_NOISE, m, s, trial)
        y = y + qrandom.sample_sphere_noise(noise_rng, m, config.eta, group)
    return Phi, x, y


def run_single_trial(config: ExperimentConfig, m: int, s: int, trial: int) -> TrialRecord:
    t0 = time.perf_counter()
    try:
        Phi, x, y = _sample_problem(config, m, s, trial)
        result = solve(RecoveryProblem(Phi, y, config.eta), config.solver)
        err_l1 = lp_norm(result.x_hat - x, 1)
        err_l2 = lp_norm(result.x_hat - x, 2)
        status = result.status.value
        iterations = result.iterations
    except (QcsError, ValueError, np.linalg.LinAlgError) as exc:
        err_l1 = err_l2 = math.inf
        status = f"error:{type(exc).__name__}"
        iterations = 0
    return TrialRecord(m=m, s=s, trial_index=trial, seed=config.base_seed,
                       err_l1=err_l1, err_l2=err_l2,
                       perfect=err_l2 <= config.perfect_threshold,
                       status=status, iterations=iterations,
                       wall_time=time.perf_counter() - t0)


def worker_count() -> int:
    """QCS_WORKERS environment variable, a positive integer; default 1 (serial)."""
    raw = os.environ.get("QCS_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"QCS_WORKERS must be a positive integer, got {raw!r}")
    return workers


def run_sweep(config: ExperimentConfig, verbose: bool = False) -> PhaseDiagram:
    """All (m, s) cells of the config, trial-level resumable.

    Completed trials found in records.jsonl are skipped, so an
    interrupted sweep resumed with the same config lands on the same
    PhaseDiagram, and the same file bytes, as an uninterrupted one.
    """
    workers = worker_count()
    # cells() drops s > m/2, which c0 does run, so the sweep refuses it here
    cells = config.cells()
    listed = config.s_rule if isinstance(config.s_rule, tuple) else ()
    unrun = sorted(set(listed) - {s for _, s in cells})
    if unrun or not cells:
        raise ValueError(f"the sweep runs no cell for s = {unrun or config.s_rule} "
                         f"at m = {list(config.m_values)}: s must be <= m/2")
    os.makedirs(config.out_dir, exist_ok=True)
    config_path = os.path.join(config.out_dir, "config.json")
    snapshot = config.to_json_dict()
    if os.path.exists(config_path):
        with open(config_path) as fh:
            existing = json.load(fh)
        # out_dir names the directory config.json sits in, so any spelling
        # of it (results, results/, ./results) is the same sweep; the stored
        # spelling is kept so summary.json still echoes config.json
        if {**existing, "out_dir": None} != {**snapshot, "out_dir": None}:
            raise ValueError(
                f"{config_path} holds a different config; refusing to mix sweeps")
        snapshot = existing
    else:
        with open(config_path, "w") as fh:
            json.dump(snapshot, fh, sort_keys=True, indent=1)

    records_path = os.path.join(config.out_dir, "records.jsonl")
    done: dict[tuple[int, int, int], TrialRecord] = {}
    if os.path.exists(records_path):
        with open(records_path, "rb+") as fh:
            raw = fh.read()
            end = raw.rfind(b"\n") + 1
            if end < len(raw):
                # a crash mid-write left a torn last record: drop it, so the
                # trial reruns and the next append starts on a fresh line
                fh.truncate(end)
        for line in raw[:end].decode().splitlines():
            if line.strip():
                rec = TrialRecord.from_json_dict(json.loads(line))
                done[(rec.m, rec.s, rec.trial_index)] = rec

    pool = None
    starmap = itertools.starmap
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
        starmap = pool.starmap
    rates: dict[tuple[int, int], float] = {}
    try:
        with open(records_path, "a") as sink:
            for m, s in cells:
                pending = [(config, m, s, t) for t in range(config.trials)
                           if (m, s, t) not in done]
                # starmap keeps the order of pending, which is by trial index
                for rec in starmap(run_single_trial, pending):
                    sink.write(json.dumps(rec.to_json_dict(config.record_timings),
                                          sort_keys=True) + "\n")
                    done[(m, s, rec.trial_index)] = rec
                sink.flush()
                perfect = sum(done[(m, s, t)].perfect for t in range(config.trials))
                rate = rates[(m, s)] = perfect / config.trials
                if verbose:
                    print(f"m={m:3d} s={s:3d} rate={rate:.3f} ({config.trials} trials)")
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    diagram = PhaseDiagram(rates=rates, counts=dict.fromkeys(rates, config.trials),
                           config=snapshot)
    with open(os.path.join(config.out_dir, "summary.json"), "w") as fh:
        json.dump(diagram.to_summary_dict(), fh, sort_keys=True, indent=1)
    return diagram


# ---------------------------------------------------------------------------
# Lower-bound scatter for the l1 error constant.

@dataclass(frozen=True)
class ScatterData:
    """(s, lower bound) points pooled over all dense test vectors."""

    points: tuple[tuple[int, float], ...]
    skipped: int
    config: dict

    def max_per_s(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for s, v in self.points:
            out[s] = max(out.get(s, 0.0), v)
        return out


def _c0_point(x: QVector, x_hat: QVector, s: int) -> float | None:
    denom = lp_norm(x - best_s_sparse(x, s), 1)
    if denom < 1e-12:
        return None
    return lp_norm(x_hat - x, 1) / denom


def run_c0_experiment(config: ExperimentConfig, verbose: bool = False) -> ScatterData:
    """Dense Gaussian vectors (sigma2 = 1, no sparsity) measured by one
    fixed m x n matrix; each solve yields a lower bound on the l1 error
    constant per s via ||x# - x||_1 / ||x - x_s||_1, for s in a
    config.s_rule list, else 1..min(2m, n)."""
    # noiseless quaternion solves with no verdicts or timings: a config that
    # moves these settings asks for what c0 does not do
    for name in ("scalar_mode", "eta", "perfect_threshold", "record_timings"):
        default = getattr(ExperimentConfig, name)
        if getattr(config, name) != default:
            raise ValueError(f"c0 does not read {name}, so it must stay {default!r}; "
                             f"got {getattr(config, name)!r}")
    if len(set(config.m_values)) != 1:
        raise ValueError(f"c0 uses one m, got m_values {list(config.m_values)}")
    m = config.m_values[0]
    if isinstance(config.s_rule, tuple):
        s_values = list(config.s_rule)
        if any(s > config.n for s in s_values):
            raise ValueError(f"s values must lie in [1, {config.n}]")
    else:
        s_values = list(range(1, min(2 * m, config.n) + 1))
    mat_rng = qrandom.trial_stream(config.base_seed, qrandom.PURPOSE_MATRIX, m, 0, 0)
    Phi = qrandom.sample_gaussian_matrix(mat_rng, m, config.n, 1.0 / m)

    points: list[tuple[int, float]] = []
    skipped = 0
    for trial in range(config.trials):
        sig_rng = qrandom.trial_stream(config.base_seed, qrandom.PURPOSE_DENSE,
                                       m, 0, trial)
        x = qrandom.sample_dense_signal(sig_rng, config.n, 1.0)
        result = solve(RecoveryProblem(Phi, matvec(Phi, x), 0.0), config.solver)
        bounds = [(s, _c0_point(x, result.x_hat, s)) for s in s_values]
        points += [(s, v) for s, v in bounds if v is not None]
        skipped += sum(v is None for _, v in bounds)
        if verbose:
            print(f"dense trial {trial + 1}/{config.trials}: "
                  f"status={result.status.value} iters={result.iterations}")

    data = ScatterData(points=tuple(points), skipped=skipped,
                       config=config.to_json_dict())
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "c0_scatter.jsonl"), "w") as fh:
        for s, v in points:
            fh.write(json.dumps({"s": s, "c0_lower_bound": v}) + "\n")
    summary = {"schema_version": SCHEMA_VERSION, "kind": "c0_summary",
               "config": data.config, "skipped": skipped,
               "max_per_s": {str(s): v for s, v in sorted(data.max_per_s().items())}}
    with open(os.path.join(config.out_dir, "c0_summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return data


# ---------------------------------------------------------------------------
# Measurement-ratio statistic.

# signal length of the ratio test; the law does not depend on it
_RATIO_N = 8


def run_ratio_test(m: int, samples: int, base_seed: int = 0,
                   mode: str = "quaternion") -> dict:
    """Empirical law of ||Phi x||^2 / ||x||^2 for a fixed unit x of length 8
    and fresh m x 8 Gaussian matrices, against its Gamma reference.

    x and Phi (entry variance 1/m) are drawn in the mode's field by the
    qcs.random rule, each of an entry's g real components carrying 1/g of
    its variance, so the law is Gamma(g*m/2, rate g*m/2) with variance
    2/(g*m): four times larger for R (g = 1) than for H (g = 4).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    if mode not in qrandom.GROUP_SIZES:
        raise ValueError(f"mode must be {'|'.join(qrandom.GROUP_SIZES)}, got {mode!r}")
    # scipy.stats takes most of a second to import and only the KS
    # distance below uses it
    from scipy import stats

    group = qrandom.GROUP_SIZES[mode]
    x_rng = qrandom.trial_stream(base_seed, qrandom.PURPOSE_RATIO, m, 0, 0)
    phi_rng = qrandom.trial_stream(base_seed, qrandom.PURPOSE_RATIO, m, 0, 1)
    x = qrandom.sample_dense_signal(x_rng, _RATIO_N, 1.0, group)
    x = x.data[:, :group] / lp_norm(x, 2)  # the g field components of a unit x

    def chunk(C: int) -> np.ndarray:
        P = qrandom.field_normals(phi_rng, (C, m, _RATIO_N), 1.0 / m, group)
        if group == 1:
            # a real product; the pair product moves it in the last digits
            return np.sum((P[..., 0] @ x[:, 0]) ** 2, axis=1)
        Y1, Y2 = _pair_product(*_split_complex(P), *_split_complex(x))
        return np.sum(np.abs(Y1) ** 2 + np.abs(Y2) ** 2, axis=1)
    vals = np.concatenate([chunk(min(samples - done, 4096))
                           for done in range(0, samples, 4096)])

    rate = group * m / 2
    ks = stats.kstest(vals, stats.gamma(a=rate, scale=1.0 / rate).cdf).statistic
    return {"m": m, "samples": samples, "mode": mode,
            "mean": float(np.mean(vals)),
            "variance": float(np.var(vals, ddof=1)),
            "ks_distance_to_gamma": float(ks)}


# ---------------------------------------------------------------------------
# Deterministic SVG plots.

_FONT = 'font-family="monospace" font-size="11"'


def _svg_text(x: float, y: float, s: str, anchor: str = "middle") -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'{_FONT}>{s}</text>')


def render_heatmap(diagram: PhaseDiagram) -> str:
    """Grayscale grid, brighter = higher perfect-recovery rate."""
    ms = sorted({m for m, _ in diagram.rates})
    ss = sorted({s for _, s in diagram.rates})
    cell = 14
    left, top, right, bottom = 60, 20, 20, 50
    W = left + cell * len(ms) + right
    H = top + cell * len(ss) + bottom
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>']
    for (m, s), rate in sorted(diagram.rates.items()):
        xi = ms.index(m)
        yi = ss.index(s)
        x = left + xi * cell
        y = top + (len(ss) - 1 - yi) * cell
        v = round(255 * min(max(rate, 0.0), 1.0))
        parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                     f'fill="#{v:02x}{v:02x}{v:02x}"/>')
    step_m = max(1, len(ms) // 8)
    for xi in range(0, len(ms), step_m):
        x = left + xi * cell + cell / 2
        parts.append(_svg_text(x, top + cell * len(ss) + 16, str(ms[xi])))
    step_s = max(1, len(ss) // 8)
    for yi in range(0, len(ss), step_s):
        y = top + (len(ss) - 1 - yi) * cell + cell / 2 + 4
        parts.append(_svg_text(left - 8, y, str(ss[yi]), anchor="end"))
    parts.append(_svg_text(left + cell * len(ms) / 2, H - 12, "m"))
    parts.append(_svg_text(16, top + cell * len(ss) / 2, "s"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_scatter(points, xlabel: str = "s",
                   ylabel: str = "C0 lower bound") -> str:
    pts = sorted((int(s), float(v)) for s, v in points)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    left, top, right, bottom = 70, 20, 20, 50
    W, H = 520, 360
    x_lo, x_hi = min(xs) - 0.5, max(xs) + 0.5
    y_lo, y_hi = 0.0, max(ys) * 1.05 if max(ys) > 0 else 1.0

    def tx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (W - left - right)

    def ty(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * (H - top - bottom)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<rect x="{left}" y="{top}" width="{W - left - right}" '
             f'height="{H - top - bottom}" fill="none" stroke="#444"/>']
    for i in range(5):
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(_svg_text(left - 6, ty(yv) + 4, f"{yv:.3g}", anchor="end"))
    xticks = sorted(set(xs))
    step = max(1, len(xticks) // 8)
    for xv in xticks[::step]:
        parts.append(_svg_text(tx(xv), H - bottom + 16, str(xv)))
    for s, v in pts:
        parts.append(f'<circle cx="{tx(s):.2f}" cy="{ty(v):.2f}" r="2.5" '
                     f'fill="#335577" fill-opacity="0.6"/>')
    parts.append(_svg_text((left + W - right) / 2, H - 12, xlabel))
    parts.append(_svg_text(18, (top + H - bottom) / 2, ylabel))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(data, path) -> None:
    """PhaseDiagram -> heatmap; ScatterData or (s, value) pairs -> scatter."""
    if isinstance(data, PhaseDiagram):
        if not data.rates:
            raise IoFailure("empty diagram: nothing to plot")
        content = render_heatmap(data)
    elif isinstance(data, ScatterData):
        if not data.points:
            raise IoFailure("empty scatter: nothing to plot")
        content = render_scatter(data.points)
    else:
        points = list(data)
        if not points:
            raise IoFailure("empty scatter: nothing to plot")
        content = render_scatter(points)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
