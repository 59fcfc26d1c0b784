"""The benchmark's workloads: three phase-transition sweeps through
``qcs.harness.run_sweep`` and one RIP-diagnostics workload through
``qcs.rip`` and ``qcs.harness.run_ratio_test``. Why each one exists is
written down in README.md beside this file.

A run is a list of rounds. A round of a sweep workload is one
``run_sweep`` per (m, s) cell with one trial, into a fresh output
directory, under base seed ``round_seed(seed, r)``. ``ExperimentConfig``
sweeps the m x s product and the cell lists are not products, so each
cell gets its own config; one trial per call makes the call's wall time
the trial's time. A round of rip-diagnostics is one pass over the
four diagnostics on freshly sampled matrices. Every round checks its own
outputs; the checks and the trials are the operations that
``attempted``/``failed`` count.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from qcs import harness, rip
from qcs import random as qrandom

N = 256
MAX_SEED = 2 ** 40

# rip-diagnostics sizes. exact_delta on an 8 x 24 matrix at s = 3
# enumerates C(24, 3) = 2024 supports; check_rip_ip at (1, 2) runs the same
# enumeration for delta_3 internally.
RIP_SMALL = (8, 24, 3)
RIP_LARGE = (32, 256, (4, 16))
RIP_SAMPLES_SMALL = 4000
RIP_SAMPLES_IP = 4000
RIP_SAMPLES_LARGE = 4000
RATIO_M = 16
RATIO_SAMPLES = 10_000
# The ratio-test mean estimates E = 1 with standard deviation
# sqrt(1 / (2 m samples)) (Gamma(2m, 2m) law); allow six of them.
RATIO_MEAN_TOL = 6.0 * (1.0 / (2 * RATIO_M * RATIO_SAMPLES)) ** 0.5
# Slack for comparing the sampled lower bound with the enumerated delta,
# which come from different floating-point paths.
DELTA_SLACK = 1e-10
IP_LIMIT = 1.0 + 1e-9


@dataclass(frozen=True)
class Sweep:
    name: str
    mode: str
    cells: tuple[tuple[int, int], ...]  # (m, s)
    round_s: float                      # seconds per round, used to size runs


@dataclass(frozen=True)
class RipDiagnostics:
    name: str
    round_s: float


# round_s: measured per-round wall time on a 2-core x86-64 VM with one
# BLAS thread. It only decides how many distinct rounds a run holds.
WORKLOADS = {
    "sweep-lowm": Sweep("sweep-lowm", "quaternion", ((4, 1), (8, 1), (8, 2)), 0.85),
    "sweep-transition": Sweep("sweep-transition", "quaternion",
                              ((32, 9), (32, 16), (64, 20), (64, 32)), 1.15),
    "sweep-real": Sweep("sweep-real", "real", ((32, 4), (32, 12)), 2.2),
    "rip-diagnostics": RipDiagnostics("rip-diagnostics", 0.36),
}


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_000 + r


def rounds_for(workload, budget_s: float) -> int:
    return max(1, round(budget_s / workload.round_s))


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Log:
    """What one pass over a list of rounds produced."""

    # (round, m, s) of a trial, or (round, "round") of a rip round -> the
    # seconds of each time it ran; repeats add to the list.
    op_s: dict[tuple, list[float]] = field(default_factory=dict)
    wall_s: float = 0.0                                # time inside the timed calls
    trials: int = 0
    errors: list[str] = field(default_factory=list)
    records_bytes: int = 0
    exact_s: float = 0.0
    supports: int = 0
    samples_s: float = 0.0
    samples: int = 0
    ratio_s: float = 0.0
    ratio_samples: int = 0
    round_prints: dict[int, list] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.op_s.values())

    def distinct_op_s(self) -> dict[tuple, float]:
        """Mean seconds of each distinct trial, so that repeats weigh no
        trial more than another."""
        return {key: sum(v) / len(v) for key, v in self.op_s.items()}


def fingerprint(round_prints: dict[int, list]) -> str:
    rows = sorted(row for rows in round_prints.values() for row in rows)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def round_fingerprints(round_prints: dict[int, list]) -> dict[str, str]:
    return {str(r): fingerprint({r: rows}) for r, rows in sorted(round_prints.items())}


def _sweep_config(wl: Sweep, m: int, s: int, base_seed: int, out_dir: str):
    return harness.ExperimentConfig(n=N, m_values=(m,), s_rule=(s,), trials=1,
                                    base_seed=base_seed, scalar_mode=wl.mode,
                                    out_dir=out_dir)


def _read_records(path: str) -> list:
    with open(path) as fh:
        return [harness.TrialRecord.from_json_dict(json.loads(line))
                for line in fh if line.strip()]


def sweep_round(wl: Sweep, seed: int, r: int, work_dir: str, checks: Checks,
                log: Log) -> None:
    base_seed = round_seed(seed, r)
    rows = []
    for m, s in wl.cells:
        # A fresh, empty output directory: resume has nothing to skip, so
        # every record below comes from a trial this call solved.
        out_dir = tempfile.mkdtemp(dir=work_dir)
        try:
            config = _sweep_config(wl, m, s, base_seed, out_dir)
            t0 = time.perf_counter()
            harness.run_sweep(config)
            trial_s = time.perf_counter() - t0
            records_path = os.path.join(out_dir, "records.jsonl")
            log.records_bytes += os.path.getsize(records_path)
            records = _read_records(records_path)
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = harness.PhaseDiagram.from_summary_dict(json.load(fh))
        finally:
            shutil.rmtree(out_dir)
        where = f"{wl.name} round {r} cell ({m},{s})"

        keys = [(rec.m, rec.s, rec.trial_index) for rec in records]
        requested = [(m, s, t) for t in range(config.trials)]
        checks.check(len(config.cells()) == 1 and sorted(keys) == requested,
                     f"{where}: records {keys} for {requested} requested")
        checks.check(summary.rates == {(m, s): sum(rec.perfect for rec in records)
                                       / config.trials},
                     f"{where}: summary.json rates differ from records.jsonl")

        log.wall_s += trial_s
        log.op_s.setdefault((r, m, s), []).append(trial_s)
        for rec in records:
            log.trials += 1
            if rec.status.startswith("error:"):
                log.errors.append(f"{where}: {rec.status}")
            rows.append([rec.seed, rec.m, rec.s, rec.trial_index, rec.status,
                         rec.iterations, rec.perfect])
    _record_round(log, checks, wl.name, r, rows)


def _record_round(log: Log, checks: Checks, name: str, r: int, rows: list) -> None:
    """Keep the first verdicts of round r; a repeat must reproduce them."""
    if r in log.round_prints:
        checks.check(log.round_prints[r] == rows,
                     f"{name} round {r}: repeated round gave different verdicts")
    else:
        log.round_prints[r] = rows


def _rip_stream(base_seed: int, m: int, s: int, k: int):
    return qrandom.trial_stream(base_seed, qrandom.PURPOSE_RIP, m, s, k)


def _rip_matrix(base_seed: int, m: int, n: int):
    rng = qrandom.trial_stream(base_seed, qrandom.PURPOSE_MATRIX, m, 0, 0)
    return qrandom.sample_gaussian_matrix(rng, m, n, 1.0 / m)


def rip_round(wl: RipDiagnostics, seed: int, r: int, work_dir: str, checks: Checks,
              log: Log) -> None:
    base_seed = round_seed(seed, r)
    where = f"{wl.name} round {r}"
    clock = time.perf_counter
    m, n, s = RIP_SMALL
    m_large, n_large, s_large = RIP_LARGE

    t_round = clock()
    phi = _rip_matrix(base_seed, m, n)
    phi_large = _rip_matrix(base_seed, m_large, n_large)

    t0 = clock()
    exact = rip.exact_delta(phi, s)
    t1 = clock()
    lower = rip.sampled_delta_lower_bound(phi, s, RIP_SAMPLES_SMALL,
                                          rng=_rip_stream(base_seed, m, s, 0))
    ip = rip.check_rip_ip(phi, 1, 2, RIP_SAMPLES_IP, rng=_rip_stream(base_seed, m, s, 1))
    large = [rip.sampled_delta_lower_bound(phi_large, k, RIP_SAMPLES_LARGE,
                                           rng=_rip_stream(base_seed, m_large, k, 0))
             for k in s_large]
    t2 = clock()
    ratio = harness.run_ratio_test(RATIO_M, RATIO_SAMPLES, base_seed=base_seed)
    t3 = clock()

    log.op_s.setdefault((r, "round"), []).append(t3 - t_round)
    log.wall_s += t3 - t_round
    log.exact_s += t1 - t0
    log.supports += exact.supports_examined
    log.samples_s += t2 - t1
    log.samples += RIP_SAMPLES_SMALL + RIP_SAMPLES_IP + RIP_SAMPLES_LARGE * len(s_large)
    log.ratio_s += t3 - t2
    log.ratio_samples += RATIO_SAMPLES

    checks.check(lower.delta <= exact.delta + DELTA_SLACK,
                 f"{where}: sampled delta {lower.delta!r} > exact {exact.delta!r}")
    checks.check(ip <= IP_LIMIT, f"{where}: check_rip_ip = {ip!r} > 1 + 1e-9")
    checks.check(abs(ratio["mean"] - 1.0) <= RATIO_MEAN_TOL,
                 f"{where}: ratio mean {ratio['mean']!r} off 1 by more than "
                 f"{RATIO_MEAN_TOL:.4f}")
    rows = [[base_seed, repr(exact.delta), list(exact.argmax_support.indices),
             repr(lower.delta), repr(ip)] + [repr(rep.delta) for rep in large]
            + [repr(ratio["mean"]), repr(ratio["ks_distance_to_gamma"])]]
    _record_round(log, checks, wl.name, r, rows)


def run_round(wl, seed: int, r: int, work_dir: str, checks: Checks, log: Log) -> None:
    if isinstance(wl, Sweep):
        sweep_round(wl, seed, r, work_dir, checks, log)
    else:
        rip_round(wl, seed, r, work_dir, checks, log)


def run_pass(wl, seed: int, rounds: int, work_dir: str, checks: Checks,
             min_seconds: float = 0.0) -> Log:
    """Rounds 0..rounds-1, then rounds again from 0 while another round
    would end, on average, before min_seconds of wall time. Repeats keep
    the measured mix of trials the same whatever the speed of the code
    under test."""
    log = Log()
    t0 = time.perf_counter()
    r = 0
    while r < rounds or (time.perf_counter() - t0) * (1 + 0.5 / r) < min_seconds:
        run_round(wl, seed, r % rounds, work_dir, checks, log)
        r += 1
    return log


def prepare(wl, seed: int, work_dir: str) -> None:
    """Everything before the first trial: its config and fresh output
    directory for a sweep, its input matrix for rip-diagnostics."""
    if isinstance(wl, Sweep):
        out_dir = tempfile.mkdtemp(dir=work_dir)
        _sweep_config(wl, *wl.cells[0], round_seed(seed, 0), out_dir)
        os.rmdir(out_dir)
    else:
        _rip_matrix(round_seed(seed, 0), RIP_SMALL[0], RIP_SMALL[1])
