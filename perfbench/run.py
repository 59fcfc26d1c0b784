"""qcs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-transition --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qcs is imported from ./src. The
run is a closed loop on one core: one trial starts when the previous one
has finished, in this process, with QCS_WORKERS=1 and one BLAS thread.

--trace 0 measures the end-to-end metrics. --trace 1 runs the same
rounds twice, untraced and then with spans around the qcs entry points,
and reports the per-layer metrics and the tracing overhead. Either way
the outputs are checked, a report goes to stdout, the run is stored
under .perfbench_runs/, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pinned before numpy is imported, here and in every child process.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "QCS_WORKERS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3
# Share of --seconds that the distinct rounds fill at the speed recorded
# in workloads.round_s; the rest of a run repeats rounds. Below 1 so
# that a machine up to ~40% slower still ends a run near --seconds.
DISTINCT_SHARE = 0.7
SETUP_TIMEOUT_S = 60

END_TO_END = (("trials_per_s", "1/s"), ("trial_s_p50", "s"), ("trial_s_tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(values):
    """(percentile, value, count): the highest whole percentile with at
    least ten samples above it, by nearest rank; the maximum when there
    are fewer than eleven samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return 100, v[-1], n
    q = math.floor(100 * (n - 10) / n)
    return q, v[math.ceil(q * n / 100) - 1], n


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, so it moves smoothly when a cell's trials split between
    capped and converged, where the sample median jumps."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a = (n + 1) / 2
    return float(np.diff(betainc(a, a, np.arange(n + 1) / n)) @ x)


def measure_setup(workload: str, seed: int, work_dir: str) -> list[float]:
    """Seconds from starting a fresh interpreter to its first trial being
    ready (imports, config, fresh output directory), SETUP_PROBES times."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed), work_dir],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            fail(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed)
    return times


def code_sha256() -> str:
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "qcs"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of ROOT/.git read from its files, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def conditions(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **{k: os.environ.get(k) for k in sorted(PINNED_ENV)},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "seed": seed, "git_commit": git_commit(), "code_sha256": code_sha256()}


def compare_history(runs_dir: str, record: dict, checks) -> None:
    """Runs of the same code and seed must agree on every round both ran."""
    if not os.path.isdir(runs_dir):
        return
    mine = record["round_fingerprints"]
    for name in sorted(os.listdir(runs_dir)):
        try:
            with open(os.path.join(runs_dir, name)) as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            continue
        if (old.get("workload") != record["workload"]
                or old.get("conditions", {}).get("seed") != record["conditions"]["seed"]
                or old.get("conditions", {}).get("code_sha256")
                != record["conditions"]["code_sha256"]):
            continue
        common = sorted(set(mine) & set(old.get("round_fingerprints", {})), key=int)
        checks.check(all(mine[r] == old["round_fingerprints"][r] for r in common),
                     f"verdicts differ from the stored run {name} of the same code")


def store(runs_dir: str, record: dict) -> str:
    os.makedirs(runs_dir, exist_ok=True)
    name = (f"{record['workload']}-seed{record['conditions']['seed']}"
            f"-trace{record['trace']}-{time.time_ns()}.json")
    path = os.path.join(runs_dir, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def end_to_end(log, setup_times) -> tuple[dict, list[str]]:
    """The gated metrics, and the report lines of every end-to-end metric
    that applies to this workload. Each distinct trial counts once, at the
    mean of its runs."""
    op_s = log.distinct_op_s()
    by_cell: dict[tuple, list[float]] = {}
    for (_, *cell), seconds in op_s.items():
        by_cell.setdefault(tuple(cell), []).append(seconds)
    q, tail_s, count = tail(op_s.values())
    unit = "trials" if log.trials else "rounds"
    metrics = {
        "trials_per_s": len(op_s) / sum(op_s.values()),
        "trial_s_p50": statistics.fmean(hd_median(v) for v in by_cell.values()),
        "trial_s_tail": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"trials_per_s         {metrics['trials_per_s']:.6g} 1/s ({len(op_s)} distinct "
        f"{unit}, {log.ops} runs of them in {log.wall_s:.3f} s)",
        f"trial_s_p50          {metrics['trial_s_p50']:.6g} s (mean over "
        f"{len(by_cell)} cells of the cell's Harrell-Davis median)",
        f"trial_s_tail         {tail_s:.6g} s (p{q} of {count} {unit})",
    ]
    if log.trials:
        rows = [row for rows in log.round_prints.values() for row in rows]
        lines += [f"perfect_frac         {sum(row[6] for row in rows) / len(rows):.6g} ratio",
                  f"capped_frac          "
                  f"{sum(row[4] == 'max_iters' for row in rows) / len(rows):.6g} ratio"]
    else:
        lines += [f"rip_supports_per_s   {log.supports / log.exact_s:.6g} 1/s",
                  f"rip_samples_per_s    {log.samples / log.samples_s:.6g} 1/s",
                  f"ratio_samples_per_s  {log.ratio_samples / log.ratio_s:.6g} 1/s"]
    lines += [f"setup_s              {metrics['setup_s']:.6g} s (median of "
              f"{', '.join(f'{t:.3f}' for t in setup_times)})",
              f"peak_rss_mb          {metrics['peak_rss_mb']:.6g} MB"]
    return metrics, lines


def main() -> None:
    if not os.path.isfile(os.path.join(SRC, "qcs", "__init__.py")):
        fail(f"no qcs sources under {SRC}; run from the root of a qcs checkout")
    sys.path.insert(0, SRC)
    import qcs

    if os.path.dirname(os.path.abspath(qcs.__file__)) != os.path.join(SRC, "qcs"):
        fail(f"imported qcs from {qcs.__file__}, not from {SRC}")
    import tracing
    import workloads

    args = parse_args(workloads.WORKLOADS)
    if not 0 <= args.seed < workloads.MAX_SEED:
        fail(f"--seed must lie in [0, {workloads.MAX_SEED})")
    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    report = [f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}"]

    with tempfile.TemporaryDirectory(dir=tmp_root) as work_dir:
        if args.trace == 0:
            setup_times = measure_setup(wl.name, args.seed, work_dir)
            rounds = workloads.rounds_for(wl, DISTINCT_SHARE * args.seconds)
            log = workloads.run_pass(wl, args.seed, rounds, work_dir, checks,
                                     min_seconds=args.seconds)
            metrics, lines = end_to_end(log, setup_times)
            metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
        else:
            rounds = workloads.rounds_for(wl, DISTINCT_SHARE / 2 * args.seconds)
            log = workloads.run_pass(wl, args.seed, rounds, work_dir, checks)
            tracer = tracing.Tracer()
            tracer.install({
                "embedding.build": lambda emb: tracer.count("bytes_built",
                                                            tracing.array_bytes(emb)),
                "solver.solve": lambda res: tracer.count("iterations",
                                                         getattr(res, "iterations", 0)),
                "solver.polish": lambda cand: tracer.count("polish_accepted",
                                                           cand is not None),
                "rip.exact": lambda rep: tracer.count("supports",
                                                      getattr(rep, "supports_examined", 0)),
            })
            try:
                traced = workloads.run_pass(wl, args.seed, rounds, work_dir, checks)
            finally:
                tracer.uninstall()
            checks.check(traced.round_prints == log.round_prints,
                         "the traced pass gave different verdicts from the untraced pass")
            counters = dict(tracer.counters, records_bytes=[traced.records_bytes])
            layer = tracing.layer_metrics(tracer.summary(), counters, tracer.absent,
                                          0 if traced.trials else traced.ops)
            overhead = 1.0 - (traced.ops / traced.wall_s) / (log.ops / log.wall_s)
            layer["trace.overhead_frac"] = (overhead, "ratio")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layer.items()}
            lines = [f"{name:<32} {'absent' if value is None else f'{value:.6g}'} {unit}"
                     for name, (value, unit) in layer.items()]
            lines.append(f"untraced {log.ops / log.wall_s:.6g} /s, traced "
                         f"{traced.ops / traced.wall_s:.6g} /s over the same {rounds} rounds")
            if tracer.absent:
                lines.append("absent: " + ", ".join(tracer.absent))

    cond = conditions(args.seed)
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "rounds": rounds, "conditions": cond,
              "fingerprint": workloads.fingerprint(log.round_prints),
              "round_fingerprints": workloads.round_fingerprints(log.round_prints)}
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    compare_history(runs_dir, record, checks)

    failures = log.errors + checks.failures
    attempted = log.trials + checks.attempted
    report += [f"failed_frac          {len(failures) / attempted:.6g} ratio "
               f"({len(failures)} of {attempted} trials and checks)"]
    report += lines
    report.append(f"fingerprint {record['fingerprint']} over {len(log.round_prints)} rounds")
    report += [f"FAILED: {what}" for what in failures]
    record.update(metrics=metrics, attempted=attempted, failures=failures,
                  op_s={repr(key): v for key, v in log.op_s.items()})
    report.append(f"stored {os.path.relpath(store(runs_dir, record), ROOT)}")
    print("\n".join(report))
    print("conditions " + json.dumps(cond, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
