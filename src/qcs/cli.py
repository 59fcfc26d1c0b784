"""Command-line entry point.

Subcommands: sweep, recover, rip, ratio, c0, plot. Each takes only the
flags it reads. sweep and c0 build an ExperimentConfig from --config (a
JSON file of its fields) plus the overrides --n, --m, --s, --trials,
--seed and --out; sweep also takes --eta and --mode. Exit codes: 0
success, 1 runtime failure (with a one-line JSON error record on
stderr), 2 usage errors (argparse, including a flag the subcommand does
not take).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import harness, qlinalg, rip
from . import random as qrandom
from .errors import QcsError
from .solver import RecoveryProblem, SolverParams, solve


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def build_config(args) -> harness.ExperimentConfig:
    """The config of sweep or c0: the --config file, then the flags."""
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
    if args.n is not None:
        base["n"] = args.n
    if args.m is not None:
        base["m_values"] = list(_parse_int_list(args.m))
    if args.s is not None:
        base["s_rule"] = args.s if args.s == "1..m/2" else list(_parse_int_list(args.s))
    if args.trials is not None:
        base["trials"] = args.trials
    if args.seed is not None:
        base["base_seed"] = args.seed
    if args.out is not None:
        base["out_dir"] = args.out
    # sweep only
    if getattr(args, "eta", None) is not None:
        base["eta"] = args.eta
    if getattr(args, "mode", None) is not None:
        base["scalar_mode"] = args.mode
    if getattr(args, "full", False):
        base.setdefault("m_values", list(range(2, 65, 2)))
    return harness.ExperimentConfig.from_json_dict(base)


def _solver_params_from_args(args) -> SolverParams:
    kw = {}
    if args.rho is not None:
        kw["rho"] = args.rho
    if args.max_iters is not None:
        kw["max_iters"] = args.max_iters
    if args.tol_primal is not None:
        kw["tol_primal"] = args.tol_primal
    if args.tol_dual is not None:
        kw["tol_dual"] = args.tol_dual
    if args.no_polish:
        kw["polish"] = False
    return SolverParams(**kw)


def cmd_sweep(args) -> int:
    config = build_config(args)
    diagram = harness.run_sweep(config, verbose=True)
    diagram.to_csv(os.path.join(config.out_dir, "grid.csv"))
    if args.plot:
        harness.emit_plot(diagram, os.path.join(config.out_dir, "heatmap.svg"))
    print(json.dumps({"out_dir": config.out_dir,
                      "cells": len(diagram.rates)}, sort_keys=True))
    return 0


def _load(path, cls, flag: str):
    """The payload in path, which must be a cls (QMatrix or QVector)."""
    obj = qlinalg.load_json(path)
    if not isinstance(obj, cls):
        raise ValueError(f"{flag} needs a {cls.__name__}, "
                         f"but {path} holds a {type(obj).__name__}")
    return obj


def cmd_recover(args) -> int:
    Phi = _load(args.phi, qlinalg.QMatrix, "--phi")
    y = _load(args.y, qlinalg.QVector, "--y")
    params = _solver_params_from_args(args)
    problem = RecoveryProblem(Phi, y, args.eta)
    if args.trace is None:
        result = solve(problem, params)
    else:
        with open(args.trace, "w", newline="") as fh:
            trace = csv.writer(fh)
            trace.writerow(["iteration", "primal_residual", "dual_residual",
                            "objective", "rho"])
            result = solve(problem, params,
                           lambda it, *values: trace.writerow([it, *map(repr, values)]))
    record = {
        "status": result.status.value,
        "iterations": result.iterations,
        "objective": result.objective,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "polished": result.polished,
    }
    if args.truth:
        x_true = _load(args.truth, qlinalg.QVector, "--truth")
        record["err_l1"] = qlinalg.lp_norm(result.x_hat - x_true, 1)
        record["err_l2"] = qlinalg.lp_norm(result.x_hat - x_true, 2)
    if args.out:
        qlinalg.save_json(result.x_hat, args.out)
        record["x_hat_path"] = args.out
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_rip(args) -> int:
    if args.s is None:
        raise ValueError("rip requires --s <support size>")
    Phi = _load(args.phi, qlinalg.QMatrix, "--phi")
    report = rip.exact_delta(Phi, args.s, budget=args.budget)
    payload = {
        "s": report.s,
        "delta": report.delta,
        "method": report.method.value,
        "supports_examined": report.supports_examined,
        "argmax_support": list(report.argmax_support.indices),
        "elapsed": report.elapsed,
    }
    if args.sampled:
        lb = rip.sampled_delta_lower_bound(Phi, args.s, args.sampled)
        payload["sampled_lower_bound"] = lb.delta
        payload["sampled_trials"] = lb.supports_examined
    print(json.dumps(payload, sort_keys=True))
    if args.certificate:
        s_rec = report.s // 2
        if s_rec < 1:
            print("certificate: need s >= 2 so that delta_s covers some 2s'-sparse order")
        elif report.delta < rip.SQRT2 - 1:
            consts = rip.error_constants(report.delta)
            print(f"certificate: delta_{report.s} = {report.delta:.6f} < sqrt(2)-1, so every "
                  f"{s_rec}-sparse recovery from data with noise bound eta satisfies")
            print(f"  ||x# - x||_2 <= (C0/sqrt({s_rec})) ||x - x_{s_rec}||_1 + C1 eta")
            print(f"  with C0 = {consts.C0:.6f}, C1 = {consts.C1:.6f}; "
                  "exact-data s-sparse recovery is exact.")
        else:
            print(f"certificate: delta_{report.s} = {report.delta:.6f} >= sqrt(2)-1 "
                  f"= {rip.SQRT2 - 1:.6f}; no recovery guarantee follows")
    return 0


def cmd_ratio(args) -> int:
    ms = _parse_int_list(args.m or "")
    if len(ms) != 1:
        raise ValueError(f"ratio requires one measurement count, --m <m>; got {ms}")
    result = harness.run_ratio_test(ms[0], args.samples, base_seed=args.seed,
                                    mode=args.mode)
    text = json.dumps(result, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_c0(args) -> int:
    config = build_config(args)
    data = harness.run_c0_experiment(config, verbose=True)
    if args.plot:
        harness.emit_plot(data, os.path.join(config.out_dir, "c0_scatter.svg"))
    print(json.dumps({"out_dir": config.out_dir, "points": len(data.points),
                      "skipped": data.skipped}, sort_keys=True))
    return 0


def cmd_plot(args) -> int:
    if args.input.endswith(".jsonl"):
        points = []
        with open(args.input) as fh:
            for line in fh:
                if line.strip():
                    d = json.loads(line)
                    points.append((d["s"], d["c0_lower_bound"]))
        harness.emit_plot(points, args.out)
    else:
        with open(args.input) as fh:
            payload = json.load(fh)
        kind = payload.get("kind")
        if kind == "sweep_summary":
            harness.emit_plot(harness.PhaseDiagram.from_summary_dict(payload), args.out)
        elif kind == "c0_summary":
            points = [(int(s), v) for s, v in payload["max_per_s"].items()]
            harness.emit_plot(points, args.out)
        else:
            raise ValueError(f"cannot plot payload of kind {kind!r}")
    print(json.dumps({"out": args.out}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the flags build_config reads, shared by sweep and c0
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", help="JSON file with experiment settings")
    experiment.add_argument("--n", type=int, help="signal length")
    experiment.add_argument("--m", type=str, help="comma-separated measurement counts")
    experiment.add_argument("--s", type=str,
                            help='sparsity rule: "1..m/2" or comma-separated values')
    experiment.add_argument("--trials", type=int)
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--out", type=str, help="output directory")

    parser = argparse.ArgumentParser(
        prog="qcs",
        description="Sparse quaternion signal recovery by l1 minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kw) -> argparse.ArgumentParser:
        # no prefix matching, so a flag a subcommand does not take is refused
        # rather than read as another (recover --m as --max-iters)
        p = sub.add_parser(name, allow_abbrev=False, **kw)
        p.set_defaults(func=func)
        return p

    p = add("sweep", cmd_sweep, parents=[experiment],
            help="phase-transition sweep over (m, s) cells")
    p.add_argument("--eta", type=float, help="noise bound")
    p.add_argument("--mode", choices=list(qrandom.GROUP_SIZES))
    p.add_argument("--plot", action="store_true", help="emit heatmap.svg")
    p.add_argument("--full", action="store_true",
                   help="full-grid profile: m = 2..64, 1000 trials (long-running)")

    p = add("recover", cmd_recover, help="solve one recovery problem from files")
    p.add_argument("--phi", required=True, help="measurement matrix JSON")
    p.add_argument("--y", required=True, help="measurement vector JSON")
    p.add_argument("--eta", type=float, default=0.0, help="noise bound")
    p.add_argument("--truth", help="ground-truth signal JSON for error reporting")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--tol-primal", type=float, default=None)
    p.add_argument("--tol-dual", type=float, default=None)
    p.add_argument("--no-polish", action="store_true")
    p.add_argument("--trace", help="stream per-iteration diagnostics to this CSV")
    p.add_argument("--out", help="write the recovered signal to this JSON file")

    p = add("rip", cmd_rip, help="restricted isometry constant of a matrix file")
    p.add_argument("--phi", required=True)
    p.add_argument("--s", type=int, help="support size")
    p.add_argument("--budget", type=int, default=rip.DEFAULT_BUDGET)
    p.add_argument("--sampled", type=int, default=0,
                   help="also report a sampled lower bound from this many trials")
    p.add_argument("--certificate", action="store_true",
                   help="print the recovery-guarantee constants when delta permits")

    p = add("ratio", cmd_ratio, help="measurement-ratio distribution test")
    p.add_argument("--m", type=str, help="measurement count")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=list(qrandom.GROUP_SIZES), default="quaternion")
    p.add_argument("--out", help="also write the result to this JSON file")

    p = add("c0", cmd_c0, parents=[experiment],
            help="dense-signal lower-bound scatter experiment")
    p.add_argument("--plot", action="store_true", help="emit c0_scatter.svg")

    p = add("plot", cmd_plot, help="render a summary or scatter file as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="SVG file to write")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QcsError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
