#!/usr/bin/env python3
"""Full phase-transition grid: m = 2..64 (step 2), s = 1..m/2, 1000 trials
per cell, n = 256.

This is the long-running profile. A trial at m = 64, s = 32, where
recovery fails, takes 0.2-1.6 s on one core (the solver usually
converges to an l1 minimizer other than the signal in 500-900
iterations). The grid holds 528 cells of 1000 trials, so the whole grid
is a job of a day or more on one core. Set QCS_WORKERS to use
more cores; the sweep is resumable, so interrupting it and rerunning
with the same arguments continues where it stopped.

For a quick look at the transition structure use run_desk_sweep.py
instead.
"""
import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qcs import harness


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=256, help="ambient dimension")
    p.add_argument("--trials", type=int, default=1000, help="trials per cell")
    p.add_argument("--mode", choices=("quaternion", "real"), default="quaternion")
    p.add_argument("--eta", type=float, default=0.0, help="noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-step", type=int, default=2,
                   help="spacing of the m grid (2 reproduces the full grid)")
    p.add_argument("--out", default=None,
                   help="output directory (default full_sweep_<mode>)")
    return p.parse_args()


def main():
    args = parse_args()
    out_dir = args.out or f"full_sweep_{args.mode}"
    config = harness.ExperimentConfig(
        n=args.n,
        m_values=tuple(range(2, 65, args.m_step)),
        s_rule="1..m/2",
        trials=args.trials,
        base_seed=args.seed,
        scalar_mode=args.mode,
        eta=args.eta,
        out_dir=out_dir,
    )
    n_cells = len(config.cells())
    n_solves = n_cells * config.trials
    print(f"grid: {len(config.m_values)} values of m, {n_cells} cells, "
          f"{n_solves} solves total", flush=True)
    print(f"writing to {out_dir}/ (resumable; safe to interrupt)", flush=True)

    t0 = time.time()
    diagram = harness.run_sweep(config, verbose=True)
    elapsed = time.time() - t0

    diagram.to_csv(os.path.join(out_dir, "grid.csv"))
    harness.emit_plot(diagram, os.path.join(out_dir, "heatmap.svg"))
    print(json.dumps({"out_dir": out_dir, "cells": len(diagram.rates),
                      "elapsed_s": round(elapsed, 1)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
