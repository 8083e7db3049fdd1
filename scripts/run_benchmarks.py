#!/usr/bin/env python3
"""Desk-scale benchmark sweep.

Runs the hierarchical sampler on each benchmark instance at each budget of a
ladder and writes one CSV row per (instance, budget): the pool size, the
blacklisted-flow count, the wall time, the KL divergence against the closed
form where the instance has one, and the weighted mean and standard
deviation.  A run that ends with no positive weight leaves kl, mean and std
empty.  With no instance specs it sweeps the corpus below; budgets are sized
for minutes, not the paper-scale hours, so pass --budgets to push further,
e.g. `--budgets 25,50,100,200,400,800` for a convergence trace.

    python scripts/run_benchmarks.py [SPEC ...] [--budgets 300] [--out F]
"""
import argparse
import contextlib
import csv
import sys
import time

from flowsmc import benchmarks
from flowsmc.metrics import (
    ground_truth, has_closed_form, kl_divergence, parse_gt_spec, summarize,
)
from flowsmc.sampler import RunConfig, run

CORPUS = [
    "coin(0.36)", "coin(0.1)", "unifCd(10)", "unifCd(15)", "unifCd(20)",
    "poisCd(6, 20)", "geomIt(0.5, 5)", "geomIt(0.5, 20)", "mixed(0)",
    "unifCd2(10)", "poisCd2(6, 20)", "geomIt2(0.5, 5)", "obsLoop(3, 10)",
    "obsLoop(3, 12)",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("programs", nargs="*", default=CORPUS,
                        help="instance specs, e.g. 'unifCd(18)' "
                             "(default: the corpus)")
    parser.add_argument("--budgets", default="300")
    parser.add_argument("--particles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weight-mode", default="importance",
                        choices=("per-arm", "importance"))
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    with (open(args.out, "w", encoding="utf-8", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["program", "budget", "samples", "blacklisted",
                         "seconds", "kl", "mean", "std"])
        for spec in args.programs:
            name, params = parse_gt_spec(spec)
            g = benchmarks.build(name, *params)
            # rejection-based ground truths can be arbitrarily slow; stick
            # to the closed forms here
            gt = ground_truth(name, *params) if has_closed_form(name) else None
            for budget in (int(b) for b in args.budgets.split(",")):
                t0 = time.perf_counter()
                result = run(g, RunConfig(
                    budget=budget, particles=args.particles, seed=args.seed,
                    weight_mode=args.weight_mode))
                seconds = time.perf_counter() - t0
                kl = mean = std = ""
                # a run can end with status ok and every pooled weight zero
                if (result.report["status"] == "ok"
                        and result.weights.sum() > 0.0):
                    mean, std = (f"{v:.6g}" for v in
                                 summarize(result.values, result.weights))
                    if gt is not None:
                        kl = "{:.6g}".format(kl_divergence(
                            gt, result.values, result.weights))
                writer.writerow([spec, budget, result.pool.size,
                                 result.report["blacklisted"]["count"],
                                 f"{seconds:.3f}", kl, mean, std])
    return 0


if __name__ == "__main__":
    sys.exit(main())
