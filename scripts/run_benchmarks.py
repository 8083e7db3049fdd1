#!/usr/bin/env python3
"""Desk-scale benchmark sweep.

Runs the hierarchical sampler on each benchmark instance and prints a summary
table: pool size, blacklisted-flow count, and either KL divergence against
the known ground truth or the weighted mean and standard deviation.  Budgets
are sized for minutes, not the paper-scale hours; pass --budget to push
further.
"""
import argparse
import sys
import time

from flowsmc import benchmarks
from flowsmc.metrics import ground_truth, kl_divergence, summarize
from flowsmc.sampler import RunConfig, run

KL_INSTANCES = [
    ("coin", (0.36,)),
    ("coin", (0.1,)),
    ("unifCd", (10,)),
    ("unifCd", (15,)),
    ("unifCd", (20,)),
    ("poisCd", (6, 20)),
    ("geomIt", (0.5, 5)),
    ("geomIt", (0.5, 20)),
    ("mixed", (0,)),
]

MOMENT_INSTANCES = [
    ("unifCd2", (10,)),
    ("poisCd2", (6, 20)),
    ("geomIt2", (0.5, 5)),
    ("obsLoop", (3, 10)),
    ("obsLoop", (3, 12)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=300)
    parser.add_argument("--particles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weight-mode", default="importance",
                        choices=("per-arm", "importance"))
    args = parser.parse_args(argv)

    cfg_kwargs = dict(budget=args.budget, particles=args.particles,
                      weight_mode=args.weight_mode, seed=args.seed)
    print(f"{'program':20s} {'samples':>9s} {'dead':>5s} {'time':>7s}  result")
    for name, params in KL_INSTANCES + MOMENT_INSTANCES:
        label = f"{name}({', '.join(str(p) for p in params)})"
        g = benchmarks.build(name, *params)
        t0 = time.perf_counter()
        result = run(g, RunConfig(**cfg_kwargs))
        elapsed = time.perf_counter() - t0
        dead = result.report["blacklisted"]["count"]
        if result.report["status"] != "ok" or not result.weights.sum() > 0.0:
            print(f"{label:20s} {result.pool.size:9d} {dead:5d} {elapsed:6.1f}s  "
                  "(no samples)")
            continue
        if (name, params) in KL_INSTANCES:
            gt = ground_truth(name, *params)
            kl = kl_divergence(gt, result.values, result.weights)
            summary = f"KL {kl:.4g}"
        else:
            mean, std = summarize(result.values, result.weights)
            summary = f"mean {mean:.3g} +/- {std:.3g}"
        print(f"{label:20s} {result.pool.size:9d} {dead:5d} {elapsed:6.1f}s  {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
