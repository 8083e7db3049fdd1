#!/usr/bin/env python3
"""Convergence trace for one benchmark instance.

Re-runs the sampler at a geometric ladder of budgets and emits a CSV of pool
size against KL divergence (when the ground truth is known) and the weighted
mean / standard deviation, the data behind sample-count-versus-quality plots.
"""
import argparse
import sys

from flowsmc import benchmarks
from flowsmc.metrics import ground_truth, kl_divergence, summarize
from flowsmc.sampler import RunConfig, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("program", help="instance spec, e.g. 'unifCd(18)'")
    parser.add_argument("--budgets", default="25,50,100,200,400,800")
    parser.add_argument("--particles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weight-mode", default="importance",
                        choices=("per-arm", "importance"))
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)

    from flowsmc.metrics import has_closed_form, parse_gt_spec

    name, params = parse_gt_spec(args.program)
    g = benchmarks.build(name, *params)
    # rejection-based ground truths can be arbitrarily slow; stick to the
    # closed forms here and report moments for everything else
    gt = ground_truth(name, *params) if has_closed_form(name) else None

    rows = ["budget,samples,kl,mean,std"]
    for budget in (int(b) for b in args.budgets.split(",")):
        result = run(g, RunConfig(budget=budget, particles=args.particles,
                                  seed=args.seed, weight_mode=args.weight_mode))
        # a run can end with status ok and every pooled weight zero
        if result.report["status"] != "ok" or not result.weights.sum() > 0.0:
            rows.append(f"{budget},0,,,")
            continue
        mean, std = summarize(result.values, result.weights)
        kl = ""
        if gt is not None:
            kl = f"{kl_divergence(gt, result.values, result.weights):.6g}"
        rows.append(f"{budget},{result.pool.size},{kl},{mean:.6g},{std:.6g}")

    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
