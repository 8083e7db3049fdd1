"""Command-line interface.

Subcommands: run (hierarchical sampler), flows (enumerate complete control
flows), cdpg (propagate the flow with a given id and report its blacklist
verdict), baseline (rejection / whole-program SMC), kl (divergence of a
sample CSV against a ground truth), report (summarize a run report).

Each subcommand imports the numeric modules it needs when it runs, so
`flows` loads no numpy, `cdpg` loads it only once the flow id is found, and
only the subcommands that sample load scipy.  An id that is not a complete
flow of the graph exits 2 with one `error:` line, and so do a `report`
file that is not a run report, or not of a run report's shape (checked in
full before any line is printed), and a run or baseline too large to
allocate.
"""
from __future__ import annotations

import argparse
import json
import sys

from .frontend import desugar, parse_source
from .pcfg import (
    MAX_FLOW_LEN, FlowEnumerator, build_pcfg, find_flow, straight_line, validate,
)
from .syntax import ProbError


def _load_pcfg(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        program = parse_source(fh.read())
    g = build_pcfg(desugar(program))
    problems = validate(g)
    if problems:
        raise SystemExit("invalid control-flow graph:\n  " + "\n  ".join(problems))
    return g


def _write_samples(path: str, weights, values, flow_ids) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("weight,value,flow_id\n")
        for w, x, k in zip(weights, values, flow_ids):
            fh.write(f"{w:.17g},{x:.17g},{k}\n")


def _read_samples(path: str):
    import numpy as np

    from . import metrics

    weights, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("weight"):
            raise metrics.MetricsError(
                f"{path}: expected a 'weight,value,flow_id' header")
        for lineno, line in enumerate(fh, start=2):
            row = line.strip()
            if not row:
                continue
            parts = row.split(",")
            if len(parts) < 2:
                raise metrics.MetricsError(
                    f"{path}:{lineno}: expected weight and value, got {row!r}")
            try:
                weights.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as err:
                raise metrics.MetricsError(f"{path}:{lineno}: {err}") from None
    return np.asarray(weights), np.asarray(values)


def _cmd_run(args) -> int:
    from . import metrics, sampler

    g = _load_pcfg(args.program)
    try:
        cfg = sampler.RunConfig(
            budget=args.budget,
            particles=args.particles,
            weight_mode=args.weight_mode,
            seed=args.seed,
            max_flow_len=args.max_flow_len,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = sampler.run(g, cfg, collect_timing=not args.no_timing)
    if args.out:
        _write_samples(args.out, result.weights, result.values, result.flow_ids)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(result.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    status = result.report["status"]
    print(f"status: {status}; pool {result.pool.size} samples; "
          f"{len(result.registry.arms)} arms; "
          f"{result.report['blacklisted']['count']} flows blacklisted")
    if result.report["enumeration"]["hit_length_cap"]:
        print("warning: enumeration hit the flow-length cap "
              f"(--max-flow-len {cfg.max_flow_len}); longer flows were "
              "never sampled", file=sys.stderr)
    if status == "ok" and len(result.weights):
        mean, std = metrics.summarize(result.values, result.weights)
        print(f"weighted mean {mean:.6g}, std {std:.6g}")
    return 0 if status == "ok" else 1


def _cmd_flows(args) -> int:
    for flag, value in (("--max-len", args.max_len), ("--count", args.count)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return 2
    g = _load_pcfg(args.program)
    cursor = FlowEnumerator(g, max_len=args.max_len)
    shown = 0
    while shown < args.count:
        flow = cursor.next_complete()
        if flow is None:
            break
        print(flow.flow_id)
        shown += 1
    if cursor.exhausted:
        note = (f"length cap {args.max_len} hit" if cursor.hit_length_cap
                else "exhausted")
        print(f"({note})", file=sys.stderr)
    return 0


def _cmd_cdpg(args) -> int:
    g = _load_pcfg(args.program)
    flow = find_flow(g, args.flow)
    from .condprop import cdpg as propagate
    from .condprop import is_blacklisted

    plain = straight_line(g, flow)
    optimized = propagate(plain)
    print(optimized.describe())
    verdict = "blacklisted" if is_blacklisted(optimized) else "live"
    print(f"// verdict: {verdict}")
    return 0


def _cmd_baseline(args) -> int:
    import numpy as np

    from . import baselines, metrics

    g = _load_pcfg(args.program)
    try:
        if args.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        if args.method == "rejection":
            w, x = baselines.baseline_rejection(g, args.n, rng,
                                                step_cap=args.step_cap)
        else:
            w, x, live = baselines.baseline_whole_smc(
                g, args.particles, rng, step_cap=args.step_cap, sweeps=args.sweeps)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.method == "rejection":
        live = int(np.count_nonzero(w > 0.0))
        print(f"rejection: {live}/{args.n} accepted")
    else:
        print(f"whole-program smc: {live}/{args.sweeps} live sweeps")
    if args.out:
        _write_samples(args.out, w, x, ["-"] * len(w))
    if (w > 0.0).any():
        mean, std = metrics.summarize(x, w)
        print(f"weighted mean {mean:.6g}, std {std:.6g}")
    return 0


def _cmd_kl(args) -> int:
    from . import metrics

    weights, values = _read_samples(args.samples)
    if args.ground_truth.endswith(".csv"):
        ref_w, ref_x = _read_samples(args.ground_truth)
        keep = ref_w > 0.0
        gt = metrics.GroundTruth("samples", samples=ref_x[keep],
                                 label=args.ground_truth)
    else:
        name, params = metrics.parse_gt_spec(args.ground_truth)
        gt = metrics.ground_truth(name, *params)
    kl = metrics.kl_divergence(gt, values, weights, bins=args.bins,
                               smoothing=not args.no_smoothing)
    print(f"kl {kl:.6g}")
    return 0


def _load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise ProbError(f"{path}: not a run report: {err}") from None
    if not isinstance(report, dict):
        raise ProbError(f"{path}: not a run report: expected a JSON object")
    return report


def _ess_cell(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def _report_lines(report: dict):
    """The lines that `report` prints.  A field it needs that is missing, or
    that holds a value of the wrong type, raises KeyError, TypeError or
    ValueError."""
    yield (f"status: {report['status']}; rounds {report['rounds_completed']}; "
           f"pool {report['pool']['size']}")
    yield f"blacklisted flows: {report['blacklisted']['count']}"
    if "dead_pulls" in report["pool"]:  # absent from reports of older versions
        yield (f"dead pulls: {report['pool']['dead_pulls']} of "
               f"{report['rounds_completed']}")
    enum = report["enumeration"]
    cap = ", length cap hit" if enum["hit_length_cap"] else ""
    yield f"flows examined: {enum['flows_examined']}{cap}"
    if "cdpg_steps" in enum:  # absent from reports of older versions
        yield (f"cdpg: {enum['cdpg_steps']} steps, {enum['cdpg_memo_hits']} "
               f"memo hits, {enum['cdpg_noop_steps']} no-op steps")
    yield (f"{'flow':24s} {'p_hat':>14s} {'pulls':>7s} {'ess_min':>10s} "
           f"{'ess_mean':>10s} {'resamples':>9s}")
    for arm in report["arms"]:
        # the ESS fields are absent from reports of older versions
        ess = [_ess_cell(arm.get(k)) for k in ("ess_min", "ess_mean")]
        yield (f"{arm['flow']:24s} {arm['p_hat']:14.6g} {arm['pulls']:7d} "
               f"{ess[0]:>10s} {ess[1]:>10s} {arm.get('resamples', '-'):>9}")
    timing = report.get("timing")
    if timing:
        yield f"wall time: {timing['wall_ms']:.1f} ms"


def _cmd_report(args) -> int:
    report = _load_report(args.report)
    try:  # check the whole report before printing any of it
        lines = list(_report_lines(report))
    except (KeyError, TypeError, ValueError) as err:
        why = f"no {err.args[0]!r} field" if isinstance(err, KeyError) else err
        raise ProbError(f"{args.report}: not a run report: {why}") from None
    print("\n".join(lines))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsmc",
        description="Posterior sampling for imperative probabilistic programs "
                    "by control-flow enumeration and per-flow SMC.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the hierarchical sampler")
    p.add_argument("program")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--particles", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-mode", choices=("per-arm", "importance"),
                   default="per-arm")
    p.add_argument("--max-flow-len", type=int, default=MAX_FLOW_LEN)
    p.add_argument("--out", default=None, help="samples CSV path")
    p.add_argument("--report", default=None, help="report JSON path")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock timing so reports are byte-stable")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("flows", help="enumerate complete control flows")
    p.add_argument("program")
    p.add_argument("--max-len", type=int, default=MAX_FLOW_LEN)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=_cmd_flows)

    p = sub.add_parser("cdpg", help="propagate conditions along one flow")
    p.add_argument("program")
    p.add_argument("--flow", required=True,
                   help="flow id, as the flows command or a run report prints it")
    p.set_defaults(func=_cmd_cdpg)

    p = sub.add_parser("baseline", help="whole-program baselines")
    p.add_argument("program")
    p.add_argument("--method", choices=("rejection", "smc"), required=True)
    p.add_argument("--n", type=int, default=100_000, help="rejection runs")
    p.add_argument("--particles", type=int, default=100)
    p.add_argument("--sweeps", type=int, default=1)
    p.add_argument("--step-cap", type=int, default=10_000,
                   help="sweep iterations before the runs still going get "
                        "weight 0; one iteration can move a run more than once")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("kl", help="KL divergence of samples against a ground truth")
    p.add_argument("--samples", required=True)
    p.add_argument("--ground-truth", required=True,
                   help="benchmark spec like 'coin(0.36)' or a reference CSV")
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--no-smoothing", action="store_true")
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("report", help="summarize a run report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProbError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
