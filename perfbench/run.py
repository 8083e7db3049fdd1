#!/usr/bin/env python3
"""The flowsmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The workloads are in `workloads.py`; `README.md` says why each was chosen
and which layer numbers a change should move.

A run is a closed loop: one caller makes blocking calls one after another,
call i with seed 1000 * N + i.  The number of calls is fixed by the workload
and `--seconds`, so two runs of the same code and seed do the same work and
print the same output digest.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  run_s        median wall seconds of one call
  setup_s      median wall seconds for a fresh interpreter to import flowsmc
               and parse, desugar, build and validate the program
  peak_rss_mb  peak resident memory of the benchmark process
--trace 1 runs each call twice, untraced and then traced, and prints the
per-layer metrics of the traced calls (medians over calls).  Spans are kept
in memory and written to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from flowsmc import benchmarks, frontend, pcfg
src = benchmarks.source(sys.argv[2], *json.loads(sys.argv[3]))
g = pcfg.build_pcfg(frontend.desugar(frontend.parse_source(src)))
sys.exit(1 if pcfg.validate(g) else 0)
"""


def measure_setup(w) -> float:
    """Median wall time of SETUP_REPS fresh interpreters, after one warm-up
    that also writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), w.program,
           json.dumps(list(w.params))]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=60)
        if rep:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(path: Path, traced: list) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for i, tracer in enumerate(traced):
            json.dump({"call": i, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
            fh.write("\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    import tracing

    w = workloads.WORKLOADS[workload]
    g = workloads.build_graph(w)
    calls = max(2, round(seconds / w.nominal_s))
    if trace:
        calls = max(1, calls // 2)
    outcomes, layer, traced = [], [], []
    for i in range(calls):
        s = 1000 * seed + i
        out = workloads.call(w, g, s)
        outcomes.append(out)
        if not trace:
            continue
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_out = workloads.call(w, workloads.build_graph(w), s)
        traced.append(tracer)
        if traced_out.digest != out.digest:
            timed = out.timed_out or traced_out.timed_out
            traced_out.errors.append(
                f"traced output differs from untraced at seed {s} "
                f"({'a pull timed out' if timed else 'no pull timed out'})")
        outcomes.append(traced_out)
        m = tracing.layer_metrics(tracer, traced_out.report)
        m["trace.overhead"] = m["trace.run_s"] / out.seconds
        m["oracle.kl"] = traced_out.kl
        m["oracle.ess_per_s"] = out.ess / out.seconds
        m["baselines.accept_ratio"] = traced_out.extras.get("accept_ratio", 0.0)
        m["baselines.live_sweeps"] = traced_out.extras.get("live_sweeps", 0)
        layer.append(m)

    untraced = outcomes[::2] if trace else outcomes
    errors = [f"call {i}: {e}" for i, o in enumerate(outcomes) for e in o.errors]
    digest = workloads.digest([o.digest for o in untraced])
    print(f"perfbench: workload={workload} seed={seed} calls={len(untraced)} "
          f"digest={digest} kl={statistics.median(o.kl for o in untraced):.6g} "
          f"timeouts={'yes' if any(o.timed_out for o in outcomes) else 'no'}")
    for e in errors:
        print(f"perfbench: {workload}: check failed: {e}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        write_spans(OUT / f"{workload}-seed{seed}.spans.jsonl", traced)
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        wanted = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(o.seconds for o in outcomes),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": measure_setup(w),
        }
        wanted = spec["end_to_end"]
    if values.keys() != {m["name"] for m in wanted}:
        raise KeyError(f"measured {sorted(values)}, BENCHMARK.json names "
                       f"{sorted(m['name'] for m in wanted)}")
    return {
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowsmc" / "__init__.py").is_file():
        print(f"perfbench: no flowsmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowsmc
    if Path(flowsmc.__file__).resolve().parent != SRC / "flowsmc":
        print(f"perfbench: imported flowsmc from {flowsmc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
