#!/usr/bin/env python3
"""Record the benchmark's end-to-end numbers of one checkout in a JSON file.

    python3 scripts/record_bench.py BENCH_2.json [--root DIR] [--against BENCH_1.json]

For every workload that BENCHMARK.json names and every seed from 0 to 9,
this runs `perfbench/run.py --workload W --seed N --seconds S --trace 0`
from the root of the checkout (S is the benchmark's `run_seconds`), in a
fresh interpreter, one run at a time.  The file holds the checkout's git
revision and, per workload, the median `run_s`, `setup_s` and `peak_rss_mb`
over the seeds with their quartiles, the output digest of each seed, whether
every run was correct and how many operations failed.

With --against, it then prints each workload's median of every metric as a
ratio to the older record's, next to the older median and, where the older
record has them, its quartiles, marked "inside" when the new median lies
between them: a move inside the older spread is spread, not a change.  It
exits with 1 when the digest of any seed differs from the older record's.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
SEEDS = list(range(10))


def parse_run(stdout: str) -> dict:
    """Digest, correctness and end-to-end metrics of one perfbench run."""
    lines = stdout.strip().splitlines()
    digest = next(m.group(1) for line in lines
                  if (m := re.match(r"perfbench: workload=\S+ .*digest=(\S+)", line)))
    result = json.loads(lines[-1])
    return {
        "digest": digest,
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: float(result["metrics"][k]["value"]) for k in METRICS},
    }


def aggregate(runs: dict) -> dict:
    """Per-workload summary of {seed: parse_run(...)}."""
    values = {k: [r["metrics"][k] for r in runs.values()] for k in METRICS}
    return {
        "median": {k: statistics.median(v) for k, v in values.items()},
        "quartiles": {k: statistics.quantiles(v, n=4, method="inclusive")[::2]
                      for k, v in values.items()},
        "digests": {str(seed): runs[seed]["digest"] for seed in sorted(runs)},
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
    }


def _ratio(k: str, now: dict, old: dict) -> str:
    """The new median of metric k as a ratio to the old, with the old
    median and, where the old record has them, its quartiles."""
    median, base = now["median"][k], old["median"][k]
    out = f"{k} {median / base:.3f}x (base {base:.3f}"
    if "quartiles" in old:
        lo, hi = old["quartiles"][k]
        out += f", IQR [{lo:.3f}, {hi:.3f}]"
        if lo <= median <= hi:
            out += " inside"
    return out + ")"


def compare(record: dict, base: dict) -> tuple:
    """(report lines, whether every digest matches) of a record against an
    older one."""
    lines, same = [], True
    for name, now in record["workloads"].items():
        old = base["workloads"].get(name)
        if old is None:
            lines.append(f"{name}: not in the older record")
            continue
        ratios = ", ".join(_ratio(k, now, old) for k in METRICS)
        changed = [seed for seed, d in now["digests"].items()
                   if old["digests"].get(seed) != d]
        same = same and not changed
        digests = (f"digests differ at seeds {', '.join(changed)}" if changed
                   else "digests identical")
        lines.append(f"{name}: {ratios}; {digests}")
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="JSON file to write, e.g. BENCH_2.json")
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="checkout to measure (default: this one)")
    parser.add_argument("--against", type=Path, default=None,
                        help="older record to compare with, e.g. BENCH_1.json")
    args = parser.parse_args(argv)
    base = json.loads(args.against.read_text()) if args.against else None

    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    runs = {name: {} for name in names}
    for seed in SEEDS:
        for name in names:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=args.root, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            runs[name][seed] = parse_run(proc.stdout)
            print(f"{name} seed {seed}: {runs[name][seed]['metrics']}",
                  file=sys.stderr)

    revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.root,
                              capture_output=True, text=True, check=True)
    record = {
        "revision": revision.stdout.strip(),
        "seconds": seconds,
        "seeds": SEEDS,
        "workloads": {name: aggregate(runs[name]) for name in names},
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    if base is None:
        return 0
    lines, same = compare(record, base)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
