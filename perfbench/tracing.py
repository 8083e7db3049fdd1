"""Spans around the flowsmc layers, installed from outside the package.

`installed(tracer)` replaces the module attributes that `sampler.run`, the
baselines and the benchmark's own set-up look up with wrappers that record a
span (name, start, end, parent) per call, and restores every original
attribute on exit.  Nothing in `src/` changes; runs with tracing off execute
the unwrapped code.

`smc.compile_expr` recurses through its module attribute, so it is counted on
every call but given a span only at the outermost call.  `dists.restrict` is
split by the layer of its parent span, because both `condprop.cdpg` and the
SMC plan compilation call it.
"""
from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from flowsmc import bandit, baselines, dists, frontend, pcfg, sampler, smc

_COMPILE = "smc.compile_expr"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0,
                               self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_recursive(self, name, fn):
        spanned = self.wrap(name, fn)

        def traced(*args, **kwargs):
            self.counts[name] += 1
            if self._open and self.spans[self._open[-1]][0] == name:
                return fn(*args, **kwargs)
            return spanned(*args, **kwargs)
        return traced


def _count_steps(key):
    def count(counts, args, result):
        counts[key] += len(result.steps)
    return count


def _count_particle_steps(counts, args, result):
    program, particles = args[0], args[1]
    counts["smc.particle_steps"] += particles * len(program.steps)


def _patch_table(t: Tracer) -> list:
    """(owner, attribute, replacement) for every traced entry point."""
    w = t.wrap
    return [
        (frontend, "parse_source", w("frontend.parse", frontend.parse_source)),
        (frontend, "desugar", w("frontend.parse", frontend.desugar)),
        (pcfg, "build_pcfg", w("pcfg.build", pcfg.build_pcfg)),
        (pcfg, "validate", w("pcfg.build", pcfg.validate)),
        (sampler, "run", w("sampler.run", sampler.run)),
        (sampler, "adjust_weights", w("sampler.adjust", sampler.adjust_weights)),
        (pcfg.FlowEnumerator, "next_complete",
         w("pcfg.enumerate", pcfg.FlowEnumerator.next_complete)),
        (sampler, "straight_line",
         w("pcfg.straight_line", sampler.straight_line,
           _count_steps("pcfg.slp_steps"))),
        (sampler, "cdpg",
         w("condprop.cdpg", sampler.cdpg, _count_steps("condprop.steps_out"))),
        (sampler, "is_blacklisted",
         w("condprop.is_blacklisted", sampler.is_blacklisted)),
        (bandit, "decide", w("bandit.decide", bandit.decide)),
        (bandit, "decide_known", w("bandit.decide", bandit.decide_known)),
        (bandit, "update", w("bandit.update", bandit.update)),
        (sampler, "run_smc",
         w("smc.run_smc", sampler.run_smc, _count_particle_steps)),
        (smc, "compile_expr", t.wrap_recursive(_COMPILE, smc.compile_expr)),
        (dists, "restrict", w("dists.restrict", dists.restrict)),
        (dists, "draw_batch", w("dists.draw_batch", dists.draw_batch)),
        (dists.RestrictedDist, "sample",
         w("dists.rsample", dists.RestrictedDist.sample)),
        (baselines, "baseline_rejection",
         w("baselines.rejection", baselines.baseline_rejection)),
        (baselines, "baseline_whole_smc",
         w("baselines.whole_smc", baselines.baseline_whole_smc)),
    ]


@contextlib.contextmanager
def installed(t: Tracer):
    """Install the tracer's wrappers; restore every original on exit."""
    table = _patch_table(t)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, replacement in table:
            setattr(owner, attr, replacement)
        yield t
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# reduction of one traced call to per-layer numbers


def self_times(spans: list):
    """(key, self seconds, inclusive seconds) per span; `dists.restrict` keys
    carry the layer of their parent span as a suffix."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        key = name
        if name == "dists.restrict":
            key += "." + (spans[parent][0].split(".")[0] if parent >= 0 else "none")
        out.append((key, end - start - child[i], end - start))
    return out


def tail_percentile(n: int):
    """Highest of 99.9/99/90/50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def layer_metrics(t: Tracer, report: dict) -> dict:
    """Per-layer numbers of one traced call; `report` is the sampler report
    (empty for the baselines workload)."""
    secs = defaultdict(float)
    calls = Counter()
    pulls_ms = []
    for key, self_s, incl_s in self_times(t.spans):
        secs[key] += self_s
        calls[key] += 1
        if key == "smc.run_smc":
            pulls_ms.append(incl_s * 1000.0)
    run_s = sum(end - start for name, start, end, parent in t.spans
                if parent < 0 and name in ("sampler.run", "baselines.rejection",
                                           "baselines.whole_smc"))
    m = {
        "frontend.parse_s": secs["frontend.parse"],
        "pcfg.build_s": secs["pcfg.build"],
        "pcfg.enumerate_s": secs["pcfg.enumerate"],
        "pcfg.straight_line_s": secs["pcfg.straight_line"],
        "pcfg.slp_steps": t.counts["pcfg.slp_steps"],
        "condprop.cdpg_s": secs["condprop.cdpg"],
        "condprop.cdpg_calls": calls["condprop.cdpg"],
        "condprop.steps_out": t.counts["condprop.steps_out"],
        "condprop.is_blacklisted_s": secs["condprop.is_blacklisted"],
        "dists.restrict_calls.condprop": calls["dists.restrict.condprop"],
        "dists.restrict_s.condprop": secs["dists.restrict.condprop"],
        "dists.restrict_calls.smc": calls["dists.restrict.smc"],
        "dists.restrict_s.smc": secs["dists.restrict.smc"],
        "dists.draw_batch_calls": calls["dists.draw_batch"],
        "dists.draw_batch_s": secs["dists.draw_batch"],
        "dists.rsample_calls": calls["dists.rsample"],
        "dists.rsample_s": secs["dists.rsample"],
        "smc.run_smc_s": secs["smc.run_smc"],
        "smc.compile_expr_calls": t.counts[_COMPILE],
        "smc.compile_expr_s": secs[_COMPILE],
        "smc.pulls": len(pulls_ms),
        "smc.particle_steps": t.counts["smc.particle_steps"],
        "bandit.decide_s": secs["bandit.decide"],
        "bandit.update_s": secs["bandit.update"],
        "sampler.adjust_s": secs["sampler.adjust"],
        "sampler.self_s": secs["sampler.run"],
        "baselines.rejection_s": secs["baselines.rejection"],
        "baselines.whole_smc_s": secs["baselines.whole_smc"],
        "trace.run_s": run_s,
        "trace.coverage": 1.0 - secs["sampler.run"] / run_s if run_s > 0 else 0.0,
    }
    pct = tail_percentile(len(pulls_ms))
    m["smc.pull_ms_p50"] = float(np.median(pulls_ms)) if pulls_ms else 0.0
    m["smc.pull_tail_pct"] = pct or 0.0
    m["smc.pull_ms_tail"] = float(np.percentile(pulls_ms, pct)) if pct else 0.0
    arms = report.get("arms", [])
    enum = report.get("enumeration", {})
    pool = report.get("pool", {})
    flows = enum.get("flows_examined", 0)
    pulls = np.array([a["pulls"] for a in arms], dtype=float)
    p_hat = np.array([a["p_hat"] for a in arms], dtype=float)
    tv = 0.0
    if pulls.sum() > 0 and p_hat.sum() > 0:
        tv = 0.5 * float(np.abs(pulls / pulls.sum() - p_hat / p_hat.sum()).sum())
    m.update({
        "pcfg.flows_examined": flows,
        "pcfg.hit_length_cap": int(enum.get("hit_length_cap", False)),
        "condprop.blacklisted": report.get("blacklisted", {}).get("count", 0),
        "condprop.live_ratio": len(arms) / flows if flows else 0.0,
        "smc.resamples": pool.get("resampled_stages", 0),
        "smc.zero_weight_frac": pool.get("zero_weight_fraction", 0.0),
        "smc.timeouts": report.get("timeouts", 0),
        "smc.anomalies": pool.get("eval_anomalies", 0),
        "bandit.arms": len(arms),
        "bandit.pull_tv": tv,
    })
    return m
