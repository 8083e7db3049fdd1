"""Posterior sampling for imperative probabilistic programs.

The pipeline: parse a program, build its control-flow graph, enumerate
complete control flows, simplify each flow's straight-line program by
backward condition propagation (with domain restriction and logical
blacklisting), estimate per-flow likelihoods by SMC, and schedule flow pulls
with an epsilon-greedy sampler so pooled samples converge to the posterior.
"""
from .frontend import desugar, parse, parse_source, pretty, tokenize
from .pcfg import (
    ControlFlow, FlowEnumerator, Pcfg, StraightLineProgram, build_pcfg,
    enumerate_flows, straight_line, validate,
)
from .condprop import cdpg, is_blacklisted
from .dists import DistInstance, Interval, IntervalUnion, restrict
from .smc import estimate_posterior_mc, run_smc
from .sampler import RunConfig, RunResult, adjust_weights, run
from .metrics import ground_truth, kl_divergence, summarize

__version__ = "0.1.0"

__all__ = [
    "ControlFlow", "DistInstance", "FlowEnumerator", "Interval",
    "IntervalUnion", "Pcfg", "RunConfig", "RunResult", "StraightLineProgram",
    "adjust_weights", "build_pcfg", "cdpg", "desugar", "enumerate_flows",
    "estimate_posterior_mc", "ground_truth", "is_blacklisted",
    "kl_divergence", "parse", "parse_source", "pretty", "restrict", "run",
    "run_smc", "straight_line",
    "summarize", "tokenize", "validate",
]
