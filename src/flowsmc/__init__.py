"""Posterior sampling for imperative probabilistic programs.

The pipeline: parse a program, build its control-flow graph, enumerate
complete control flows, simplify each flow's straight-line program by
backward condition propagation (with domain restriction and logical
blacklisting), estimate per-flow likelihoods by SMC, and schedule flow pulls
with an epsilon-greedy sampler so pooled samples converge to the posterior.

The names below are exported lazily (PEP 562): each is imported from its
module on first access, so parsing and graph building load neither numpy
nor scipy.
"""
from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_SOURCES = {
    "desugar": "frontend", "parse": "frontend", "parse_source": "frontend",
    "pretty": "frontend", "tokenize": "frontend",
    "ControlFlow": "pcfg", "FlowEnumerator": "pcfg", "Pcfg": "pcfg",
    "StraightLineProgram": "pcfg", "build_pcfg": "pcfg",
    "enumerate_flows": "pcfg", "straight_line": "pcfg", "validate": "pcfg",
    "cdpg": "condprop", "is_blacklisted": "condprop",
    "Interval": "intervals", "IntervalUnion": "intervals",
    "DistInstance": "dists", "restrict": "dists",
    "estimate_posterior_mc": "smc", "run_smc": "smc",
    "RunConfig": "sampler", "RunResult": "sampler",
    "adjust_weights": "sampler", "run": "sampler",
    "ground_truth": "metrics", "kl_divergence": "metrics",
    "summarize": "metrics",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    # Nothing is cached, so a lookup never changes vars(flowsmc).  A
    # submodule name is not in _SOURCES, so `from flowsmc import sampler`
    # falls back to importing the submodule.
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
