"""Posterior sampling for imperative probabilistic programs.

The pipeline: parse a program, build its control-flow graph, enumerate
complete control flows, simplify each flow's straight-line program by
backward condition propagation (with domain restriction and logical
blacklisting), estimate per-flow likelihoods by SMC, and schedule flow pulls
with an epsilon-greedy sampler so pooled samples converge to the posterior.

Import the modules themselves (`flowsmc.frontend`, `flowsmc.pcfg`,
`flowsmc.sampler`, ...).  The package imports none of them, so parsing and
graph building load neither numpy nor scipy.
"""

__version__ = "0.1.0"
