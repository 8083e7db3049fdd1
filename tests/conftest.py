from typing import Optional

import numpy as np
import pytest

from flowsmc import benchmarks
from flowsmc.bandit import ArmRegistry, decide_known, update
from flowsmc.condprop import cdpg
from flowsmc.frontend import desugar, parse_source
from flowsmc.pcfg import FlowEnumerator, build_pcfg, straight_line


def first_flows(g, count, max_len=None):
    """The first `count` complete flows in enumeration order, fewer if the
    enumerator runs out."""
    cursor = FlowEnumerator(g, max_len=max_len)
    flows = []
    while len(flows) < count:
        flow = cursor.next_complete()
        if flow is None:
            break
        flows.append(flow)
    return flows


def nth_flow(g, n):
    """The n-th complete flow in enumeration order (0-based)."""
    flows = first_flows(g, n + 1)
    assert len(flows) == n + 1
    return flows[-1]


def evidence_se(res):
    """Standard error of an SmcResult's evidence, treating its final weights
    as iid.  After resampling the particles are correlated and this
    understates the spread."""
    n = len(res.weights)
    if n < 2:
        return 0.0
    return float(np.std(res.weights, ddof=1) / np.sqrt(n))


def flow_program(name, params, iterations, optimized=False):
    """Straight-line program of the benchmark's n-iteration flow."""
    g = benchmarks.build(name, *params)
    s = straight_line(g, nth_flow(g, iterations))
    return cdpg(s) if optimized else s


def run_finite(oracles, budget: int, rng,
               checkpoints: Optional[list] = None) -> dict:
    """Finite-arm sampling: all arms known from the start, no expansion.

    `oracles` is a sequence of callables rng -> observed likelihood in [0, 1]
    with mean equal to the arm's true likelihood.  Returns the pulled-arm
    sequence plus visit-count snapshots at the requested checkpoint rounds.
    """
    K = len(oracles)
    if K == 0 or budget < 1:
        raise ValueError("need at least one arm and one round")
    reg = ArmRegistry(fresh_exhausted=True)
    for k in range(K):
        reg.add(k)
    history = np.empty(budget, dtype=np.int64)
    snaps = {}

    def pulls():
        return np.array([a.pulls for a in reg.arms.values()], dtype=np.int64)

    marks = sorted(set(checkpoints or []))
    for t in range(1, budget + 1):
        k = decide_known(reg, rng)
        update(reg, k, float(oracles[k](rng)))
        history[t - 1] = k
        if marks and t == marks[0]:
            snaps[t] = pulls()
            marks.pop(0)
    return {"history": history, "pulls": pulls(),
            "p_hat": np.array([a.p_hat for a in reg.arms.values()]),
            "checkpoints": snaps}


# Small programs that drive the whole-program sweep into shapes the corpus
# does not reach, each with the step cap its baselines run at.  The tests
# that use them check that the shape occurs.
SWEEP_PROGRAMS = {
    # the longer branch is numbered first, so its particles reach the join
    # while the shorter branch's are there and move on in the same iteration
    "unequal_branches": ("""double x := 0.0;
double y := 0.0;
double z := 0.0;
x ~ uniform(0, 1);
if (x < 0.5) { y := x * 2; z ~ normal(y, 1); } else { y := x + 1; }
observe(y + z > 0.3);
y := y + z;
return z;
""", 10_000),
    # each pass through the loop halves the ESS or worse, while particles
    # leave the loop at different passes; `done` marks the finished ones
    "observe_in_loop": ("""double x := 0.0;
double y := 0.0;
double b := 1.0;
double done := 0.0;
while (b > 0.5) {
  y ~ uniform(0, 1);
  observe(y < 0.4);
  x := x + y;
  b ~ bernoulli(0.6);
}
done := 1.0;
return x;
""", 10_000),
    # a loop that runs past the cap for some particles
    "capped_loop": ("""double x := 0.0;
double b := 1.0;
while (b > 0.5) {
  x := x + 1;
  b ~ bernoulli(0.8);
}
return x;
""", 12),
    # a negative standard deviation and a negative weight zero particles
    # between other steps
    "invalid_mid_sweep": ("""double x := 0.0;
double y := 0.0;
x ~ uniform(0, 1);
y ~ normal(0, x - 0.2);
weight(x - 0.4);
y := y + x;
observe(y > -1);
return y;
""", 10_000),
    # no command: the graph starts at its final location
    "no_commands": ("""double x := 1.5;
return x;
""", 10_000),
    # `unused` and `spare` are read by no label, only by the return value
    "unread_variables": ("""double x := 0.0;
double unused := 2.5;
double spare := 0.0;
x ~ normal(0, 1);
spare := x * 2;
observe(x > 0);
return x + unused + spare;
""", 10_000),
}


def sweep_graph(name):
    """The control-flow graph of a `SWEEP_PROGRAMS` entry."""
    return build_pcfg(desugar(parse_source(SWEEP_PROGRAMS[name][0])))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
