from typing import Optional

import numpy as np
import pytest

from flowsmc import benchmarks
from flowsmc.bandit import ArmRegistry, decide_known, update
from flowsmc.condprop import cdpg
from flowsmc.pcfg import FlowEnumerator, straight_line


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


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
