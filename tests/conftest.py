import numpy as np
import pytest

from flowsmc import benchmarks
from flowsmc.condprop import cdpg
from flowsmc.pcfg import FlowEnumerator, straight_line


def nth_flow(g, n):
    """The n-th complete flow in enumeration order (0-based)."""
    cursor = FlowEnumerator(g)
    flow = None
    for _ in range(n + 1):
        flow = cursor.next_complete()
        assert flow is not None
    return flow


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


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
