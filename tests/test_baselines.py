import numpy as np
import pytest

from flowsmc import benchmarks
from flowsmc.baselines import (
    _compile_graph, baseline_rejection, baseline_whole_smc,
)
from flowsmc.frontend import desugar, parse_source
from flowsmc.metrics import ground_truth, kl_divergence
from flowsmc.pcfg import build_pcfg, straight_line
from flowsmc.smc import run_smc

from conftest import nth_flow


def test_coin_rejection_zero_weight_fraction(rng):
    g = benchmarks.build("coin", 0.36)
    w, x = baseline_rejection(g, 100_000, rng)
    # disagreeing pairs appear with probability 1 - (0.36^2 + 0.64^2)
    expected = 0.36 ** 2 + 0.64 ** 2
    assert (w == 0.0).mean() == pytest.approx(expected, abs=0.006)
    accepted = x[w > 0]
    assert (accepted == 1.0).mean() == pytest.approx(0.5, abs=0.01)


def test_coin_weighted_semantics_four_outcomes(rng):
    # the full weighted behaviour: (0, true) with 0.36^2, (1, true) with
    # 0.36*0.64, (1, false) with 0.64*0.36, (0, false) with 0.64^2
    g = benchmarks.build("coin", 0.36)
    w, x = baseline_rejection(g, 200_000, rng)
    n = len(w)
    observed = {
        (0.0, 1.0): ((w == 0) & (x == 1)).mean(),
        (1.0, 1.0): ((w == 1) & (x == 1)).mean(),
        (1.0, 0.0): ((w == 1) & (x == 0)).mean(),
        (0.0, 0.0): ((w == 0) & (x == 0)).mean(),
    }
    expected = {
        (0.0, 1.0): 0.36 ** 2,
        (1.0, 1.0): 0.36 * 0.64,
        (1.0, 0.0): 0.64 * 0.36,
        (0.0, 0.0): 0.64 ** 2,
    }
    for key, prob in expected.items():
        se = (prob * (1 - prob) / n) ** 0.5
        assert abs(observed[key] - prob) < 4 * se + 1e-4, key


def test_rejection_deterministic_program(rng):
    g = build_pcfg(parse_source("int z := 3;\nz := z + 4;\nreturn z;"))
    w, x = baseline_rejection(g, 500, rng)
    assert (w == 1.0).all() and (x == 7.0).all()


def test_rejection_unifcd20_accepts_almost_nothing(rng):
    g = benchmarks.build("unifCd", 20)
    w, _ = baseline_rejection(g, 100_000, rng)
    # acceptance probability is 2^-19: about 0.2 runs expected here
    assert int(np.count_nonzero(w > 0)) <= 3


def test_whole_smc_matches_ground_truth_on_coin(rng):
    g = benchmarks.build("coin", 0.36)
    w, x, live = baseline_whole_smc(g, 10_000, rng)
    assert live == 1
    kl = kl_divergence(ground_truth("coin", 0.36), x, w)
    assert kl < 0.01


def test_whole_smc_single_flow_matches_slp_smc():
    # on a branch-free program both drivers run the same kernel on the same
    # population, so equal seeds give bit-identical output; the observation
    # leaves about 31% of the particles alive, which triggers one resampling
    src = ("double x := 0.0;\ndouble y := 0.0;\nx ~ normal(0, 1);\n"
           "observe(x > 0.5);\ny ~ normal(x, 1);\nweight(1 / (1 + y * y));\n"
           "return y;")
    g = build_pcfg(desugar(parse_source(src)))
    s = straight_line(g, nth_flow(g, 0))
    w, x, live = baseline_whole_smc(g, 5_000, np.random.default_rng(3))
    res = run_smc(s, 5_000, np.random.default_rng(3))
    assert live == 1 and res.resample_count == 1
    assert np.array_equal(w, res.weights) and np.array_equal(x, res.values)
    w, x = baseline_rejection(g, 5_000, np.random.default_rng(4))
    res = run_smc(s, 5_000, np.random.default_rng(4), resample=False)
    assert np.array_equal(w, res.weights) and np.array_equal(x, res.values)


def test_whole_smc_starves_when_the_seed_draw_decides(rng):
    # the threshold variable is drawn once up front, so resampling clones
    # cannot restore diversity and whole sweeps die at the final observation
    g = benchmarks.build("unifCd", 20)
    _, _, live = baseline_whole_smc(g, 100, rng, sweeps=20)
    assert live == 0


def test_whole_smc_underflowing_weights_skip_resampling(rng):
    # squared weights underflow to zero while the total stays positive, so
    # the ESS is NaN: the sweep goes on without resampling
    src = "double x := 0.0;\nx ~ uniform(0, 1);\nweight(1e-170);\nreturn x;"
    g = build_pcfg(desugar(parse_source(src)))
    w, x, live = baseline_whole_smc(g, 100, rng)
    assert live == 1
    assert np.array_equal(w, np.full(100, 1e-170))
    assert np.unique(x).size == 100


def test_step_cap_zeroes_unfinished_runs(rng):
    # loop that never terminates: every run hits the cap and contributes 0
    src = ("double x := 0.0;\nwhile (x < 1) { x := x * 1; }\nreturn x;")
    g = build_pcfg(parse_source(src))
    w, _ = baseline_rejection(g, 100, rng, step_cap=50)
    assert (w == 0.0).all()


@pytest.mark.parametrize("stmt,kind", [
    ("weight(0.0001);", "scale"),
    ("observe(x < 0.2);", "observe"),
    ("weight(x * 0.0001);", "weight"),
])
def test_whole_smc_resamples_after_every_kind_of_weight(stmt, kind):
    # particles with x >= 0.1 take the branch that weighs them down, so the
    # ESS falls below half and the sweep resamples: every final weight is
    # then the same population mean
    src = ("double x := 0.0;\nx ~ uniform(0, 1);\n"
           f"if (x < 0.1) skip; else {stmt}\nreturn x;\n")
    g = build_pcfg(desugar(parse_source(src)))
    kinds = {entry[1].kind for entry in _compile_graph(g)[0]
             if entry[0] == "step"}
    assert kind in kinds
    w, _, _ = baseline_whole_smc(g, 200, np.random.default_rng(5))
    assert w.min() > 0.0 and np.unique(w).size == 1
    w, _ = baseline_rejection(g, 200, np.random.default_rng(5))
    assert np.unique(w).size > 1
