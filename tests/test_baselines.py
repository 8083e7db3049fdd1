import numpy as np
import pytest

from flowsmc import baselines, benchmarks
from flowsmc.baselines import (
    _compile_graph, baseline_rejection, baseline_whole_smc,
)
from flowsmc.frontend import desugar, parse_source
from flowsmc.metrics import ground_truth, kl_divergence
from flowsmc.pcfg import build_pcfg, straight_line
from flowsmc.smc import run_smc

from conftest import SWEEP_PROGRAMS, nth_flow, sweep_graph


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


_CONSTANT_GUARDS = {
    "if": """double x := 0.0;
double y := 0.0;
double c := 0.0;
x ~ uniform(0, 1);
if (GUARD) { y ~ normal(x, 1); observe(y > 0.5); } else { y := 5; }
return y;
""",
    "while": """double x := 0.0;
double c := 0.0;
while (GUARD) { x ~ uniform(0, 1); observe(x < 0.5); }
return x;
""",
}


@pytest.mark.parametrize("shape", sorted(_CONSTANT_GUARDS))
@pytest.mark.parametrize("guard,twin", [("true", "c == 0"),
                                        ("false", "c != 0")])
def test_baselines_run_a_constant_guard_as_its_variable_twin(shape, guard,
                                                             twin):
    # a constant guard compiles to a scalar; it must send every particle the
    # way a guard read from the state sends them, draw for draw
    def graph(g):
        src = _CONSTANT_GUARDS[shape].replace("GUARD", g)
        return build_pcfg(desugar(parse_source(src)))

    constant, variable = graph(guard), graph(twin)
    for sweeps in (1, 3):
        got = baseline_whole_smc(constant, 50, np.random.default_rng(1),
                                 step_cap=20, sweeps=sweeps)
        want = baseline_whole_smc(variable, 50, np.random.default_rng(1),
                                  step_cap=20, sweeps=sweeps)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]
    got = baseline_rejection(constant, 200, np.random.default_rng(1),
                             step_cap=20)
    want = baseline_rejection(variable, 200, np.random.default_rng(1),
                              step_cap=20)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # `while (true)` never ends, so the cap zeroes every run
    assert (got[0] == 0.0).all() == (shape == "while" and guard == "true")


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


def test_whole_smc_moves_a_particle_again_only_where_its_own_sweep_was():
    # one particle per sweep: it never finds its own sweep at the location
    # it moves to, so it takes one edge per iteration, and the 6-edge branch
    # (the one that draws z) cannot finish within 5, whatever the other
    # sweeps occupy
    g = sweep_graph("unequal_branches")
    w, z, live = baseline_whole_smc(g, 1, np.random.default_rng(3),
                                    step_cap=5, sweeps=64)
    longer = z != 0.0
    assert longer.any() and not longer.all()
    assert (w[longer] == 0.0).all() and (w[~longer] == 1.0).all()
    assert live == np.count_nonzero(~longer)


def test_whole_smc_runs_its_sweeps_in_chunks(monkeypatch):
    # whole_program's 250 sweeps of 1,000 particles are one population,
    # and none is larger than rejection's 1,000,000 particles
    assert 250 * 1000 <= baselines.CHUNK_PARTICLES <= 1_000_000
    g = sweep_graph("observe_in_loop")
    J = 30
    w2, x2, _ = baseline_whole_smc(g, J, np.random.default_rng(9), sweeps=2)
    w4, x4, _ = baseline_whole_smc(g, J, np.random.default_rng(9), sweeps=4)
    assert not np.array_equal(w4[:2 * J], w2)  # one population of 4 sweeps
    monkeypatch.setattr(baselines, "CHUNK_PARTICLES", 2 * J)
    w4, x4, live = baseline_whole_smc(g, J, np.random.default_rng(9), sweeps=4)
    assert np.array_equal(w4[:2 * J], w2) and np.array_equal(x4[:2 * J], x2)
    # a chunk smaller than one sweep holds one sweep: the sweeps run one
    # after another, as separate one-sweep runs on the generator do
    monkeypatch.setattr(baselines, "CHUNK_PARTICLES", J - 1)
    rng, one_by_one = np.random.default_rng(9), np.random.default_rng(9)
    w, x, live = baseline_whole_smc(g, J, rng, sweeps=3)
    runs = [baseline_whole_smc(g, J, one_by_one) for _ in range(3)]
    assert np.array_equal(w, np.concatenate([r[0] for r in runs]))
    assert np.array_equal(x, np.concatenate([r[1] for r in runs]))
    assert live == sum(r[2] for r in runs)
    assert rng.bit_generator.state == one_by_one.bit_generator.state


def test_whole_smc_dead_sweep_draws_nothing_beside_resampling_sweeps():
    # per sweep of 4: no survivor leaves total weight 0 and no resampling;
    # one survivor has ESS 1 < 2 and resamples onto it with one uniform;
    # more survivors keep their weights
    g = build_pcfg(desugar(parse_source(
        "double x := 0.0;\nx ~ uniform(0, 1);\nobserve(x < 0.3);\n"
        "return x;")))
    J, S = 4, 16
    rng = np.random.default_rng(11)
    w, x, live = baseline_whole_smc(g, J, rng, sweeps=S)
    ref = np.random.default_rng(11)
    drawn = ref.random(S * J).reshape(S, J)
    survivors = (drawn < 0.3).sum(axis=1)
    assert (survivors == 0).any() and (survivors == 1).any()
    ref.random(np.count_nonzero(survivors == 1))  # one uniform per resampling
    assert rng.bit_generator.state == ref.bit_generator.state
    w, x = w.reshape(S, J), x.reshape(S, J)
    for k in range(S):
        if survivors[k] == 1:
            assert (w[k] == 0.25).all()
            assert (x[k] == drawn[k][drawn[k] < 0.3]).all()
        else:
            assert np.array_equal(w[k], (drawn[k] < 0.3).astype(float))
            assert np.array_equal(x[k], drawn[k])
    assert live == np.count_nonzero(survivors)


def _ratio_and_se(num, den):
    """Ratio of the sums of per-group numerators and denominators, and its
    delta-method standard error over the groups."""
    ratio = num.sum() / den.sum()
    resid = num - ratio * den
    return ratio, float(np.sqrt(resid.var(ddof=1) / len(num)) / den.mean())


@pytest.mark.parametrize("name", sorted(
    name for name in SWEEP_PROGRAMS if "weight" in sweep_graph(name).kinds))
def test_whole_smc_agrees_with_rejection_on_the_sweep_programs(name):
    # evidence and the posterior mass of value bins, independent sweeps
    # against independent runs, within 4 standard errors
    g = sweep_graph(name)
    cap = SWEEP_PROGRAMS[name][1]
    J, S, N = 50, 2_000, 200_000
    ws, xs, _ = baseline_whole_smc(g, J, np.random.default_rng(21),
                                   step_cap=cap, sweeps=S)
    wr, xr = baseline_rejection(g, N, np.random.default_rng(22), step_cap=cap)
    per_sweep = ws.reshape(S, J).mean(axis=1)
    gap = abs(per_sweep.mean() - wr.mean())
    se = np.hypot(per_sweep.std(ddof=1) / np.sqrt(S), wr.std(ddof=1) / np.sqrt(N))
    assert gap < 4 * se
    edges = np.unique(np.quantile(xr[wr > 0.0], [0.2, 0.4, 0.6, 0.8]))
    bins_s, bins_r = np.searchsorted(edges, xs), np.searchsorted(edges, xr)
    for b in range(len(edges) + 1):
        ps, ses = _ratio_and_se(
            (ws * (bins_s == b)).reshape(S, J).sum(axis=1),
            ws.reshape(S, J).sum(axis=1))
        pr, ser = _ratio_and_se(wr * (bins_r == b), wr)
        assert abs(ps - pr) < 4 * np.hypot(ses, ser), b
