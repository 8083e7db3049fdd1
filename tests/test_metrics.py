import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowsmc import benchmarks
from flowsmc.baselines import baseline_rejection
from flowsmc.metrics import (
    GroundTruth, MetricsError, ground_truth, kl_divergence, parse_gt_spec,
    summarize,
)


def test_summarize_uniform_weights():
    mean, std = summarize([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(math.sqrt(2 / 3))


def test_summarize_zero_weights_excluded():
    mean, std = summarize([5.0, 100.0], [1.0, 0.0])
    assert (mean, std) == (5.0, 0.0)


def test_summarize_requires_positive_mass():
    with pytest.raises(MetricsError):
        summarize([1.0], [0.0])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_summarize_matches_numpy_on_unit_weights(xs):
    xs = np.asarray(xs)
    mean, std = summarize(xs, np.ones(len(xs)))
    assert mean == pytest.approx(float(xs.mean()), abs=1e-9)
    assert std == pytest.approx(float(xs.std()), abs=1e-9)


def test_kl_identical_categorical_is_zero():
    gt = GroundTruth("categorical", categories={0.0: 0.5, 1.0: 0.5})
    values = np.array([0.0, 1.0])
    weights = np.array([2.0, 2.0])
    assert kl_divergence(gt, values, weights) == 0.0


def test_kl_coin_formula():
    gt = GroundTruth("categorical", categories={0.0: 0.5, 1.0: 0.5})
    values = np.array([1.0, 0.0])
    weights = np.array([0.55, 0.45])
    expected = 0.5 * math.log(0.5 / 0.55) + 0.5 * math.log(0.5 / 0.45)
    assert kl_divergence(gt, values, weights) == pytest.approx(expected)
    assert kl_divergence(gt, values, weights) == pytest.approx(0.005025167926750729)


def test_kl_nonnegative_random(rng):
    gt = GroundTruth("categorical",
                     categories={float(k): 0.25 for k in range(4)})
    for _ in range(25):
        values = rng.integers(0, 4, size=200).astype(float)
        weights = rng.uniform(0.1, 1.0, size=200)
        assert kl_divergence(gt, values, weights) >= 0.0


def test_kl_smoothing_finite_vs_inf():
    gt = GroundTruth("categorical", categories={0.0: 0.5, 1.0: 0.5})
    values = np.array([0.0] * 10)
    weights = np.ones(10)
    smoothed = kl_divergence(gt, values, weights)
    assert math.isfinite(smoothed) and smoothed > 0.5
    assert kl_divergence(gt, values, weights, smoothing=False) == float("inf")


def test_kl_binned_against_density(rng):
    gt = ground_truth("unifCd", 3)
    xs = rng.uniform(0.0, 2.0 ** -2, size=200_000)
    kl = kl_divergence(gt, xs, np.ones(len(xs)))
    assert kl < 0.005


def test_binning_keeps_both_outer_edges_and_weighs_each_value():
    gt = GroundTruth("samples", samples=np.array([0.0, 0.5, 1.0, 2.0, 2.5]))
    # 2.0 sits on the last edge and counts; 2.5 lies outside
    assert gt.binned_masses(np.array([0.0, 1.0, 2.0])).tolist() == [0.5, 0.5]
    # an integer weight counts like that many copies of its value
    values, weights = np.array([0.1, 0.9, 2.0]), np.array([3.0, 1.0, 2.0])
    copies = np.repeat(values, [3, 1, 2])
    assert kl_divergence(gt, values, weights, bins=4) == kl_divergence(
        gt, copies, np.ones(len(copies)), bins=4) > 0.0


def test_kl_requires_mass():
    gt = GroundTruth("categorical", categories={0.0: 1.0})
    with pytest.raises(MetricsError):
        kl_divergence(gt, np.array([]), np.array([]))


def test_kl_weight_outside_the_categories_is_one_more_cell():
    gt = ground_truth("coin", 0.36)
    # half the weight at 7, which the truth never returns, halves q on 0 and 1
    values, weights = np.array([7.0, 0.0, 1.0]), np.array([2.0, 1.0, 1.0])
    assert kl_divergence(gt, values, weights) == pytest.approx(math.log(2.0))
    assert kl_divergence(gt, values[1:], weights[1:]) == 0.0


@pytest.mark.parametrize("truth,values", [
    (("coin", 0.36), [7.0, 8.0]),
    (("unifCd", 3), [5.0, 5.0]),
], ids=["categorical", "binned"])
def test_kl_needs_weight_where_the_truth_has_mass(truth, values):
    gt = ground_truth(*truth)
    with pytest.raises(MetricsError, match="no sample weight falls where"):
        kl_divergence(gt, np.array(values), np.ones(len(values)))


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_kl_rejects_negative_or_non_finite_weights(bad):
    gt = ground_truth("coin", 0.36)
    with pytest.raises(MetricsError, match=f"weight {bad!r} is not finite"):
        kl_divergence(gt, np.array([0.0, 1.0]), np.array([1.0, bad]))


def test_ground_truth_coin_is_fair_for_any_bias():
    for bias in (0.1, 0.36, 0.001):
        gt = ground_truth("coin", bias)
        assert gt.categories == {1.0: 0.5, 0.0: 0.5}


def test_ground_truth_unifcd_support():
    gt = ground_truth("unifCd", 10)
    hi = 2.0 ** -9
    assert gt.cdf(hi) == 1.0 and gt.cdf(hi / 2) == pytest.approx(0.5)
    assert gt.quantile(1.0) == pytest.approx(hi)


@pytest.mark.parametrize("t0", [0, 1, 2.5, 3])
def test_ground_truth_unifcd_bound_matches_the_program(rng, t0):
    # the depth is an integer of at least 1, so t0 = 2.5 acts as 3, and any
    # t0 up to 1 admits every draw
    gt = ground_truth("unifCd", t0)
    w, x = baseline_rejection(benchmarks.build("unifCd", t0), 100_000, rng)
    xs = x[w > 0]
    hi = gt.quantile(1.0)
    assert 0.99 * hi < xs.max() <= hi
    assert kl_divergence(gt, xs, np.ones(len(xs))) < 0.01


def test_ground_truth_geom_is_truncated_geometric():
    gt = ground_truth("geomIt", 0.5, 5)
    cats = gt.categories
    assert min(cats) == 5.0
    assert cats[5.0] == pytest.approx(0.5)
    assert cats[6.0] == pytest.approx(0.25)
    assert sum(cats.values()) == pytest.approx(1.0, abs=1e-12)


def test_ground_truth_poiscd_matches_truncated_poisson():
    gt = ground_truth("poisCd", 6, 4)
    cats = gt.categories
    assert min(cats) == 4.0
    from scipy import stats
    tail = 1.0 - stats.poisson.cdf(3, 6)
    assert cats[4.0] == pytest.approx(stats.poisson.pmf(4, 6) / tail, abs=1e-12)
    assert sum(cats.values()) == pytest.approx(1.0, abs=1e-12)


def test_ground_truth_mixed_density_normalized():
    gt = ground_truth("mixed", 0)
    assert gt.cdf(50.0) == pytest.approx(1.0, abs=1e-9)
    assert gt.cdf(-30.0) == pytest.approx(0.0, abs=1e-9)
    mid = gt.quantile(0.5)
    assert gt.cdf(mid) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("name,params", [
    ("coin", (0.36,)),
    ("unifCd", (3,)),
    ("geomIt", (0.5, 2)),
    ("poisCd", (6, 4)),
])
def test_closed_forms_cross_validate_against_rejection(rng, name, params):
    gt = ground_truth(name, *params)
    g = benchmarks.build(name, *params)
    accepted = []
    total = 0
    while total < 300_000:
        w, x = baseline_rejection(g, 200_000, rng)
        accepted.append(x[w > 0])
        total += len(accepted[-1])
    xs = np.concatenate(accepted)
    kl = kl_divergence(gt, xs, np.ones(len(xs)))
    assert kl < 0.01


def test_rejection_ground_truth_for_loop_benchmarks(rng):
    gt = ground_truth("unifCd2", 3, rng=rng, n_accept=50_000)
    assert gt.kind == "samples" and len(gt.samples) == 50_000
    mean = float(gt.samples.mean())
    assert 2.0 < mean < 6.0  # at least 3 unit-mean increments


def test_rejection_ground_truth_gives_up_when_too_rare(rng):
    with pytest.raises(MetricsError, match="too slow"):
        ground_truth("unifCd2", 20, rng=rng, n_accept=1_000,
                     max_attempts=50_000)


def test_parse_gt_spec():
    assert parse_gt_spec("coin(0.36)") == ("coin", (0.36,))
    assert parse_gt_spec("poisCd(6, 20)") == ("poisCd", (6.0, 20.0))
    assert parse_gt_spec("condDemo") == ("condDemo", ())
    with pytest.raises(MetricsError):
        parse_gt_spec("not a spec!")
