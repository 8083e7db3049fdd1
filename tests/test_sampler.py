import itertools
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowsmc import benchmarks, sampler
from flowsmc.frontend import desugar, parse_source
from flowsmc.pcfg import build_pcfg, straight_line
from flowsmc.sampler import (
    BLACKLISTED, RunConfig, SamplePool, adjust_weights, prepare_flow, run,
)
from flowsmc.smc import run_smc
from flowsmc.bandit import ArmRegistry, update
from flowsmc.metrics import ground_truth, kl_divergence, summarize

from conftest import first_flows, nth_flow


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    with pytest.raises(ValueError):
        RunConfig(weight_mode="magic")
    for bad in (0, -1):
        with pytest.raises(ValueError):
            RunConfig(max_flow_len=bad)
    # each pool column must fit in one numpy array of doubles
    rows = np.iinfo(np.intp).max // 8
    assert RunConfig(budget=rows, particles=1).budget == rows
    with pytest.raises(ValueError, match="more samples than one array"):
        RunConfig(budget=rows + 1, particles=1)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0


def test_pull_arm_blacklisted_flows():
    g = benchmarks.build("coin", 0.36)
    assert prepare_flow(g, nth_flow(g, 0)) is BLACKLISTED  # both heads
    assert prepare_flow(g, nth_flow(g, 3)) is BLACKLISTED  # both tails


def test_pull_arm_live_coin_flow():
    g = benchmarks.build("coin", 0.36)
    rng = np.random.default_rng(0)
    cfg = RunConfig(budget=1, particles=256)
    program = prepare_flow(g, nth_flow(g, 1))
    assert program is not BLACKLISTED
    res = run_smc(program, cfg.particles, rng)
    assert res.evidence == pytest.approx(0.2304, abs=1e-15)
    assert (res.values == 1.0).all()


def test_pull_arm_unifcd_shallow_flow_blacklisted():
    g = benchmarks.build("unifCd", 10)
    assert prepare_flow(g, nth_flow(g, 9)) is BLACKLISTED


def test_report_counts_cdpg_steps_of_one_run():
    g = benchmarks.build("obsLoop", 3, 10)
    cfg = RunConfig(budget=60, particles=10, seed=1)
    first, second = (run(g, cfg).report["enumeration"] for _ in range(2))
    assert first == second  # each run starts from an empty memo
    flows = first_flows(g, first["flows_examined"], cfg.max_flow_len)
    assert first["cdpg_steps"] == sum(len(straight_line(g, f).steps)
                                      for f in flows)
    assert first["cdpg_memo_hits"] > 0 and first["cdpg_noop_steps"] > 0
    assert first["cdpg_memo_hits"] + first["cdpg_noop_steps"] \
        <= first["cdpg_steps"]


_FRESH_RUN = """
import json, sys
from flowsmc import benchmarks
from flowsmc.sampler import RunConfig, run
name, params, seed = json.loads(sys.argv[1])
r = run(benchmarks.build(name, *params),
        RunConfig(budget=40, particles=20, seed=seed))
print(json.dumps([r.weights.tolist(), r.values.tolist(), list(r.flow_ids)]))
"""


def test_runs_in_one_process_share_no_state():
    # a second run of obsLoop after condDemo sees whatever the earlier runs
    # left behind in this process; a fresh interpreter sees nothing
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    fresh = {}
    for config in (("obsLoop", (3, 10), 3), ("condDemo", (), 4),
                   ("obsLoop", (3, 10), 3)):
        name, params, seed = config
        r = run(benchmarks.build(name, *params),
                RunConfig(budget=40, particles=20, seed=seed))
        here = [r.weights.tolist(), r.values.tolist(), list(r.flow_ids)]
        assert len(r.flow_ids) > 0
        if config not in fresh:
            proc = subprocess.run(
                [sys.executable, "-c", _FRESH_RUN, json.dumps(config)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            fresh[config] = json.loads(proc.stdout)
        assert here == fresh[config], config


def test_blacklisted_flows_never_reach_pool():
    g = benchmarks.build("coin", 0.36)
    result = run(g, RunConfig(budget=200, seed=8))
    live = {"0-1-2-4-5-7-8-9", "0-1-3-4-5-6-8-9"}
    assert set(result.pool.weight_sums) <= live
    assert result.report["blacklisted"]["count"] == 2


def test_coin_pool_balance_across_seeds():
    g = benchmarks.build("coin", 0.36)
    ratios = []
    for seed in range(10):
        result = run(g, RunConfig(budget=2_000, particles=10, seed=seed))
        pulls = [a.pulls for a in result.registry.arms.values()]
        assert len(pulls) == 2
        ratios.append(max(pulls) / min(pulls))
    assert np.mean(ratios) < 1.05


def test_geom_flow_likelihoods_converge():
    g = benchmarks.build("geomIt", 0.5, 0)
    result = run(g, RunConfig(budget=400, particles=20, seed=5))
    for arm in result.registry.arms.values():
        n = (len(arm.key.split("-")) - 3) // 4  # loop iterations in the id
        if arm.pulls >= 50:
            assert arm.p_hat == pytest.approx(0.5 ** n * 0.5, abs=1e-12)


def test_single_flow_program_degenerates_to_smc():
    g = build_pcfg(parse_source(
        "double x := 0.0;\nx ~ normal(0, 1);\nweight(0.5);\nreturn x;"))
    result = run(g, RunConfig(budget=50, particles=40, seed=1))
    assert len(result.registry.arms) == 1
    (arm,) = result.registry.arms.values()
    assert arm.pulls == 50
    assert arm.p_hat == pytest.approx(0.5, abs=1e-12)
    # per-arm adjustment cancels the constant weight exactly
    assert result.weights == pytest.approx(np.ones(50 * 40))


def test_empty_result_when_everything_blacklisted():
    g = build_pcfg(desugar(parse_source(
        "double x := 0.0;\nx ~ unif(0, 1);\nobserve(x < 0);\nreturn x;")))
    result = run(g, RunConfig(budget=20, seed=0))
    assert result.report["status"] == "empty"
    assert result.pool.size == 0 and len(result.weights) == 0
    assert result.report["blacklisted"]["count"] == 1
    assert result.report["rounds_completed"] == 0


def test_adjust_weights_per_arm_scalar_ratio():
    pool = SamplePool(1, 4)
    pool.append("f", np.full(4, 0.5), np.arange(4.0))
    reg = ArmRegistry()
    reg.add("f")
    update(reg, "f", 0.5)
    w, x, ids, dropped = adjust_weights(pool, reg, "per-arm")
    assert w == pytest.approx(np.ones(4))
    assert dropped == 0 and list(ids) == ["f"] * 4


def test_adjust_weights_importance_identity():
    pool = SamplePool(2, 2)
    pool.append("f", np.array([0.2, 0.4]), np.zeros(2))
    pool.append("f", np.array([0.1, 0.3]), np.zeros(2))
    reg = ArmRegistry()
    reg.add("f")
    update(reg, "f", 0.3)
    update(reg, "f", 0.2)
    w, _, _, dropped = adjust_weights(pool, reg, "importance")
    # per-flow adjusted weights sum to the empirical likelihood
    assert w.sum() == pytest.approx(reg.arms["f"].p_hat)
    assert dropped == 0


def test_adjust_weights_drops_zero_divisors():
    pool = SamplePool(1, 3)
    pool.append("dead", np.zeros(3), np.zeros(3))
    reg = ArmRegistry()
    reg.add("dead")
    update(reg, "dead", 0.0)
    for mode in ("per-arm", "importance"):
        w, x, ids, dropped = adjust_weights(pool, reg, mode)
        assert dropped == 3 and len(w) == len(x) == len(ids) == 0


def _adjust_by_pulls(pool, reg, mode):
    # the per-pull loop that `adjust_weights` replaced, kept as its reference:
    # each pull's rows adjusted on their own and concatenated
    J = pool.weights.shape[1]
    weights, values, flow_ids, dropped = [], [], [], 0
    for key, w, x in zip(pool.keys, pool.weights, pool.values):
        arm = reg.arms.get(key)
        if mode == "per-arm":
            divisor = arm.p_hat if arm is not None else 0.0
        else:
            divisor = pool.weight_sums.get(key, 0.0)
        if divisor <= 0.0:
            dropped += J
            continue
        weights.append(w / divisor if mode == "per-arm"
                       else arm.p_hat * w / divisor)
        values.append(x)
        flow_ids.extend([key] * J)
    if not weights:
        return np.zeros(0), np.zeros(0), flow_ids, dropped
    return np.concatenate(weights), np.concatenate(values), flow_ids, dropped


def _assert_same_adjustment(got, want):
    (w, x, ids, dropped), (rw, rx, rids, rdropped) = got, want
    assert w.tobytes() == rw.tobytes() and x.tobytes() == rx.tobytes()
    assert list(ids) == rids and len(ids) == len(w) == len(x)
    assert dropped == rdropped


@pytest.mark.parametrize("mode", ["per-arm", "importance"])
@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
def test_adjust_weights_matches_the_per_pull_loop(name, mode):
    # bit for bit, on the runs that tests/test_digests.py pins; obsLoop's
    # dead arms drop pulls, which must raise no 0/0 warning
    r = run(benchmarks.build(name),
            RunConfig(budget=150, particles=50, weight_mode=mode, seed=7))
    raw = r.pool.weights.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = adjust_weights(r.pool, r.registry, mode)
    assert r.pool.weights.tobytes() == raw
    want = _adjust_by_pulls(r.pool, r.registry, mode)
    _assert_same_adjustment(got, want)
    _assert_same_adjustment((r.weights, r.values, r.flow_ids,
                             r.report["pool"]["dropped_by_adjustment"]), want)
    assert (want[3] > 0) == (name == "obsLoop")


def test_adjust_weights_drops_a_pull_between_live_ones():
    pool = SamplePool(4, 2)
    reg = ArmRegistry()
    for key, w, x, evidence in (("a", [0.2, 0.6], [1.0, 2.0], 0.4),
                                ("dead", [0.0, -0.0], [0.0, 0.0], 0.0),
                                ("b", [0.5, 0.25], [3.0, 4.0], 0.375),
                                ("a", [0.1, 0.3], [5.0, 6.0], 0.2)):
        if key not in reg.arms:
            reg.add(key)
        pool.append(key, np.array(w), np.array(x))
        update(reg, key, evidence)
    columns = pool.weights.copy(), pool.values.copy()
    for mode in ("per-arm", "importance"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = adjust_weights(pool, reg, mode)
            second = adjust_weights(pool, reg, mode)
        want = _adjust_by_pulls(pool, reg, mode)
        _assert_same_adjustment(first, want)
        _assert_same_adjustment(second, want)
        assert list(first[1]) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert list(first[2]) == ["a", "a", "b", "b", "a", "a"]
        assert first[3] == 2
    # the pass leaves the raw columns as they were
    assert pool.weights.tobytes() == columns[0].tobytes()
    assert pool.values.tobytes() == columns[1].tobytes()


def test_run_result_rows_view_the_pool():
    # no pull dropped: the values are the pool's own column, and the flow
    # ids are each kept pull's key J times, stored once per pull
    g = benchmarks.build("geomIt", 0.5, 5)
    r = run(g, RunConfig(budget=80, particles=30, seed=2))
    assert r.report["pool"]["dropped_by_adjustment"] == 0
    assert np.shares_memory(r.values, r.pool.values)
    assert len(r.flow_ids) == len(r.weights) == len(r.values) == 80 * 30
    assert list(r.flow_ids) == np.repeat(r.pool.keys, 30).tolist()
    # a run that drops pulls keeps the ids of the kept pulls only
    g = benchmarks.build("obsLoop", 3, 10)
    r = run(g, RunConfig(budget=100, particles=20, seed=0))
    kept = [k for k in r.pool.keys if r.registry.arms[k].p_hat > 0.0]
    assert r.report["pool"]["dropped_by_adjustment"] > 0
    assert len(r.flow_ids) == len(r.weights) == len(kept) * 20
    assert list(r.flow_ids) == np.repeat(kept, 20).tolist()


def test_weight_modes_agree_on_coin():
    g = benchmarks.build("coin", 0.36)
    gt = ground_truth("coin", 0.36)
    kls = {}
    for mode in ("per-arm", "importance"):
        result = run(g, RunConfig(budget=500, particles=100, seed=4,
                                  weight_mode=mode))
        kls[mode] = kl_divergence(gt, result.values, result.weights)
    assert abs(kls["per-arm"] - kls["importance"]) < 0.01


def test_weight_modes_differ_only_by_pull_shares():
    # Criterion 8's known red on geomIt(0.5,5) is a scheduler limit, not an
    # adjustment fault: per-arm mode gives each arm a mass of exactly
    # J x pulls, and reweighting by p_hat share / pull share recovers the
    # importance weights.  The run is the criterion's own.
    g = benchmarks.build("geomIt", 0.5, 5)
    J = 100
    result = run(g, RunConfig(budget=500, particles=J, seed=11))
    assert result.report["timeouts"] == 0
    reg, pool = result.registry, result.pool
    w_arm, _, ids, _ = adjust_weights(pool, reg, "per-arm")
    w_imp, _, ids_imp, _ = adjust_weights(pool, reg, "importance")
    ids = list(ids)
    assert ids == list(ids_imp)
    ids = np.array(ids)
    live = [k for k, a in reg.arms.items() if a.p_hat > 0.0]
    assert len(live) > 1
    for k in live:
        mass = w_arm[ids == k].sum()
        assert mass == pytest.approx(J * reg.arms[k].pulls, rel=1e-12)
    total_pulls = sum(a.pulls for a in reg.arms.values())
    total_p_hat = sum(a.p_hat for a in reg.arms.values())
    share_ratio = {k: (reg.arms[k].p_hat / total_p_hat)
                   / (reg.arms[k].pulls / total_pulls) for k in live}
    rescaled = w_arm * np.array([share_ratio[k] for k in ids])
    np.testing.assert_allclose(rescaled / rescaled.sum(), w_imp / w_imp.sum(),
                               rtol=1e-12, atol=0.0)


def test_geom_posterior_mean():
    # expected iteration count r / (1 - r) = 1 for r = 0.5, x0 = 0; importance
    # adjustment pins each arm's mass to its empirical likelihood, so the
    # estimate converges at this budget even while expansion keeps adding
    # negligible deep arms
    g = benchmarks.build("geomIt", 0.5, 0)
    result = run(g, RunConfig(budget=600, particles=50, seed=12,
                              weight_mode="importance"))
    mean, _ = summarize(result.values, result.weights)
    assert mean == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("name,params,bound", [
    ("unifCd", (10,), 0.05),
    ("poisCd", (6, 20), 0.05),
    ("geomIt", (0.5, 5), 0.02),
])
def test_end_to_end_kl_against_closed_forms(name, params, bound):
    g = benchmarks.build(name, *params)
    result = run(g, RunConfig(budget=150, particles=100, seed=2,
                              weight_mode="importance"))
    gt = ground_truth(name, *params)
    assert kl_divergence(gt, result.values, result.weights) < bound


def test_mixed_rare_branch_posterior():
    # the rare branch is reached through a restricted draw with mass 1-Phi(5),
    # so the mixture weights come out right without ever rejecting
    g = benchmarks.build("mixed", 5)
    result = run(g, RunConfig(budget=200, particles=100, seed=6,
                              weight_mode="importance"))
    gt = ground_truth("mixed", 5)
    assert kl_divergence(gt, result.values, result.weights) < 0.05
    arms = sorted(result.registry.arms.values(), key=lambda a: a.p_hat)
    assert arms[0].p_hat == pytest.approx(2.866515719235352e-07, rel=1e-9)


def test_unifcd2_moments_match_reference_scale():
    g = benchmarks.build("unifCd2", 10)
    result = run(g, RunConfig(budget=200, particles=100, seed=3,
                              weight_mode="importance"))
    mean, std = summarize(result.values, result.weights)
    assert 10.0 < mean < 12.0
    assert 3.0 < std < 4.5


def test_run_reproducible():
    g = benchmarks.build("coin", 0.36)
    cfg = RunConfig(budget=300, particles=30, seed=123)
    a = run(g, cfg, collect_timing=False)
    b = run(g, cfg, collect_timing=False)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.values, b.values)
    assert list(a.flow_ids) == list(b.flow_ids)
    assert a.report == b.report


def test_output_does_not_depend_on_clock(monkeypatch):
    # a clock that jumps 10 s per reading must not change a single sample
    g = benchmarks.build("obsLoop", 3, 10)
    cfg = RunConfig(budget=60, particles=50, seed=3)
    real = run(g, cfg, collect_timing=False)
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: 10.0 * next(ticks))
    jumpy = run(g, cfg, collect_timing=False)
    assert next(ticks) > 0  # the fake clock was read
    assert np.array_equal(jumpy.weights, real.weights)
    assert np.array_equal(jumpy.values, real.values)
    assert list(jumpy.flow_ids) == list(real.flow_ids)
    assert jumpy.report == real.report


def test_report_counts_dead_pulls():
    # a dead pull stops early: its J rows hold weight 0 and value 0.0
    g = benchmarks.build("obsLoop", 3, 5)
    result = run(g, RunConfig(budget=100, particles=20, seed=0))
    pool, arms = result.report["pool"], result.report["arms"]
    assert len(result.pool.keys) == len(result.pool.weights) == 100  # all rows
    dead = ~result.pool.weights.any(axis=1)
    assert pool["dead_pulls"] == np.count_nonzero(dead) > 0
    assert not result.pool.values[dead].any()
    assert sum(a["dead_pulls"] for a in arms) == pool["dead_pulls"]
    assert all(0 <= a["dead_pulls"] <= a["pulls"] for a in arms)


def test_report_has_each_arms_ess_health(monkeypatch):
    # every ESS that each arm's pulls logged, and their resamples; each pull
    # runs `run_smc` and then feeds its key to `bandit.update`
    g = benchmarks.build("obsLoop", 3, 5)
    results, keys = [], []
    real_smc, real_update = sampler.run_smc, sampler.bandit.update
    monkeypatch.setattr(sampler, "run_smc",
                        lambda *a, **k: results.append(real_smc(*a, **k))
                        or results[-1])
    monkeypatch.setattr(sampler.bandit, "update",
                        lambda reg, key, ev: keys.append(key)
                        or real_update(reg, key, ev))
    report = run(g, RunConfig(budget=60, particles=50, seed=0)).report
    assert sum(a["resamples"] for a in report["arms"]) \
        == report["pool"]["resampled_stages"] > 0
    for arm in report["arms"]:
        mine = [r for r, key in zip(results, keys) if key == arm["flow"]]
        ess = [e for r in mine for e in r.ess_log]
        assert len(mine) == arm["pulls"] and ess
        assert arm["ess_min"] == min(ess)
        assert arm["ess_mean"] == pytest.approx(sum(ess) / len(ess), rel=1e-12)
        assert arm["resamples"] == sum(r.resample_count for r in mine)
    assert any(0 < a["ess_min"] < a["ess_mean"] for a in report["arms"])


@pytest.mark.parametrize("weight", ["", "weight(1e-170);\n"],
                         ids=["no-check", "nan-ess"])
def test_report_ess_health_of_an_arm_without_an_ess(weight):
    # no weight, so no ESS check; or squared weights that underflow, so
    # every ESS is nan and left out: the ESS fields are None
    src = f"double x := 0.0;\nx ~ unif(0, 1);\n{weight}return x;"
    g = build_pcfg(parse_source(src))
    (arm,) = run(g, RunConfig(budget=5, particles=10)).report["arms"]
    assert arm["ess_min"] is None and arm["ess_mean"] is None
    assert arm["resamples"] == 0


def test_report_contents():
    g = benchmarks.build("coin", 0.36)
    result = run(g, RunConfig(budget=100, particles=10, seed=0))
    report = result.report
    assert report["config"]["budget"] == 100
    assert report["pool"]["size"] == result.pool.size == 100 * 10
    assert report["rounds_completed"] == 100 == sum(a["pulls"]
                                                    for a in report["arms"])
    assert {a["flow"] for a in report["arms"]} == set(result.registry.arms)
    assert all(set(a) >= {"flow", "p_hat", "pulls"} for a in report["arms"])
    assert "timing" in report
    assert report["pool"]["zero_weight_fraction"] == 0.0  # restricted draws
