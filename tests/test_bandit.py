import math

import numpy as np
import pytest

from flowsmc.bandit import ArmRegistry, decide, decide_known, epsilon, update

from conftest import run_finite


def test_epsilon_zero_at_first_round():
    assert epsilon(1, 5) == 0.0


def test_epsilon_formula():
    assert epsilon(8, 2) == pytest.approx((2 * math.log(8) / 8) ** (1 / 3))
    assert epsilon(8, 2) == pytest.approx(0.8040731770787362, abs=1e-12)
    assert epsilon(10 ** 6, 10) == pytest.approx(0.051695845932463354, abs=1e-12)


def test_epsilon_clamped():
    assert epsilon(2, 50) == 1.0


def test_epsilon_rejects_bad_round():
    with pytest.raises(ValueError):
        epsilon(0, 3)


def test_decide_expands_first(rng):
    reg = ArmRegistry()
    assert decide(reg, rng) is None


def test_decide_never_expands_when_exhausted(rng):
    reg = ArmRegistry(fresh_exhausted=True)
    reg.add("a")
    reg.arms["a"].p_hat = 0.4
    for _ in range(50):
        assert decide(reg, rng) == "a"


def test_decide_proportional_frequencies(rng):
    reg = ArmRegistry(fresh_exhausted=True)
    reg.add("a")
    reg.add("b")
    reg.arms["a"].p_hat = 0.9
    reg.arms["b"].p_hat = 0.1
    reg.t = 10 ** 12  # exploration rate ~ 4e-4
    picks = [decide(reg, rng) for _ in range(100_000)]
    freq_a = picks.count("a") / len(picks)
    assert freq_a == pytest.approx(0.9, abs=0.01)


def test_decide_all_zero_estimates_fall_back_to_uniform(rng):
    reg = ArmRegistry(fresh_exhausted=True)
    for k in ("a", "b", "c", "d"):
        reg.add(k)
    reg.t = 10 ** 12
    picks = [decide(reg, rng) for _ in range(20_000)]
    assert set(picks) == {"a", "b", "c", "d"}
    freq = np.array([picks.count(k) for k in ("a", "b", "c", "d")])
    assert (np.abs(freq / len(picks) - 0.25) < 0.02).all()


def test_update_is_running_mean():
    reg = ArmRegistry()
    reg.add("a")
    update(reg, "a", 0.3)
    assert reg.arms["a"].p_hat == 0.3 and reg.arms["a"].pulls == 1
    update(reg, "a", 0.1)
    assert reg.arms["a"].p_hat == pytest.approx(0.2)
    assert reg.t == 3  # advanced once per completed round


def test_update_zero_observations_drive_estimate_down():
    reg = ArmRegistry()
    reg.add("a")
    update(reg, "a", 0.8)
    last = reg.arms["a"].p_hat
    for _ in range(30):
        update(reg, "a", 0.0)
        assert reg.arms["a"].p_hat <= last
        last = reg.arms["a"].p_hat
    assert last == pytest.approx(0.8 / 31)


def test_update_matches_observation_log(rng):
    reg = ArmRegistry()
    reg.add("a")
    seen = []
    for _ in range(200):
        p = float(rng.uniform(0, 1))
        seen.append(p)
        update(reg, "a", p)
    assert reg.arms["a"].p_hat == pytest.approx(np.mean(seen), abs=1e-12)


def test_expansion_count_bounds(rng):
    # registry driven round by round against an unlimited fresh-arm source
    reg = ArmRegistry()
    T = 500
    fresh = iter(range(10 ** 6))
    expansions = 0
    while reg.t <= T:
        key = decide(reg, rng)
        if key is None:
            key = next(fresh)
            reg.add(key)
            expansions += 1
        update(reg, key, 0.5)
    assert expansions <= math.ceil(T ** (2 / 3)) + 1
    assert expansions >= math.floor(T ** (2 / 3))


def test_run_finite_single_arm(rng):
    out = run_finite([lambda r: 1.0], 500, rng)
    assert (out["history"] == 0).all()
    assert out["pulls"][0] == 500


def test_run_finite_deterministic_oracles(rng):
    p = (0.6, 0.3, 0.1)
    T = 100_000
    oracles = [lambda r, v=v: v for v in p]
    out = run_finite(oracles, T, rng)
    freq = out["pulls"] / T
    # residual exploration at this horizon biases frequencies toward uniform
    # by about 0.026 on the top arm, so 0.03 is the attainable envelope
    assert np.abs(freq - np.array(p)).max() < 0.03
    avg_eps = np.mean([min(1.0, epsilon(t, 3)) for t in range(1, T + 1)])
    adjusted = avg_eps / 3 + (1 - avg_eps) * np.array(p)
    assert np.abs(freq - adjusted).max() < 0.01


def test_run_finite_noisy_bernoulli(rng):
    means = (0.5, 0.25)
    oracles = [lambda r, m=m: float(r.random() < m) for m in means]
    out = run_finite(oracles, 100_000, rng)
    freq = out["pulls"] / 100_000
    assert abs(freq[0] - 2 / 3) < 0.03
    assert abs(freq[1] - 1 / 3) < 0.03


def test_run_finite_checkpoints_are_prefix_counts(rng):
    oracles = [lambda r: 0.7, lambda r: 0.3]
    out = run_finite(oracles, 2_000, rng, checkpoints=[500, 2_000])
    assert set(out["checkpoints"]) == {500, 2_000}
    assert out["checkpoints"][500].sum() == 500
    assert (out["checkpoints"][2_000] == out["pulls"]).all()


def test_zero_likelihood_arm_gets_only_exploration(rng):
    means = (0.5, 0.5, 0.0)
    oracles = [lambda r, m=m: m for m in means]
    T = 50_000
    out = run_finite(oracles, T, rng)
    dead_pulls = out["pulls"][2]
    expected = sum(min(1.0, epsilon(t, 3)) for t in range(1, T + 1)) / 3
    # uniform fallback rounds before the first nonzero observation add a few
    assert expected / 2 < dead_pulls < expected * 2


def test_decide_known_requires_arms(rng):
    with pytest.raises(ValueError):
        decide_known(ArmRegistry(), rng)
