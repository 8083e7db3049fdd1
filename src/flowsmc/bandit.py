"""Epsilon-greedy scheduler for sampling arms in proportion to their unknown
likelihoods, learned as running means of noisy pulls.

Each round does one of three things: expand (adopt a fresh arm while the
known-arm count is below t^(2/3)), explore (uniform over known arms, with
probability eps_t = min(1, (k ln t / t)^(1/3))), or exploit (pick an arm in
proportion to its empirical likelihood).  `decide` returns None to expand
and the key of the known arm to pull otherwise.  `decide_known` makes the
same pick among the known arms alone, for rounds that cannot expand, such
as a run whose arms are all known from the start.  When every empirical
likelihood is still zero the proportional pick falls back to uniform, which
keeps the round total where the literal proportional rule would divide by
zero.
"""
from __future__ import annotations

import math

import numpy as np


def epsilon(t: int, k_known: int) -> float:
    """Exploration rate min(1, (k ln t / t)^(1/3)); natural log, 0 at t = 1."""
    if t < 1:
        raise ValueError("rounds are counted from 1")
    if k_known <= 0:
        return 0.0
    return min(1.0, (k_known * math.log(t) / t) ** (1.0 / 3.0))


class ArmState:
    def __init__(self, key):
        self.key = key
        self.p_hat = 0.0  # running mean of observed likelihoods
        self.pulls = 0


class ArmRegistry:
    def __init__(self, fresh_exhausted: bool = False):
        self.arms: dict = {}  # key -> ArmState, insertion order
        self.t = 1
        self.fresh_exhausted = fresh_exhausted

    @property
    def known(self) -> int:
        return len(self.arms)

    def add(self, key) -> ArmState:
        if key in self.arms:
            raise ValueError(f"arm {key!r} already known")
        state = ArmState(key)
        self.arms[key] = state
        return state


def _pick_known(reg: ArmRegistry, rng):
    keys = list(reg.arms.keys())
    if rng.random() < epsilon(reg.t, reg.known):
        return keys[rng.integers(len(keys))]
    p = np.array([reg.arms[k].p_hat for k in keys])
    total = p.sum()
    if total <= 0.0:
        return keys[rng.integers(len(keys))]
    idx = int(np.searchsorted(np.cumsum(p) / total, rng.random(), side="right"))
    return keys[min(idx, len(keys) - 1)]


def decide(reg: ArmRegistry, rng):
    """This round's action: None to expand, or the key of the known arm to
    pull.  Expansion applies while the known-arm count is below t^(2/3) and
    fresh arms remain; with no known arms the only possible action is
    expansion."""
    if reg.known == 0 or (not reg.fresh_exhausted
                          and reg.known < reg.t ** (2.0 / 3.0)):
        return None
    return _pick_known(reg, rng)


def decide_known(reg: ArmRegistry, rng):
    """The key of a known arm, picked at random or in proportion, for rounds
    that cannot expand."""
    if reg.known == 0:
        raise ValueError("no known arms to pick from")
    return _pick_known(reg, rng)


def update(reg: ArmRegistry, key, p: float) -> None:
    """Record an observed likelihood: the empirical likelihood stays the mean
    of all observations for the arm; the round counter advances."""
    if p < 0.0:
        raise ValueError("observed likelihood must be nonnegative")
    arm = reg.arms[key]
    arm.p_hat = (arm.p_hat * arm.pulls + p) / (arm.pulls + 1)
    arm.pulls += 1
    reg.t += 1
