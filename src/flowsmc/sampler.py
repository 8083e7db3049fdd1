"""The hierarchical sampler: flow enumeration and blacklisting on top,
per-flow SMC underneath, and a sample pool that keeps one row per pull.

Each round the scheduler either adopts a freshly enumerated control flow or
re-pulls a known one.  A candidate flow is converted to its straight-line
program, simplified by condition propagation, and discarded outright when the
simplified program is statically dead; blacklisted candidates never become
arms, never advance the round counter, and are capped at `EXPAND_ATTEMPTS`
per round so one round cannot stall on a long run of dead flows.  A
successful pull fills the pool's next row and feeds the SMC evidence
estimate back to the scheduler as the flow's observed likelihood.
A dead pull, one whose every weight became 0, still fills its row with J
weights of 0; where `smc.run_smc` can stop it early, its values are 0.0.

Everything the report says per arm, and the pool counters beside it, is a
grouped reduction over the pool's rows: each arm's `weight_sum`,
`dead_pulls` and `resamples`, and its SMC health from its pulls' `ess_log`,
`ess_min` and `ess_mean` over every ESS its checks logged (a nan ESS, from
squared weights that underflowed, is left out; None when no check logged
one).  Sums add an arm's pulls in pull order, so they keep the bits of a
running total.

Condition propagation shares one step memo across the flows of a run, as a
loop flow repeats the backward steps of the flow one iteration shorter; the
memo only caches, so a flow propagates to the same program as with a fresh
one.  SMC shares one table of compiled ops across the pulls of a run, so
each arm's plan is compiled once.  The memo and the op table end with the
run, so no state passes from one run to the next; the report counts the
memo's steps, hits and skipped no-op steps under `enumeration`.

After the round budget is spent the pooled weights are adjusted once, in a
pass that leaves the pool as it is: per-arm mode divides each weight by its
flow's empirical likelihood (the pull frequency already accounts for it);
importance mode rescales each flow's rows to its empirical likelihood,
dividing by the arm's `weight_sum` from the same reduction as the report.
Pulls are strictly sequential; a single seeded generator drives the whole
run, so identical configurations reproduce identical pools bit for bit.
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np

from . import bandit
from .condprop import StepMemo, cdpg, is_blacklisted
from .pcfg import (
    MAX_FLOW_LEN, ControlFlow, FlowEnumerator, Pcfg, straight_line,
)
from .smc import SmcResult, run_smc
from .syntax import Node

# flows a round may enumerate before it gives up on finding a live one
EXPAND_ATTEMPTS = 64


class RunConfig(Node):
    def __init__(self, budget: int = 1000, particles: int = 100,
                 weight_mode: str = "per-arm", seed: int = 0,
                 max_flow_len: int = MAX_FLOW_LEN):
        # weight_mode: "per-arm" | "importance"
        if budget < 1 or particles < 1:
            raise ValueError("budget and particle count must be positive")
        if weight_mode not in ("per-arm", "importance"):
            raise ValueError(f"unknown weight mode {weight_mode!r}")
        # no flow fits under a length cap below 1
        if max_flow_len < 1:
            raise ValueError("flow length cap must be positive")
        if seed < 0:  # numpy seeds only with nonnegative integers
            raise ValueError(f"seed must be nonnegative, got {seed}")
        # the pool keeps budget x particles doubles in each of two arrays
        if budget * particles > np.iinfo(np.intp).max // 8:
            raise ValueError(
                f"budget x particles = {budget * particles} is more "
                "samples than one array can hold")
        d = self.__dict__
        d["budget"], d["particles"] = budget, particles
        d["weight_mode"], d["seed"] = weight_mode, seed
        d["max_flow_len"] = max_flow_len


class SamplePool:
    """One row per pull, in pull order.  Row i holds pull i's flow id
    (`keys[i]`), its J raw weights and values (row i of two (budget, J)
    arrays; `np.empty` commits a row's memory only when the row is
    written), and its SMC health in six (budget,) columns: resamples,
    anomalies, the dead flag, and the least, sum and count of the ESSs its
    checks logged, a nan ESS left out (the least is inf where none is)."""

    def __init__(self, budget: int, particles: int):
        self.weights = np.empty((budget, particles))
        self.values = np.empty((budget, particles))
        self.keys: list = []  # one flow id per pull
        self.resamples = np.zeros(budget, dtype=np.int64)
        self.anomalies = np.zeros(budget, dtype=np.int64)
        self.dead = np.zeros(budget, dtype=bool)
        self.ess_min = np.full(budget, np.inf)
        self.ess_sum = np.zeros(budget)
        self.ess_count = np.zeros(budget, dtype=np.int64)

    def append(self, flow_id: str, result: SmcResult):
        i = len(self.keys)
        self.weights[i], self.values[i] = result.weights, result.values
        self.resamples[i] = result.resample_count
        self.anomalies[i], self.dead[i] = result.anomalies, result.dead
        ess = [e for e in result.ess_log if e == e]  # leave nan out
        if ess:
            self.ess_min[i], self.ess_sum[i], self.ess_count[i] = \
                min(ess), sum(ess), len(ess)
        self.keys.append(flow_id)

    @property
    def size(self) -> int:
        return len(self.keys) * self.weights.shape[1]

    def zero_weight_fraction(self) -> float:
        return np.count_nonzero(self.weights[:len(self.keys)] == 0.0) / max(self.size, 1)


class FlowIds(Node):
    """The flow id of each adjusted row: each kept pull's key, J times."""

    def __init__(self, keys: list, particles: int):
        d = self.__dict__
        d["keys"], d["particles"] = keys, particles

    def __len__(self) -> int:
        return len(self.keys) * self.particles

    def __iter__(self):
        return (key for key in self.keys for _ in range(self.particles))


BLACKLISTED = "blacklisted"


def prepare_flow(g: Pcfg, flow: ControlFlow, memo: Optional[StepMemo] = None):
    """Propagated straight-line program for a flow, or BLACKLISTED."""
    program = cdpg(straight_line(g, flow), memo=memo)
    if is_blacklisted(program):
        return BLACKLISTED
    return program


class RunResult:
    """Adjusted weights, values and flow ids row by row, from the raw pool."""

    def __init__(self, weights: np.ndarray, values: np.ndarray,
                 flow_ids: FlowIds, pool: SamplePool,
                 registry: bandit.ArmRegistry, report: dict):
        self.weights, self.values, self.flow_ids = weights, values, flow_ids
        self.pool, self.registry, self.report = pool, registry, report


def _arm_rows(pool: SamplePool, reg: bandit.ArmRegistry):
    """Each pull's arm, as the position of its key in `reg.arms`, and each
    arm's row of the report: the pool's columns reduced over the arm's
    pulls, the sums by `np.bincount`, which adds them in pull order, and the
    least ESS by `np.minimum.at`.  An arm's raw weight sum adds the row sums
    of its pulls' weights."""
    index = {key: i for i, key in enumerate(reg.arms)}
    n, k = len(pool.keys), len(index)
    arm = np.array([index[key] for key in pool.keys], dtype=np.intp)
    weight_sum, dead, resamples, ess_sum, checks = (
        np.bincount(arm, column[:n], k).tolist() for column in (
            pool.weights[:n].sum(axis=1), pool.dead, pool.resamples,
            pool.ess_sum, pool.ess_count))
    least = np.full(k, np.inf)
    np.minimum.at(least, arm, pool.ess_min[:n])
    return arm, [
        {"flow": key, "p_hat": state.p_hat, "pulls": state.pulls,
         "dead_pulls": int(dead[i]), "weight_sum": weight_sum[i],
         # the ESS fields are None when no check logged an ESS
         "ess_min": float(least[i]) if checks[i] else None,
         "ess_mean": ess_sum[i] / checks[i] if checks[i] else None,
         "resamples": int(resamples[i])}
        for i, (key, state) in enumerate(reg.arms.items())]


def adjust_weights(pool: SamplePool, reg: bandit.ArmRegistry, mode: str):
    """Final reweighting pass, which leaves the pool unchanged.

    per-arm: (w / p_hat_k, x); importance: ((p_hat_k * w) / w_sum_k, x).
    Pulls whose divisor is zero are dropped and their rows counted; values
    are copied only then, and are otherwise a view of the pool's column.
    """
    if mode not in ("per-arm", "importance"):
        raise ValueError(f"unknown weight mode {mode!r}")
    arm, rows = _arm_rows(pool, reg)
    p_hat = np.array([row["p_hat"] for row in rows])[arm]
    divisor = p_hat if mode == "per-arm" else \
        np.array([row["weight_sum"] for row in rows])[arm]
    n = len(pool.keys)
    w, x = pool.weights[:n], pool.values[:n]
    kept = np.flatnonzero(divisor > 0.0)
    if len(kept) < n:
        w, x, p_hat, divisor = w[kept], x[kept], p_hat[kept], divisor[kept]
    if mode == "importance":
        w = p_hat[:, None] * w
    flow_ids = FlowIds([pool.keys[i] for i in kept], w.shape[1])
    return (w / divisor[:, None]).ravel(), x.ravel(), flow_ids, pool.size - x.size


def run(g: Pcfg, cfg: RunConfig, collect_timing: bool = True) -> RunResult:
    """Run the full hierarchical sampler for cfg.budget rounds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    enum = FlowEnumerator(g, max_len=cfg.max_flow_len)
    reg = bandit.ArmRegistry()
    pool = SamplePool(cfg.budget, cfg.particles)
    arms: dict = {}  # flow_id -> propagated straight-line program
    memo = StepMemo()  # cdpg steps, shared by the flows of this run only
    ops: dict = {}  # compiled plans and ops, shared by the pulls of this run
    blacklisted_count = 0
    blacklisted_examples: list = []

    def try_expand() -> Optional[str]:
        nonlocal blacklisted_count
        for _ in range(EXPAND_ATTEMPTS):
            flow = enum.next_complete()
            if flow is None:
                reg.fresh_exhausted = True
                return None
            prepared = prepare_flow(g, flow, memo)
            if prepared is BLACKLISTED:
                blacklisted_count += 1
                if len(blacklisted_examples) < 10:
                    blacklisted_examples.append(flow.flow_id)
                continue
            arms[flow.flow_id] = prepared
            reg.add(flow.flow_id)
            return flow.flow_id
        return None

    while reg.t <= cfg.budget:
        key = bandit.decide(reg, rng)
        if key is None:
            key = try_expand()
            if key is None:
                if reg.known == 0:
                    if enum.exhausted:
                        break  # nothing pullable at all
                    continue  # burn more enumeration work next round
                key = bandit.decide_known(reg, rng)

        result = run_smc(arms[key], cfg.particles, rng, ops=ops)
        pool.append(key, result)
        bandit.update(reg, key, result.evidence)

    weights, values, flow_ids, dropped = adjust_weights(pool, reg, cfg.weight_mode)
    n = len(pool.keys)
    report = {
        "config": dict(vars(cfg)),  # the five fields, in order
        "status": ("empty" if not pool.size else
                   "ok" if np.isfinite(weights).all() else "nonfinite"),
        "rounds_completed": reg.t - 1,  # update advances t once per pull
        "arms": _arm_rows(pool, reg)[1],
        "blacklisted": {
            "count": blacklisted_count,
            "examples": blacklisted_examples,
        },
        "pool": {
            "size": pool.size,
            "zero_weight_fraction": pool.zero_weight_fraction(),
            "dropped_by_adjustment": dropped,
            "resampled_stages": int(pool.resamples[:n].sum()),
            "eval_anomalies": int(pool.anomalies[:n].sum()),
            "dead_pulls": int(pool.dead[:n].sum()),
        },
        # always 0, as no pull has a time limit; perfbench reads the key
        "timeouts": 0,
        "enumeration": {
            "flows_examined": enum.emitted,
            "exhausted": enum.exhausted,
            "hit_length_cap": enum.hit_length_cap,
            "cdpg_steps": memo.steps,
            "cdpg_memo_hits": memo.hits,
            "cdpg_noop_steps": memo.noops,
        },
    }
    if collect_timing:
        report["timing"] = {"wall_ms": (time.perf_counter() - t0) * 1000.0}
    return RunResult(weights, values, flow_ids, pool, reg, report)
