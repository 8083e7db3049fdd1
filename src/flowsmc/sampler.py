"""The hierarchical sampler: flow enumeration and blacklisting on top,
per-flow SMC underneath, a weighted sample pool accumulating the output.

Each round the scheduler either adopts a freshly enumerated control flow or
re-pulls a known one.  A candidate flow is converted to its straight-line
program, simplified by condition propagation, and discarded outright when the
simplified program is statically dead; blacklisted candidates never become
arms, never advance the round counter, and are capped at `EXPAND_ATTEMPTS`
per round so one round cannot stall on a long run of dead flows.  A
successful pull fills the pool's next J rows and feeds the SMC evidence
estimate back to the scheduler as the flow's observed likelihood.
A dead pull, one whose every weight became 0, still pools J rows of weight
0; where `smc.run_smc` can stop it early, their values are 0.0.  The report
counts dead pulls per arm and for the pool under `dead_pulls`.  Each arm
also reports its SMC health from its pulls' `ess_log` and resample counts:
`ess_min` and `ess_mean` over every ESS its checks logged (a nan ESS, from
squared weights that underflowed, is left out; None when no check logged
one) and `resamples`.

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
importance mode rescales each flow's rows to its empirical likelihood.
Pulls are strictly sequential; a single seeded generator drives the whole
run, so identical configurations reproduce identical pools bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bandit
from .condprop import StepMemo, cdpg, is_blacklisted
from .pcfg import (
    MAX_FLOW_LEN, ControlFlow, FlowEnumerator, Pcfg, straight_line,
)
from .smc import run_smc

# flows a round may enumerate before it gives up on finding a live one
EXPAND_ATTEMPTS = 64


@dataclass(frozen=True)
class RunConfig:
    budget: int = 1000
    particles: int = 100
    weight_mode: str = "per-arm"  # "per-arm" | "importance"
    seed: int = 0
    max_flow_len: int = MAX_FLOW_LEN

    def __post_init__(self):
        if self.budget < 1 or self.particles < 1:
            raise ValueError("budget and particle count must be positive")
        if self.weight_mode not in ("per-arm", "importance"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        # no flow fits under a length cap below 1
        if self.max_flow_len < 1:
            raise ValueError("flow length cap must be positive")
        if self.seed < 0:  # numpy seeds only with nonnegative integers
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # the pool keeps budget x particles doubles in each of two arrays
        if self.budget * self.particles > np.iinfo(np.intp).max // 8:
            raise ValueError(
                f"budget x particles = {self.budget * self.particles} is more "
                "samples than one array can hold")


class SamplePool:
    """Pull i's J raw weights and values, in row i of two (budget, J) arrays;
    `np.empty` commits a row's memory only when the row is written."""

    def __init__(self, budget: int, particles: int):
        self.weights = np.empty((budget, particles))
        self.values = np.empty((budget, particles))
        self.keys: list = []  # one flow id per pull
        self.weight_sums: dict = {}  # flow_id -> sum of raw weights

    def append(self, flow_id: str, weights: np.ndarray, values: np.ndarray):
        self.weights[len(self.keys)] = weights
        self.values[len(self.keys)] = values
        self.keys.append(flow_id)
        self.weight_sums[flow_id] = self.weight_sums.get(flow_id, 0.0) \
            + float(weights.sum())

    @property
    def size(self) -> int:
        return len(self.keys) * self.weights.shape[1]

    def zero_weight_fraction(self) -> float:
        return np.count_nonzero(self.weights[:len(self.keys)] == 0.0) / max(self.size, 1)


@dataclass(frozen=True)
class FlowIds:
    """The flow id of each adjusted row: each kept pull's key, J times."""

    keys: list
    particles: int

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


@dataclass
class RunResult:
    """Adjusted weights, values and flow ids row by row, from the raw pool."""

    weights: np.ndarray
    values: np.ndarray
    flow_ids: FlowIds
    pool: SamplePool
    registry: bandit.ArmRegistry
    report: dict


def adjust_weights(pool: SamplePool, reg: bandit.ArmRegistry, mode: str):
    """Final reweighting pass, which leaves the pool unchanged.

    per-arm: (w / p_hat_k, x); importance: ((p_hat_k * w) / w_sum_k, x).
    Pulls whose divisor is zero are dropped and their rows counted; values
    are copied only then, and are otherwise a view of the pool's column.
    """
    if mode not in ("per-arm", "importance"):
        raise ValueError(f"unknown weight mode {mode!r}")
    p_hat = np.array([reg.arms[k].p_hat for k in pool.keys])
    divisor = p_hat if mode == "per-arm" else \
        np.array([pool.weight_sums[k] for k in pool.keys])
    n = len(pool.keys)
    w, x = pool.weights[:n], pool.values[:n]
    kept = np.flatnonzero(divisor > 0.0)
    if len(kept) < n:
        w, x, p_hat, divisor = w[kept], x[kept], p_hat[kept], divisor[kept]
    if mode == "importance":
        w = p_hat[:, None] * w
    flow_ids = FlowIds([pool.keys[i] for i in kept], w.shape[1])
    return (w / divisor[:, None]).ravel(), x.ravel(), flow_ids, pool.size - x.size


def _ess_health(h: list) -> dict:
    """An arm's ESS fields from its [least ESS, sum of ESS, ESS checks,
    resamples]; the ESS fields are None when no check logged an ESS."""
    least, total, checks, resamples = h
    return {"ess_min": least,
            "ess_mean": total / checks if checks else None,
            "resamples": resamples}


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
    resampled_stages = 0
    anomalies = 0
    dead_pulls: dict = {}  # flow_id -> pulls whose every weight became 0
    # flow_id -> [least ESS, sum of ESS, ESS checks, resamples]
    health: dict = {}

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
        resampled_stages += result.resample_count
        anomalies += result.anomalies
        if result.dead:
            dead_pulls[key] = dead_pulls.get(key, 0) + 1
        h = health.setdefault(key, [None, 0.0, 0, 0])
        ess = [e for e in result.ess_log if e == e]  # leave nan out
        if ess:
            h[0] = min(ess) if h[0] is None else min(h[0], min(ess))
            h[1] += sum(ess)
            h[2] += len(ess)
        h[3] += result.resample_count
        pool.append(key, result.weights, result.values)
        bandit.update(reg, key, result.evidence)

    weights, values, flow_ids, dropped = adjust_weights(pool, reg, cfg.weight_mode)
    report = {
        "config": asdict(cfg),
        "status": "ok" if pool.size else "empty",
        "rounds_completed": reg.t - 1,  # update advances t once per pull
        "arms": [
            {
                "flow": key,
                "p_hat": reg.arms[key].p_hat,
                "pulls": reg.arms[key].pulls,
                "dead_pulls": dead_pulls.get(key, 0),
                "weight_sum": pool.weight_sums.get(key, 0.0),
                **_ess_health(health[key]),
            }
            for key in reg.arms
        ],
        "blacklisted": {
            "count": blacklisted_count,
            "examples": blacklisted_examples,
        },
        "pool": {
            "size": pool.size,
            "zero_weight_fraction": pool.zero_weight_fraction(),
            "dropped_by_adjustment": dropped,
            "resampled_stages": resampled_stages,
            "eval_anomalies": anomalies,
            "dead_pulls": sum(dead_pulls.values()),
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
