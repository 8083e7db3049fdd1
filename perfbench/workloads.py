"""Workloads of the flowsmc benchmark and the checks on their output.

A workload is one benchmark program with fixed run sizes.  `call` runs it
once at a given seed through the public entry points (`sampler.run`, or the
two whole-program baselines), times that call, checks the output against
truth taken from `flowsmc.metrics` or from the program's own semantics, and
returns what the benchmark reports.  Calls are looked up as module
attributes, so the tracer in `tracing.py` sees them when it is installed.
"""
from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from flowsmc import baselines, benchmarks, frontend, metrics, pcfg, sampler

@dataclass(frozen=True)
class Workload:
    name: str
    program: str
    params: tuple
    # wall seconds of one call on a 2-core x86-64 machine; sets how many
    # calls fit in a run of the requested length
    nominal_s: float
    particles: int
    budget: int = 0  # sampler workloads: rounds of sampler.run
    rejection_n: int = 0  # whole_program: particles of baseline_rejection
    sweeps: int = 0  # whole_program: sweeps of baseline_whole_smc
    # output checks: every positive-weight value is an integer >= least_n
    # (0: no such check); KL against the closed-form truth is <= kl_bound
    # (0: no closed form).  The KL bounds are about 4.5 times the largest KL
    # measured over 8 to 10 seeds at these sizes.
    least_n: int = 0
    kl_bound: float = 0.0

    @property
    def uses_sampler(self) -> bool:
        return self.budget > 0


# Why each workload was chosen, and what it should show: README.md.
WORKLOADS = {w.name: w for w in (
    Workload("symbolic", "unifCd", (20,), nominal_s=7.0, particles=100,
             budget=1250, kl_bound=0.01),
    Workload("stress_loop", "obsLoop", (3, 10), nominal_s=4.8, particles=100,
             budget=600, least_n=10),
    # each y < 1, so x >= 5 forces n >= 6
    Workload("wide_particles", "geomIt2", (0.5, 5), nominal_s=5.5,
             particles=5000, budget=300, least_n=6),
    Workload("whole_program", "geomIt", (0.5, 5), nominal_s=2.3, particles=1000,
             rejection_n=1_000_000, sweeps=250, least_n=5, kl_bound=0.002),
)}


def build_graph(w: Workload):
    """Parse, desugar, build and validate the workload's program."""
    src = benchmarks.source(w.program, *w.params)
    g = pcfg.build_pcfg(frontend.desugar(frontend.parse_source(src)))
    violations = pcfg.validate(g)
    if violations:
        raise ValueError(f"{w.name}: invalid control-flow graph: {violations}")
    return g


@dataclass
class Outcome:
    seconds: float
    ess: float
    attempted: int  # pulls (sampler) or whole-SMC sweeps (baselines)
    failed: int
    errors: list
    digest: str
    timed_out: bool
    kl: float = 0.0  # 0 where the program has no closed-form posterior
    report: dict = field(default_factory=dict)  # sampler report
    extras: dict = field(default_factory=dict)


def kish_ess(w: np.ndarray) -> float:
    total = float(w.sum())
    return total * total / float(w @ w) if total > 0.0 else 0.0


def digest(*parts) -> str:
    """sha256 over float arrays and string sequences; a string sequence is
    hashed as runs of equal items, since the sampler repeats a flow id for
    every particle of a pull."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            for item, run in itertools.groupby(part):
                h.update(f"{item}*{sum(1 for _ in run)}\n".encode())
    return h.hexdigest()


def _pool_errors(label: str, w: np.ndarray, x: np.ndarray) -> list:
    if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
        return [f"{label}: weights not finite and nonnegative"]
    if not w.sum() > 0.0:
        return [f"{label}: total weight is zero"]
    if not np.all(np.isfinite(x)):
        return [f"{label}: non-finite values"]
    return []


def _truth_errors(label: str, w: Workload, x: np.ndarray, wt: np.ndarray):
    """(KL, errors) of one weighted pool against the workload's truth."""
    errors = []
    if w.least_n:
        n = x[wt > 0.0]
        if np.any(n != np.floor(n)) or np.any(n < w.least_n):
            errors.append(f"{label}: a positive-weight value is not an "
                          f"integer >= {w.least_n}")
    if not w.kl_bound:
        return 0.0, errors
    truth = metrics.ground_truth(w.program, *w.params)
    if truth.kind == "density":
        lo, hi = truth.quantile(0.0), truth.quantile(1.0)
        v = x[wt > 0.0]
        if np.any(v <= lo) or np.any(v > hi):
            errors.append(f"{label}: a positive-weight value lies outside "
                          f"({lo:g}, {hi:g}]")
    kl = metrics.kl_divergence(truth, x, wt)
    if kl > w.kl_bound:
        errors.append(f"{label}: KL {kl:.4g} above {w.kl_bound}")
    return kl, errors


def _run_sampler(w: Workload, g, seed: int) -> Outcome:
    cfg = sampler.RunConfig(budget=w.budget, particles=w.particles,
                            weight_mode="importance", seed=seed)
    t0 = time.perf_counter()
    res = sampler.run(g, cfg)
    seconds = time.perf_counter() - t0
    report = res.report
    errors = _pool_errors(w.name, res.weights, res.values)
    if report["status"] != "ok":
        errors.append(f"run status {report['status']!r}")
    if len(res.flow_ids) != len(res.weights):
        errors.append("flow ids and weights differ in length")
    kl = 0.0
    if not errors:
        kl, more = _truth_errors(w.name, w, res.values, res.weights)
        errors += more
    pulls = report["rounds_completed"]
    timeouts = report["timeouts"]
    return Outcome(
        seconds=seconds, ess=kish_ess(res.weights), attempted=pulls,
        failed=pulls if errors else timeouts, errors=errors,
        digest=digest(res.weights, res.values, res.flow_ids),
        timed_out=timeouts > 0, kl=kl, report=report)


def _run_baselines(w: Workload, g, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    wr, xr = baselines.baseline_rejection(g, w.rejection_n, rng)
    ws, xs, live = baselines.baseline_whole_smc(g, w.particles, rng,
                                                sweeps=w.sweeps)
    seconds = time.perf_counter() - t0
    errors = _pool_errors("rejection", wr, xr) + _pool_errors("whole-SMC", ws, xs)
    kl = 0.0
    if not errors:
        _, more = _truth_errors("rejection", w, xr, wr)
        kl, more_smc = _truth_errors("whole-SMC", w, xs, ws)
        errors += more + more_smc
    return Outcome(
        seconds=seconds, ess=kish_ess(wr) + kish_ess(ws), attempted=w.sweeps,
        failed=w.sweeps if errors else w.sweeps - live, errors=errors,
        digest=digest(wr, xr, ws, xs), timed_out=False, kl=kl,
        extras={"accept_ratio": float(np.count_nonzero(wr > 0.0)) / len(wr),
                "live_sweeps": live})


def call(w: Workload, g, seed: int) -> Outcome:
    """One blocking call of the workload at `seed`, timed and checked."""
    return _run_sampler(w, g, seed) if w.uses_sampler else _run_baselines(w, g, seed)
