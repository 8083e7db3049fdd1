"""Whole-program baselines: forward rejection-style runs and SMC over the
full control-flow graph.

Both execute the graph directly, so particles sit at different locations.
`_forward_sweep` advances S sweeps of J particles as one population, sweep s
in positions [s*J, (s+1)*J), so each sweep's particles stay contiguous.
Whole-program SMC runs its sweeps side by side, each resampled only within
itself: the island particle model of Vergé, Dubarry, Del Moral & Moulines
(Statistics and Computing, 2015).  Rejection is one sweep without
resampling.

The unfinished particles are kept by location, as ascending index arrays.
Each iteration visits the occupied locations in ascending order and moves
each one's particles along its edge through the straight-line kernel of
`smc`, gathering only the variables its label reads; random doubles are
drawn for all of a location's particles at once, in ascending order.  A
particle moved to a later location moves again in the same iteration only
if its own sweep occupied that location when the iteration began, so a
sweep's moves, and its step-cap cuts, never depend on the other sweeps.
The step cap bounds the number of iterations; particles still running at
the cap contribute weight zero.

After an iteration, each sweep whose particles took a weight gets its own
ESS check and systematic resampling (`_resample_sweeps`), with the
arithmetic of `smc.ess_resample`: one uniform per resampling sweep, in
sweep order, and a cumulative sum within the sweep.  A resampled particle
goes on from its ancestor's location.  A population holds at most
`CHUNK_PARTICLES` particles; more sweeps run in chunks, one after another
on the same generator.  The rejection baseline also serves as the
brute-force oracle behind the sample-set ground truths.
"""
from __future__ import annotations

import numpy as np

from . import smc
from .pcfg import Pcfg

# The most particles one whole-SMC population holds (at least one sweep);
# `baseline_whole_smc` runs the sweeps that do not fit in later chunks.
CHUNK_PARTICLES = 1_000_000


def _compile_graph(g: Pcfg):
    """(table, compiled return expression); the table has per location
    ("det", guard, true dst, false dst, reads), ("final",), or
    ("step", op, dst, reads), where reads are the variables of its label."""
    table = []
    for kind, edges in zip(g.kinds, g.out):
        lab = edges[0].label if edges else None
        if kind == "det":
            guard = smc.compile_expr(lab.pred.formula)
            table.append(("det", guard, edges[0].dst, edges[1].dst, lab.reads))
        elif kind == "final":
            table.append(("final",))
        else:
            table.append(("step", smc.compile_step(lab), edges[0].dst, lab.reads))
    return table, smc.compile_expr(g.e_final)


def _resample_sweeps(state: dict, w: np.ndarray, loc: np.ndarray,
                     sweeps: np.ndarray, J: int, rng) -> np.ndarray:
    """The ESS check and systematic resampling of `smc.ess_resample`, for
    each of `sweeps` (ascending) on its own block of J particles.  The
    check is batched: each row's sum and dot product are the doubles that
    `w.sum()` and `w @ w` give for that sweep alone.  A sweep whose total
    weight is not positive draws nothing.  A resampling sweep draws its
    ancestors with `smc._systematic_resample`, one uniform each, in sweep
    order; its states and locations are reindexed and every weight becomes
    its old mean weight, in place.  Returns the sweeps that resampled."""
    W = w.reshape(-1, J)[sweeps]
    totals = W.sum(axis=1)
    ess = totals * totals / (W[:, None, :] @ W[:, :, None]).ravel()
    pick = (totals > 0.0) & (ess < J * smc.ESS_RATIO)
    sweeps, totals = sweeps[pick], totals[pick]
    if not len(sweeps):
        return sweeps
    idx = np.array([smc._systematic_resample(row, rng) for row in W[pick]])
    idx += (sweeps * J)[:, None]
    idx = idx.ravel()
    for arr in (*state.values(), loc):
        arr.reshape(-1, J)[sweeps] = arr[idx].reshape(-1, J)
    w.reshape(-1, J)[sweeps] = (totals / J)[:, None]
    return sweeps


def _merge(parts: list) -> np.ndarray:
    """One ascending array of the ascending index arrays `parts`."""
    if len(parts) == 1:
        return parts[0]
    return np.sort(np.concatenate(parts), kind="stable")  # merges the runs


def _stop(stops: dict, at: int, ids: np.ndarray) -> None:
    """Record that the particles `ids`, if any, stop at location `at`."""
    if len(ids):
        stops.setdefault(at, []).append(ids)


def _forward_sweep(g: Pcfg, compiled, J: int, S: int, rng, step_cap: int,
                   resample: bool):
    """Advance S sweeps of J particles through the whole graph, compiled by
    `_compile_graph`, as one population; returns (weights, values), sweep
    s in positions [s*J, (s+1)*J)."""
    table, ret = compiled
    n = S * J
    loc = np.full(n, g.l_init, dtype=np.min_scalar_type(len(table)))
    state = {v: np.full(n, float(g.sigma_init[v])) for v in g.variables}
    w = np.ones(n)
    final = g.l_final
    # the unfinished particles by location, as ascending index arrays (none
    # when the graph starts at its final location)
    stops = {} if g.l_init == final else {g.l_init: [np.arange(n)]}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(step_cap):
            if not stops:
                break
            # each occupied location's particles when the iteration began
            start = {at: _merge(parts) for at, parts in stops.items()}
            stops = {}  # where the particles stop in this iteration
            arrived = {}  # a later occupied location: the particles moved there
            weighed = np.zeros(S, dtype=bool)  # sweeps that took a weight
            for at in sorted(start):
                ids = start[at]
                moved = arrived.pop(at, ())
                if moved:
                    # those moved here move again if their own sweep was here
                    # when the iteration began; the others stop here
                    if S > 1:
                        present = np.zeros(S, dtype=bool)
                        present[ids // J] = True
                        mine = [present[a // J] for a in moved]
                        for a, keep in zip(moved, mine):
                            _stop(stops, at, np.compress(~keep, a))
                        moved = map(np.compress, mine, moved)
                    ids = _merge([ids, *moved])
                here = ids if len(ids) < n else slice(None)  # a view when all n
                entry = table[at]
                sub = {v: state[v][here] for v in entry[-1]}
                if entry[0] == "det":
                    # a constant guard (`while (true)`) evaluates to a scalar
                    guard = np.broadcast_to(np.not_equal(entry[1](sub), 0.0),
                                            ids.shape)
                    ways = ((entry[2], np.compress(guard, ids)),
                            (entry[3], np.compress(~guard, ids)))
                    for dst, who in ways:
                        loc[who] = dst
                else:
                    op = entry[1]
                    if op.reweights:
                        wm = w[here]
                        smc.apply_step(op, sub, wm, rng, len(ids))
                        w[here] = wm
                    else:  # no weight to change: skip gathering them
                        smc.apply_step(op, sub, None, rng, len(ids))
                    if op.var is not None:
                        state[op.var][here] = sub[op.var]
                    loc[here] = entry[2]
                    if op.weighs and resample:
                        weighed[ids // J] = True
                    ways = ((entry[2], ids),)
                for dst, who in ways:
                    if dst > at and dst in start:
                        arrived.setdefault(dst, []).append(who)
                    elif dst != final:
                        _stop(stops, dst, who)
            if weighed.any():
                again = _resample_sweeps(state, w, loc, weighed.nonzero()[0],
                                         J, rng)
                if len(again):
                    # a resampled particle is where its ancestor stopped
                    regroup = ((at, np.flatnonzero(loc == at)) for at in stops)
                    stops = {at: [ids] for at, ids in regroup if len(ids)}
        w = np.where(loc != final, 0.0, w)
        w, values, _ = smc.finish_step(ret, state, w, n)
    return w, values


def _check_step_cap(step_cap: int) -> None:
    if step_cap < 1:
        raise ValueError("need a step cap of at least 1")


def baseline_rejection(g: Pcfg, n: int, rng, step_cap: int = 10_000):
    """n independent forward runs, one sweep without resampling; the weight
    of a run is the product of its conditioning values, so zero-weight runs
    are the rejected ones."""
    if n < 1:
        raise ValueError("need at least one run")
    _check_step_cap(step_cap)
    return _forward_sweep(g, _compile_graph(g), n, 1, rng, step_cap,
                          resample=False)


def baseline_whole_smc(g: Pcfg, J: int, rng, step_cap: int = 10_000,
                       sweeps: int = 1):
    """SMC over the whole graph: `sweeps` independent sweeps of J particles,
    each resampled systematically within itself after an iteration in
    which it took a weight.  The sweeps run side by side as populations of
    at most `CHUNK_PARTICLES` particles, chunk after chunk.  Returns pooled
    (weights, values, live_sweeps), sweep by sweep; live_sweeps counts the
    sweeps that end with positive weight."""
    if J < 1:
        raise ValueError("need at least one particle")
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    _check_step_cap(step_cap)
    compiled = _compile_graph(g)
    per_chunk = max(1, CHUNK_PARTICLES // J)
    all_w, all_x = [], []
    for first in range(0, sweeps, per_chunk):
        S = min(per_chunk, sweeps - first)
        w, x = _forward_sweep(g, compiled, J, S, rng, step_cap, resample=True)
        all_w.append(w)
        all_x.append(x)
    w = np.concatenate(all_w)
    live = int(np.count_nonzero((w.reshape(sweeps, J) > 0.0).any(axis=1)))
    return w, np.concatenate(all_x), live
