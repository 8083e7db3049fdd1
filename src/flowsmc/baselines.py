"""Whole-program baselines: forward rejection-style runs and SMC over the
full control-flow graph.

Both execute the graph directly, so particles sit at different locations.
Each sweep iteration visits the locations that hold unfinished particles,
in ascending order, and moves each one's particles along its edge through
the straight-line kernel of `smc`.  A location's particles are found when
it is visited, so a particle moved to a later occupied location moves again
in the same iteration.  The sweep keeps the ascending indices of the
unfinished particles and, at each location, gathers only the variables its
label reads.  The step cap bounds the number of iterations; particles still
running at the cap contribute weight zero.  The rejection baseline also
serves as the brute-force oracle behind the sample-set ground truths.
"""
from __future__ import annotations

import numpy as np

from . import smc
from .pcfg import Pcfg


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


def _forward_sweep(g: Pcfg, compiled, n: int, rng, step_cap: int,
                   resample: bool):
    """Advance n particles through the whole graph, compiled by
    `_compile_graph`; returns (weights, values)."""
    table, ret = compiled
    loc = np.full(n, g.l_init, dtype=np.int64)
    state = {v: np.full(n, float(g.sigma_init[v])) for v in g.variables}
    w = np.ones(n)
    final = g.l_final
    # the unfinished particles, ascending (none when the graph starts at its
    # final location), and their locations
    live = np.arange(n if g.l_init != final else 0)
    spots = loc[:len(live)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(step_cap):
            if not len(live):
                break
            every = live if len(live) < n else slice(None)  # views while all n
            weighted = False
            # occupied locations in ascending order, counted rather than
            # sorted; each one's particles are found on the updated `loc`,
            # so a particle moved to a later location moves again this step
            occupied = np.bincount(spots, minlength=len(table)).nonzero()[0]
            for at in occupied:
                entry = table[at]
                if len(occupied) == 1:  # no scan: it holds every one of them
                    here, m = every, len(live)
                else:
                    here = live[loc[every] == at]
                    m = len(here)
                sub = {v: state[v][here] for v in entry[-1]}
                if entry[0] == "det":
                    guard = np.not_equal(entry[1](sub), 0.0)
                    loc[here] = np.where(guard, entry[2], entry[3])
                    continue
                op = entry[1]
                wm = w[here]
                smc.apply_step(op, sub, wm, rng, m)
                if op.var is not None:
                    state[op.var][here] = sub[op.var]
                w[here] = wm
                loc[here] = entry[2]
                weighted = weighted or op.weighs
            if resample and weighted:
                w, idx, _ = smc.ess_resample(state, w, rng)
                if idx is not None:
                    loc, live = loc[idx], np.arange(n)
            spots = loc[live] if len(live) < n else loc
            going = spots != final
            if not going.all():
                live, spots = live[going], spots[going]
        w = np.where(loc != final, 0.0, w)
        w, values, _ = smc.finish_step(ret, state, w, n)
    return w, values


def _check_step_cap(step_cap: int) -> None:
    if step_cap < 1:
        raise ValueError("need a step cap of at least 1")


def baseline_rejection(g: Pcfg, n: int, rng, step_cap: int = 10_000):
    """n independent forward runs; the weight of a run is the product of its
    conditioning values, so zero-weight runs are the rejected ones."""
    if n < 1:
        raise ValueError("need at least one run")
    _check_step_cap(step_cap)
    return _forward_sweep(g, _compile_graph(g), n, rng, step_cap,
                          resample=False)


def baseline_whole_smc(g: Pcfg, J: int, rng, step_cap: int = 10_000,
                       sweeps: int = 1):
    """SMC over the whole graph: J particles per sweep, systematic resampling
    after conditioning.  Returns pooled (weights, values, live_sweeps)."""
    if J < 1:
        raise ValueError("need at least one particle")
    if sweeps < 1:
        raise ValueError("need at least one sweep")
    _check_step_cap(step_cap)
    compiled = _compile_graph(g)
    all_w, all_x = [], []
    live = 0
    for _ in range(sweeps):
        w, x = _forward_sweep(g, compiled, J, rng, step_cap, resample=True)
        if (w > 0.0).any():
            live += 1
        all_w.append(w)
        all_x.append(x)
    return np.concatenate(all_w), np.concatenate(all_x), live
