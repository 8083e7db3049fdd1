"""Pinned output of the sampler and the whole-program baselines.

The sha256 digests below were recorded on the corpus with default
parameters.  A change that only makes the code faster must leave every one
unchanged; a change that alters output on purpose updates the literals and
says why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from flowsmc import baselines, benchmarks, smc
from flowsmc.sampler import RunConfig, run

from conftest import SWEEP_PROGRAMS, first_flows, sweep_graph


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update("\n".join(part).encode())
    return h.hexdigest()


SAMPLER_DIGESTS = {
    ("coin", "per-arm"):
        "0821d251aa84f71de981b717f615b91966a48f377179c8abe22d7490acbb2f1b",
    ("coin", "importance"):
        "f1084fe91eb48895073e1fd51f48b05ff9fec16debe08ac8aeebd2548f6b1b2f",
    ("condDemo", "per-arm"):
        "632c70e07f6304977b4ab438d6290235c06b1a8fff041ae4193f0fc81e9ebaae",
    ("condDemo", "importance"):
        "250b06cf4996622e576be8e0fd383b44b9f6d2368d73cf18b6d1d0287e2244a6",
    ("geomIt", "per-arm"):
        "29e39b8659a516f272e97422680c705b3c2bb16518b04a0b6a3a005c08c4bb57",
    ("geomIt", "importance"):
        "742aeeda3be486cdb0894ac293d82abaf7520ba627b43087af3c7316ae29d8e7",
    ("geomIt2", "per-arm"):
        "2d0bca555df732d679b5513eda0a1fcdf169bc1249c3309013da5af4e7ce5be7",
    ("geomIt2", "importance"):
        "c66caafb6987ff582e8b7dac02753d1e504d2e69c58e5dfb28928cb530690615",
    ("mixed", "per-arm"):
        "a243bd9dab1db7389f48092f57b3b25aa0497b030e157ed2c110493e5e5cf9c7",
    ("mixed", "importance"):
        "08051b949b0dc1c9621abd3b453edd17c2bebe53535a4c0245c107ee0f3fb083",
    ("obsLoop", "per-arm"):
        "fd172a5360f061c802e988cd909b7b604c0c2726b8b0ab806d74f575564e4631",
    ("obsLoop", "importance"):
        "9d2da7a7cf19eb4f638af08f2c47379eae932d45641b1812e8b3b564e8cdcad4",
    ("poisCd", "per-arm"):
        "1e2d3b1c0ec5809ec26c797d79ea7a1b2d49c7bfbccffd660231e96b7a49373d",
    ("poisCd", "importance"):
        "cabd08dbc9779a1e28daca4ab98f5963a40ee5b58991fd5ec3790364fa08071f",
    ("poisCd2", "per-arm"):
        "63ebed00c81300ea671b73198c0bdfc7717f33db7ec65f71920951a680289e4b",
    ("poisCd2", "importance"):
        "ba8101e01b635d3b072233ccd68e594fee3cff6057d9b0a534e940880daba488",
    ("unifCd", "per-arm"):
        "534f6458288c3354efb16abeef52a00cd4e92fcbce510e30bd2a0f68a297efa1",
    ("unifCd", "importance"):
        "5f59417fabf7506ae359f592dc24bb0cb797e28cee11ca3d47704180a60a95aa",
    ("unifCd2", "per-arm"):
        "0edd95e460276648f02c0370870e3e98cc98b2e7a2e35b85d4449e0372244caa",
    ("unifCd2", "importance"):
        "52ff04b7cd36ba7e25acd05c39dc2e69026721d5abc9ad60f2830265af1e2f22",
}


# rejection with 2000 runs, then whole-program SMC with J=50 and 4 sweeps,
# on one generator seeded with 7; the live-sweep count is part of the digest
BASELINE_DIGESTS = {
    "coin": "891647eab50eabbbc48122d1e12a308d2b3f2a07a6fa832625a6399132adf9ad",
    "condDemo": "61ae6331b6c3e23627213d348c140f7b47c590496c134fafe2fa447774214fd1",
    "geomIt": "8eb5e90b949138340d1e167f1c59c5d2912b163ca83add7f7777cef47caf3c1b",
    "geomIt2": "d659769eabfbe198a197ac36d8c161f1679eeea95ed4d144dea6dd68d04d95aa",
    "mixed": "1ff2e6dc87aadfe111f4bab4c71e9af58709fc39897a53bb0f564d6910cb0615",
    "obsLoop": "cfdb854abd78b7653a25c61795120d46b1b03d58fc84a4d109552c020d0b3a0c",
    "poisCd": "2a6deaddd7a202c5a7bc2cd453bc761f7fea3848f7f914483b86a1926a737367",
    "poisCd2": "ec0ed50a262e90d109b07ae1824901757a9a5c4b6ae4fa2b2eecb49953a19c40",
    "unifCd": "9a49352825c94173fd8529f0454b7a29007f43d88da8647963d5f785be232ea0",
    "unifCd2": "908624deffeaf69e312a0b18a290b19aedb2b928f97bac56e98c8b4759e5be7e",
}


@pytest.mark.parametrize("name,mode", sorted(SAMPLER_DIGESTS))
def test_sampler_output_is_pinned(name, mode):
    # budget 150, J=50, seed 7: weights, values and flow ids
    cfg = RunConfig(budget=150, particles=50, weight_mode=mode, seed=7)
    r = run(benchmarks.build(name), cfg)
    assert _digest(r.weights, r.values, r.flow_ids) == SAMPLER_DIGESTS[name, mode]


@pytest.mark.parametrize("name", sorted(BASELINE_DIGESTS))
def test_baseline_output_is_pinned(name):
    g = benchmarks.build(name)
    rng = np.random.default_rng(7)
    wr, xr = baselines.baseline_rejection(g, 2000, rng)
    ws, xs, live = baselines.baseline_whole_smc(g, 50, rng, sweeps=4)
    assert _digest(wr, xr, ws, xs, [str(live)]) == BASELINE_DIGESTS[name]


def _probe_unequal_branches(g, monkeypatch):
    # the longer flow has one edge more, yet every run finishes within as
    # many sweep iterations as the shorter flow has edges: the longer
    # branch's particles move twice in one iteration
    assert sorted(len(f.steps) for f in first_flows(g, 10)) == [5, 6]
    w, z = baselines.baseline_rejection(g, 200, np.random.default_rng(1),
                                        step_cap=5)
    assert (z != 0.0).any() and (z == 0.0).any()  # both branches are taken
    w_all, z_all = baselines.baseline_rejection(g, 200, np.random.default_rng(1))
    assert np.array_equal(w, w_all) and np.array_equal(z, z_all)


def _probe_observe_in_loop(g, monkeypatch):
    # some sweep resamples while some of its particles have finished
    # (done = 1) and others have not; past the first pass through the loop
    # a sweep seldom resamples, so the probe runs 32 sweeps
    mixed = []
    resample = baselines._resample_sweeps

    def probe(state, w, loc, sweeps, J, rng):
        again = resample(state, w, loc, sweeps, J, rng)
        finished = (state["done"].reshape(-1, J)[again] == 1.0).sum(axis=1)
        mixed.extend(f for f in finished if 0 < f < J)
        return again

    monkeypatch.setattr(baselines, "_resample_sweeps", probe)
    baselines.baseline_whole_smc(g, 50, np.random.default_rng(7), sweeps=32)
    assert mixed


def _probe_capped_loop(g, monkeypatch):
    # no observation: a zero weight is a run still in the loop at the cap
    w, _ = baselines.baseline_rejection(g, 500, np.random.default_rng(7),
                                        step_cap=SWEEP_PROGRAMS["capped_loop"][1])
    assert (w == 0.0).any() and (w > 0.0).any()
    w, _ = baselines.baseline_rejection(g, 500, np.random.default_rng(7))
    assert (w > 0.0).all()


def _probe_invalid_mid_sweep(g, monkeypatch):
    killed = {}
    apply_step = smc.apply_step

    def probe(op, state, w, rng, n):
        k = apply_step(op, state, w, rng, n)
        killed[op.kind] = killed.get(op.kind, 0) + k
        return k

    monkeypatch.setattr(smc, "apply_step", probe)
    baselines.baseline_rejection(g, 500, np.random.default_rng(7))
    assert killed["draw"] > 0 and killed["weight"] > 0


def _probe_no_commands(g, monkeypatch):
    assert g.l_init == g.l_final
    w, x = baselines.baseline_rejection(g, 3, np.random.default_rng(7))
    assert (w == 1.0).all() and (x == 1.5).all()


def _probe_unread_variables(g, monkeypatch):
    reads = set().union(*(e.label.reads for edges in g.out for e in edges))
    assert {"x", "unused", "spare"} <= set(g.variables)
    assert not reads & {"unused", "spare"}
    w, x = baselines.baseline_rejection(g, 500, np.random.default_rng(7))
    assert (x[w > 0.0] > 2.5).all() and (w > 0.0).any()


# rejection with 500 runs, then whole-program SMC with J=50 and 4 sweeps, on
# one generator seeded with 7 and at the program's step cap; each program's
# probe checks that its shape occurs
SWEEP_SHAPES = {
    "capped_loop": (
        _probe_capped_loop,
        "a9f79708fb8fb2f901185c5e812340048476d344206bc869fc688114f0e63aee"),
    "invalid_mid_sweep": (
        _probe_invalid_mid_sweep,
        "beff8439b0e496fe9901c8b8e4f392aeebe9ecb165c1d8fd176a88a6ad97ba7b"),
    "no_commands": (
        _probe_no_commands,
        "3250df5a44e38c5b61d23e58c1dcb9f84c4c6b3b21b75c9ab7c3732dcfdd8460"),
    "observe_in_loop": (
        _probe_observe_in_loop,
        "33a5e28f40ca9373dcb0c39f21f3398bc98b5b5cdd22a3b64f9d1dd94d210520"),
    "unequal_branches": (
        _probe_unequal_branches,
        "4196eb040cbf4a55024cd9eb3d454f9528c230a7adbb0158790649f37786c0cb"),
    "unread_variables": (
        _probe_unread_variables,
        "e42f126db58ff6a7186c0ed1484f3bd8b40ea7bdeabec76e2ccd33ad82518590"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_SHAPES))
def test_sweep_shapes_output_is_pinned(name, monkeypatch):
    g = sweep_graph(name)
    cap = SWEEP_PROGRAMS[name][1]
    probe, digest = SWEEP_SHAPES[name]
    rng = np.random.default_rng(7)
    wr, xr = baselines.baseline_rejection(g, 500, rng, step_cap=cap)
    ws, xs, live = baselines.baseline_whole_smc(g, 50, rng, step_cap=cap,
                                                sweeps=4)
    assert _digest(wr, xr, ws, xs, [str(live)]) == digest
    probe(g, monkeypatch)
