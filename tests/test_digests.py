"""Pinned output of the sampler and the whole-program baselines.

The sha256 digests below were recorded on the corpus with default
parameters.  A change that only makes the code faster must leave every one
unchanged; a change that alters output on purpose updates the literals and
says why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from flowsmc import baselines, benchmarks
from flowsmc.sampler import RunConfig, run


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
    "coin": "df44928e2fe3ecc2e26a0ff918af85aee79b704e58d9799855b15a07016fb81b",
    "condDemo": "9f48dfe06e1fa275fd512293a57177bd754a36dccec5054c6bcba6779bf1ab25",
    "geomIt": "eeb6f715780e48352a9e64b8920b2f667577a7d5b55ed09756a760b9d5472d08",
    "geomIt2": "b23f4790d64d47cbc74d4523e13418079118871ae896c7bd17af3f42f45572a5",
    "mixed": "59c3d71d153dfb49dacc54332213fdbdcd2b04e593acbfd44db03aab71bd92f6",
    "obsLoop": "f110f6b3bfb7b131cc9b2cf55fc601decaf8a3a7c797d2aaa012d20c17a89eaa",
    "poisCd": "39b6b20c039ffc6cb3ee3714da347fe5ebef18f301adb0c83dda3aa1c4da171e",
    "poisCd2": "850741dbbc62bce755e10d9e612a2adf41ab3e03f3fc2aec2dde525ff33f050c",
    "unifCd": "6bba192299900fda87a6cd914e0399f0371d0c2e2131c995ed93197953228034",
    "unifCd2": "0d7aa86dbbee697cbbdb6816b3d7c81ddd2f033bbb05a463e193383d2f266ecd",
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
