"""Tests of the benchmark itself: python3 -m pytest perfbench

Workloads run here at small sizes chosen so that their output checks still
hold; the sizes the benchmark measures are in workloads.py.
"""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "symbolic": dict(budget=500, nominal_s=0.2),
    "stress_loop": dict(budget=40, nominal_s=0.2),
    "wide_particles": dict(budget=20, particles=500, nominal_s=0.2),
    "whole_program": dict(sweeps=40, nominal_s=0.2),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    table = {name: dataclasses.replace(workloads.WORKLOADS[name], **sizes)
             for name, sizes in SMALL.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", table)
    return table


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_checks(small, name):
    w = small[name]
    out = workloads.call(w, workloads.build_graph(w), seed=3)
    assert out.errors == []
    assert out.failed == 0 and out.attempted > 0
    assert out.ess > 0.0 and out.seconds > 0.0


@pytest.mark.parametrize("name", ["stress_loop", "whole_program"])
def test_same_seed_same_digest(small, name):
    w = small[name]
    g = workloads.build_graph(w)
    first, second = (workloads.call(w, g, seed=5) for _ in range(2))
    assert first.digest == second.digest
    assert workloads.call(w, g, seed=6).digest != first.digest


def test_check_catches_wrong_output(small, monkeypatch):
    w = small["stress_loop"]
    real = workloads.sampler.run

    def shifted(g, cfg):
        res = real(g, cfg)
        res.values[:] = 3.0  # below the n >= 10 the observation forces
        return res

    monkeypatch.setattr(workloads.sampler, "run", shifted)
    out = workloads.call(w, workloads.build_graph(w), seed=0)
    assert out.errors and out.failed == out.attempted


def _namespaces():
    from flowsmc import bandit, baselines, dists, frontend, pcfg, sampler, smc
    owners = (bandit, baselines, dists, frontend, pcfg, sampler, smc,
              pcfg.FlowEnumerator, dists.RestrictedDist)
    return {owner: dict(vars(owner)) for owner in owners}


def _unchanged(before) -> bool:
    return all(vars(owner).keys() == attrs.keys()
               and all(vars(owner)[k] is v for k, v in attrs.items())
               for owner, attrs in before.items())


def test_wrappers_removed_after_traced_run(small):
    before = _namespaces()
    w = small["symbolic"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert not _unchanged(before)
        workloads.call(w, workloads.build_graph(w), seed=0)
    assert tracer.spans
    assert _unchanged(before)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _unchanged(before)


def test_self_times_subtract_children_and_split_restrict():
    spans = [["smc.run_smc", 0.0, 10.0, -1],
             ["dists.restrict", 1.0, 3.0, 0],
             ["condprop.cdpg", 10.0, 14.0, -1],
             ["dists.restrict", 11.0, 12.0, 2]]
    assert tracing.self_times(spans) == [
        ("smc.run_smc", 8.0, 10.0), ("dists.restrict.smc", 2.0, 2.0),
        ("condprop.cdpg", 3.0, 4.0), ("dists.restrict.condprop", 1.0, 1.0)]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(1500) == 99.0
    assert tracing.tail_percentile(300) == 90.0
    assert tracing.tail_percentile(15) is None


@pytest.mark.parametrize("name,trace", [("stress_loop", True),
                                        ("whole_program", True),
                                        ("wide_particles", False)])
def test_printed_metrics_match_benchmark_json(small, capsys, name, trace):
    result = run.run(name, seed=0, seconds=0.2, trace=trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    line = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(rf"perfbench: workload={name} seed=0 calls=\d+ "
                        r"digest=[0-9a-f]{64} kl=\S+ timeouts=no", line)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
