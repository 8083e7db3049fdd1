"""The benchmark's tracer (perfbench/tracing.py) patches flowsmc attributes
from outside the package.  Entering `installed` must find every attribute it
patches, and leaving it must put each original back, so a change in `src/`
that removes or renames one of them fails here."""
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """vars() of every flowsmc module and of every class defined in one."""
    owners = [m for name, m in sys.modules.items()
              if name == "flowsmc" or name.startswith("flowsmc.")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    return {owner: dict(vars(owner)) for owner in owners}


def _changed(before) -> list:
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attrs in before.items()
            for attr in attrs.keys() | vars(owner).keys()
            if vars(owner).get(attr) is not attrs.get(attr)]


def test_tracer_patches_and_restores_every_attribute():
    tracing = _load_tracing()
    before = _namespaces()
    with tracing.installed(tracing.Tracer()):
        assert "flowsmc.dists.draw_batch" in _changed(before)
        assert "RestrictedDist.sample" in _changed(before)
    assert _changed(before) == []


def test_tracer_sees_one_cdpg_call_per_flow_examined():
    # the tracer wraps `sampler.cdpg`, so a flow propagated some other way
    # would hide its cost from the benchmark
    from flowsmc import benchmarks, sampler

    tracing = _load_tracing()
    g = benchmarks.build("obsLoop", 3, 10)
    with tracing.installed(tracing.Tracer()) as tracer:
        report = sampler.run(g, sampler.RunConfig(budget=60, particles=10,
                                                  seed=1)).report
    (run,) = [i for i, span in enumerate(tracer.spans)
              if span[0] == "sampler.run"]
    calls = [span for span in tracer.spans if span[0] == "condprop.cdpg"]
    enumeration = report["enumeration"]
    assert len(calls) == enumeration["flows_examined"] > 1
    assert all(span[3] == run for span in calls)
    # and those calls walked every step that the run's memo counted
    assert tracer.counts["pcfg.slp_steps"] == enumeration["cdpg_steps"]
