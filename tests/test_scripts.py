"""The scripts under scripts/, run through their `main`."""
import importlib.util
from pathlib import Path

from flowsmc import benchmarks
from flowsmc.sampler import RunConfig, run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmarks_reports_zero_weight_runs(capsys):
    # at this size obsLoop(3,10) finishes with status ok but no weight
    res = run(benchmarks.build("obsLoop", 3, 10),
              RunConfig(budget=3, particles=5, weight_mode="importance"))
    assert res.report["status"] == "ok" and not res.weights.sum() > 0.0

    main = load_script("run_benchmarks").main
    assert main(["--budget", "3", "--particles", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = next(line for line in lines if line.startswith("obsLoop(3, 10)"))
    assert row.endswith("(no samples)")
    assert len(lines) == 1 + 14  # header and every instance
