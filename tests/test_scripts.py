"""The scripts under scripts/, loaded by path and run through their `main`
or their parsing helpers."""
import csv
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

from flowsmc import benchmarks
from flowsmc.sampler import RunConfig, run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_run_benchmarks_reports_zero_weight_runs(capsys):
    # at this size obsLoop(3,10) finishes with status ok but no weight
    res = run(benchmarks.build("obsLoop", 3, 10),
              RunConfig(budget=3, particles=5, weight_mode="importance"))
    assert res.report["status"] == "ok" and not res.weights.sum() > 0.0

    script = load_script("run_benchmarks")
    assert script.main(["--budgets", "3", "--particles", "5"]) == 0
    header, *rows = _csv_rows(capsys.readouterr().out)
    assert header == ["program", "budget", "samples", "blacklisted", "seconds",
                      "kl", "mean", "std"]
    # one row per corpus instance
    assert [row[0] for row in rows] == script.CORPUS
    assert len(rows) == 14 and all(row[1] == "3" for row in rows)
    row = next(row for row in rows if row[0] == "obsLoop(3, 10)")
    assert row[2] == "15" and row[5:] == ["", "", ""]


def test_run_benchmarks_writes_one_row_per_instance_and_budget(capsys):
    main = load_script("run_benchmarks").main
    assert main(["obsLoop(3,10)", "coin(0.36)", "--budgets", "3,5",
                 "--particles", "5"]) == 0
    header, *rows = _csv_rows(capsys.readouterr().out)
    assert [row[:3] for row in rows] == [
        ["obsLoop(3,10)", "3", "15"], ["obsLoop(3,10)", "5", "25"],
        ["coin(0.36)", "3", "15"], ["coin(0.36)", "5", "25"]]
    assert all(row[5:] == ["", "", ""] for row in rows[:2])
    for row in rows[2:]:
        kl, mean, std = row[5:]
        assert int(row[3]) >= 0 and float(row[4]) >= 0.0
        assert all(float(v) >= 0.0 for v in (kl, mean, std))


def _perfbench_stdout(digest, run_s, correct=True, failed=0):
    metrics = {"run_s": run_s, "setup_s": 0.5, "peak_rss_mb": 100.0}
    return "\n".join([
        f"perfbench: workload=symbolic seed=0 calls=3 digest={digest} "
        "kl=0.0013 timeouts=no",
        json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                    "metrics": {k: {"value": v, "unit": "s"}
                                for k, v in metrics.items()}}),
    ]) + "\n"


def test_record_bench_parses_and_aggregates_runs():
    bench = load_script("record_bench")
    run = bench.parse_run(_perfbench_stdout("ab12", 1.5))
    assert run == {"digest": "ab12", "correct": True, "attempted": 3,
                   "failed": 0, "metrics": {"run_s": 1.5, "setup_s": 0.5,
                                            "peak_rss_mb": 100.0}}
    runs = {seed: bench.parse_run(_perfbench_stdout(f"d{seed}", t))
            for seed, t in [(2, 3.0), (0, 1.0), (1, 2.0), (3, 10.0)]}
    runs[1] = bench.parse_run(_perfbench_stdout("d1", 2.0, correct=False,
                                                failed=3))
    summary = bench.aggregate(runs)
    assert summary["median"] == {"run_s": 2.5, "setup_s": 0.5,
                                 "peak_rss_mb": 100.0}
    assert summary["quartiles"] == {"run_s": [1.75, 4.75],
                                    "setup_s": [0.5, 0.5],
                                    "peak_rss_mb": [100.0, 100.0]}
    assert summary["digests"] == {"0": "d0", "1": "d1", "2": "d2", "3": "d3"}
    assert summary["correct"] is False
    assert summary["attempted"] == 12 and summary["failed"] == 3


def test_record_bench_against_an_older_record(tmp_path, monkeypatch, capsys):
    bench = load_script("record_bench")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "symbolic"},
                                         {"name": "stress_loop"}]}))

    def fake_runs(run_s, changed_seed=None, spread=0.0):
        def fake_run(cmd, **kwargs):
            if cmd[0] == "git":
                return SimpleNamespace(returncode=0, stdout="abc\n")
            workload = cmd[cmd.index("--workload") + 1]
            seed = cmd[cmd.index("--seed") + 1]
            digest = workload + seed
            if workload == "stress_loop" and seed == changed_seed:
                digest += "x"
            stdout = _perfbench_stdout(digest,
                                       run_s[workload] + spread * int(seed))
            return SimpleNamespace(returncode=0, stderr="", stdout=stdout)
        monkeypatch.setattr(bench.subprocess, "run", fake_run)

    old, new = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    fake_runs({"symbolic": 2.0, "stress_loop": 4.0}, spread=0.1)
    assert bench.main([str(old), "--root", str(tmp_path)]) == 0
    fake_runs({"symbolic": 2.5, "stress_loop": 3.0})
    against = [str(new), "--root", str(tmp_path), "--against", str(old)]
    assert bench.main(against) == 0
    out = capsys.readouterr().out.splitlines()
    same = ("setup_s 1.000x (base 0.500, IQR [0.500, 0.500] inside), "
            "peak_rss_mb 1.000x (base 100.000, IQR [100.000, 100.000] "
            "inside); digests identical")
    assert out == [
        "symbolic: run_s 1.020x (base 2.450, IQR [2.225, 2.675] inside), "
        + same,
        "stress_loop: run_s 0.674x (base 4.450, IQR [4.225, 4.675]), "
        + same]
    # a record from before quartiles were kept compares on medians alone
    record = json.loads(old.read_text())
    for summary in record["workloads"].values():
        del summary["quartiles"]
    old.write_text(json.dumps(record))
    assert bench.main(against) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "symbolic: run_s 1.020x (base 2.450), setup_s 1.000x (base 0.500), "
        "peak_rss_mb 1.000x (base 100.000); digests identical")
    fake_runs({"symbolic": 1.0, "stress_loop": 3.0}, changed_seed="7")
    assert bench.main(against) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("digests identical")
    assert lines[1].endswith("digests differ at seeds 7")
