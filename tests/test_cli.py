import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowsmc
from flowsmc import benchmarks
from flowsmc.cli import main
from flowsmc.pcfg import MAX_FLOW_LEN, FlowEnumerator

from conftest import nth_flow


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.prob"
    path.write_text(benchmarks.source("coin", 0.36))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_flows_lists_ids(coin_file, capsys):
    assert run_cli("flows", coin_file, "--count", 10) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all(line.replace("-", "").isdigit() for line in out)


def test_cdpg_reports_verdict(coin_file, capsys):
    run_cli("flows", coin_file)
    ids = capsys.readouterr().out.strip().splitlines()
    run_cli("cdpg", coin_file, "--flow", ids[0])
    first = capsys.readouterr().out
    assert "verdict: blacklisted" in first
    run_cli("cdpg", coin_file, "--flow", ids[1])
    second = capsys.readouterr().out
    assert "verdict: live" in second and "0.36" in second


def test_cdpg_blacklists_a_zero_mass_draw_with_a_zero_weight(tmp_path,
                                                             capsys):
    # one iteration adds y in [1, 1.25] to x = 0, which cannot reach 20
    path = tmp_path / "poisCd2.prob"
    path.write_text(benchmarks.source("poisCd2"))
    assert run_cli("cdpg", path, "--flow", "0-1-2-3-5-7-2-4-6") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "weight(0.0);" and out[-1] == "// verdict: blacklisted"
    assert not any("mass" in line for line in out)


def test_cdpg_prints_a_restricted_draw_with_its_admitted_set_and_mass(
        tmp_path, capsys):
    path = tmp_path / "condDemo.prob"
    path.write_text(benchmarks.source("condDemo"))
    assert run_cli("cdpg", path, "--flow", "0-1-2-4-1-2-4-1-2-4-1-3") == 0
    out = capsys.readouterr().out.splitlines()
    assert "x ~ uniform(0.0, 20.0) | (7.0, 10.0) mass 0.15;" in out
    assert out[-1] == "// verdict: live"


@pytest.mark.parametrize("source,flow_id,line", [
    # the two weights fold into one whose constant overflows
    ("double x := 0.0; double y := 0.0; x ~ uniform(1, 2); "
     "y ~ uniform(1, 2); weight(1e200 * x); weight(1e200 * y); return x;",
     "0-1-2-3-4", "weight(inf * x * y);"),
    ("double x := 1e400; double y := 0.0; y ~ uniform(0, 1); "
     "observe(y < x); return y;", "0-1-2", "observe(y < inf);"),
], ids=["overflowing-weight", "infinite-bound"])
def test_cdpg_prints_a_non_finite_constant(tmp_path, capsys, source, flow_id,
                                           line):
    path = tmp_path / "big.prob"
    path.write_text(source)
    assert run_cli("cdpg", path, "--flow", flow_id) == 0
    out = capsys.readouterr().out.splitlines()
    assert line in out and out[-1] == "// verdict: live"


# sha256 of `flowsmc cdpg` stdout over the first 40 flows (at --max-len 200)
# of each corpus program at its default parameters, one call per flow
CDPG_STDOUT = {
    "coin": "ebe7fe9c7d27d392361aa4050ad210cc343086bb89a5f4a54a42a7c015d9dcc6",
    "condDemo": "626de893be582b9a96973451c0d54b8805aba7ae254b11ffd5bf37f3b67ce2c8",
    "geomIt": "b502bb764a74c3f72670d7f2fb26dea915978ad513cfd5c765332b89691df982",
    "geomIt2": "f372d020ea6bfa0d9b337cfa6f00322faefb4e61f614d16e1218bb18eb028787",
    "mixed": "e758526a919d8dbbb79520ca616780e9aadfdb7765181c37e465585c85ccdecd",
    "obsLoop": "669c2b6706c5018546752e743bc88412db35fd20df3272fe2671ca63019d181c",
    "poisCd": "317cd466b534dc8d47e9984d4a15cfdf4b8cb46a7fefa97f988cb51cf8119326",
    "poisCd2": "6e8fba8b5e221da128b2202ae4101527330f618dcd1d57c145d7c90a0968e5c7",
    "unifCd": "bbb0333342177741337d0b35d52e5c66b831ef5b51849e73dc761383f854d073",
    "unifCd2": "950f05211c403dddda0d5ecb26e00588b739e40b8786f0c304d641defe13ad9c",
}


@pytest.mark.parametrize("name", sorted(benchmarks.SOURCES))
def test_cdpg_stdout_is_pinned(tmp_path, capsys, name):
    # a change to the propagation pass that moves one character of the
    # printed program or verdict changes the digest
    path = tmp_path / f"{name}.prob"
    path.write_text(benchmarks.source(name))
    cursor = FlowEnumerator(benchmarks.build(name), max_len=200)
    out = []
    while len(out) < 40 and (flow := cursor.next_complete()) is not None:
        assert run_cli("cdpg", path, "--flow", flow.flow_id) == 0
        out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == CDPG_STDOUT[name]


EMPTY_IF = ("double x := 0; x ~ normal(0, 1);\n"
            "if (x > 0) { skip; } else { skip; }\nreturn x;")


def test_if_with_two_empty_branches_is_one_flow(tmp_path, capsys):
    path = tmp_path / "empty_if.prob"
    path.write_text(EMPTY_IF)
    assert run_cli("flows", path) == 0
    assert capsys.readouterr().out.splitlines() == ["0-1"]
    assert run_cli("run", path, "--budget", 20, "--particles", 10,
                   "--out", tmp_path / "samples.csv") == 0


def test_run_writes_samples_and_report(coin_file, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    report = tmp_path / "report.json"
    code = run_cli("run", coin_file, "--budget", 50, "--particles", 20,
                   "--seed", 7, "--out", out, "--report", report)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "weight,value,flow_id"
    assert len(lines) == 1 + 50 * 20
    w, v, fid = lines[1].split(",")
    float(w), float(v)
    assert "-" in fid
    data = json.loads(report.read_text())
    assert data["status"] == "ok"
    assert data["config"] == {"budget": 50, "particles": 20,
                              "weight_mode": "per-arm", "seed": 7,
                              "max_flow_len": MAX_FLOW_LEN}
    assert "timing" in data


def test_run_deterministic_with_no_timing(coin_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"samples_{tag}.csv"
        report = tmp_path / f"report_{tag}.json"
        run_cli("run", coin_file, "--budget", 40, "--particles", 10,
                "--seed", 3, "--out", out, "--report", report, "--no-timing")
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_float_format_17_significant_digits(coin_file, tmp_path):
    out = tmp_path / "samples.csv"
    run_cli("run", coin_file, "--budget", 5, "--particles", 2, "--seed", 0,
            "--out", out)
    row = out.read_text().splitlines()[1]
    weight = row.split(",")[0]
    # per-arm adjusted coin weights are exactly 1
    assert float(weight) == 1.0


def test_kl_subcommand_named_ground_truth(coin_file, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    run_cli("run", coin_file, "--budget", 100, "--particles", 50,
            "--seed", 1, "--out", out)
    capsys.readouterr()
    assert run_cli("kl", "--samples", out, "--ground-truth", "coin(0.36)") == 0
    msg = capsys.readouterr().out
    assert msg.startswith("kl ")
    assert float(msg.split()[1]) < 0.01


def test_kl_subcommand_reference_csv(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    samples = tmp_path / "samples.csv"
    rng = np.random.default_rng(0)
    for path in (ref, samples):
        xs = rng.normal(0, 1, size=20_000)
        with open(path, "w") as fh:
            fh.write("weight,value,flow_id\n")
            for x in xs:
                fh.write(f"1,{x:.17g},-\n")
    run_cli("kl", "--samples", samples, "--ground-truth", ref)
    assert float(capsys.readouterr().out.split()[1]) < 0.02


def test_baseline_subcommand(coin_file, tmp_path, capsys):
    out = tmp_path / "base.csv"
    run_cli("baseline", coin_file, "--method", "rejection", "--n", 5000,
            "--seed", 2, "--out", out)
    msg = capsys.readouterr().out
    assert "accepted" in msg
    assert len(out.read_text().splitlines()) == 5001
    run_cli("baseline", coin_file, "--method", "smc", "--particles", 500,
            "--sweeps", 2, "--seed", 2)
    assert "live sweeps" in capsys.readouterr().out


def test_report_subcommand(coin_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    run_cli("run", coin_file, "--budget", 30, "--particles", 10,
            "--seed", 0, "--report", report)
    capsys.readouterr()
    run_cli("report", report)
    out = capsys.readouterr().out
    assert "status: ok" in out and "p_hat" in out
    assert "flows examined: 4" in out
    assert re.search(r"^cdpg: \d+ steps, \d+ memo hits, \d+ no-op steps$",
                     out, re.M)


def test_report_prints_dead_pulls(tmp_path, capsys):
    path = tmp_path / "obsLoop.prob"
    path.write_text(benchmarks.source("obsLoop", 3, 5))
    report = tmp_path / "report.json"
    assert run_cli("run", path, "--budget", 100, "--particles", 20,
                   "--seed", 0, "--report", report, "--no-timing") == 0
    data = json.loads(report.read_text())
    dead = data["pool"]["dead_pulls"]
    assert dead == sum(arm["dead_pulls"] for arm in data["arms"]) > 0
    capsys.readouterr()
    assert run_cli("report", report) == 0
    assert f"dead pulls: {dead} of 100\n" in capsys.readouterr().out


def test_report_prints_each_arms_ess_health(tmp_path, capsys):
    path = tmp_path / "obsLoop.prob"
    path.write_text(benchmarks.source("obsLoop", 3, 5))
    report = tmp_path / "report.json"
    assert run_cli("run", path, "--budget", 60, "--particles", 20,
                   "--seed", 0, "--report", report, "--no-timing") == 0
    data = json.loads(report.read_text())
    capsys.readouterr()
    assert run_cli("report", report) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[5].split() == ["flow", "p_hat", "pulls", "ess_min", "ess_mean",
                              "resamples"]
    for arm, line in zip(data["arms"], out[6:], strict=True):
        assert line.split() == [
            arm["flow"], f"{arm['p_hat']:.6g}", str(arm["pulls"]),
            f"{arm['ess_min']:.6g}", f"{arm['ess_mean']:.6g}",
            str(arm["resamples"])]
    # a report of an older version has no ESS or dead-pull fields
    del data["pool"]["dead_pulls"]
    for arm in data["arms"]:
        for key in ("ess_min", "ess_mean", "resamples", "dead_pulls"):
            del arm[key]
    report.write_text(json.dumps(data))
    assert run_cli("report", report) == 0
    out = capsys.readouterr().out.splitlines()
    assert not any(line.startswith("dead pulls") for line in out)
    assert out[4].split()[0] == "flow"
    assert out[5].split()[3:] == ["-", "-", "-"]


_FIELDS = ('"status": "ok", "rounds_completed": 1, "blacklisted": {"count": 0}, '
           '"enumeration": {"flows_examined": 1, "hit_length_cap": false}')


@pytest.mark.parametrize("text,reason", [
    ("weight,value,flow_id\n1,0,-\n", "Expecting value: line 1 column 1"),
    ("{}", "no 'status' field"),
    ("[]", "expected a JSON object"),
    # every top-level field, but the wrong shape inside
    ('{%s, "pool": {"size": 1}, "arms": [{}]}' % _FIELDS, "no 'flow' field"),
    ('{%s, "pool": [], "arms": []}' % _FIELDS, "list indices"),
    ('{%s, "pool": {"size": 1}, "arms": [{"flow": "0-1", "pulls": 1, '
     '"p_hat": "x"}]}' % _FIELDS, "Unknown format code 'g'"),
])
def test_report_rejects_a_file_that_is_not_a_run_report(tmp_path, capsys,
                                                         text, reason):
    path = tmp_path / "not_a_report"
    path.write_text(text)
    assert run_cli("report", path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not a run report: ")
    assert reason in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("draw", ["x ~ unif(z - 1 / 0, 1);",
                                  "x ~ unif(-1e308, 1e308);"])
def test_run_counts_a_uniform_range_that_overflows(tmp_path, capsys, draw):
    # numpy cannot draw over a range hi - lo that overflows, so every
    # particle falls back to the safe parameters and is killed and counted;
    # the draw is not restricted, so its flow is not blacklisted either
    path = tmp_path / "overflow.prob"
    path.write_text(f"double x := 0.0;\ndouble z := 0.0;\n{draw}\n"
                    "observe(x > 0.5);\nreturn x;\n")
    report = tmp_path / "report.json"
    assert run_cli("run", path, "--budget", 20, "--particles", 10,
                   "--report", report) == 0
    data = json.loads(report.read_text())
    assert data["blacklisted"]["count"] == 0
    pool = data["pool"]
    assert pool["size"] == pool["eval_anomalies"] == 20 * 10
    assert pool["dead_pulls"] == 20
    assert capsys.readouterr().err == ""


def test_console_entry_point(coin_file):
    # the child finds the package in `src/`, installed or not
    src = str(Path(flowsmc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "flowsmc.cli", "flows", str(coin_file)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


def test_run_empty_program_exits_nonzero(tmp_path):
    path = tmp_path / "dead.prob"
    path.write_text(
        "double x := 0.0;\nx ~ unif(0, 1);\nobserve(x < 0);\nreturn x;\n")
    assert run_cli("run", path, "--budget", 10, "--seed", 0) == 1


def test_language_errors_exit_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("double x := 0.0;\nx ~ normal(1);\nreturn x;\n")
    assert run_cli("flows", bad) == 2
    assert "normal takes 2 parameters" in capsys.readouterr().err
    bad.write_text("double x := 0.0;\nx := y;\nreturn x;\n")
    assert run_cli("flows", bad) == 2
    assert "undeclared" in capsys.readouterr().err
    assert run_cli("flows", tmp_path / "missing.prob") == 2


@pytest.mark.parametrize("flag,value", [
    ("--budget", 0), ("--max-flow-len", 0),
])
def test_run_config_errors_exit_cleanly(coin_file, capsys, flag, value):
    assert run_cli("run", coin_file, flag, value) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_pool_too_large_for_an_array_exits_cleanly(coin_file, capsys):
    # rejected by RunConfig, before the pool's columns are allocated
    assert run_cli("run", coin_file, "--budget", 2147483648,
                   "--particles", 2147483648) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: budget x particles = 4611686018427387904 "
                            "is more samples than one array can hold\n")


def _refuse_large(monkeypatch, name, size):
    """Make `np.<name>` raise numpy's MemoryError for `size` or more
    elements, so no test asks the machine for that much memory."""
    real = getattr(np, name)

    def alloc(shape, *args, **kwargs):
        if np.prod(shape, dtype=np.float64) >= size:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, name, alloc)


def test_run_pool_out_of_memory_exits_cleanly(coin_file, capsys, monkeypatch):
    # within RunConfig's bound, but more than the machine can allocate
    _refuse_large(monkeypatch, "empty", 10**11)
    assert run_cli("run", coin_file, "--budget", 10**8,
                   "--particles", 1000) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Unable to allocate an array with shape "
                            "(100000000, 1000)\n")


def test_baseline_out_of_memory_exits_cleanly(coin_file, capsys, monkeypatch):
    _refuse_large(monkeypatch, "full", 10**11)
    assert run_cli("baseline", coin_file, "--method", "rejection",
                   "--n", 10**11) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Unable to allocate an array with shape "
                            "100000000000\n")


@pytest.fixture
def unif_cd_file(tmp_path):
    path = tmp_path / "unifcd.prob"
    path.write_text(benchmarks.source("unifCd", 3))
    return path


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("command", [("flows",)], ids=["flows"])
def test_max_len_below_one_exits_cleanly(unif_cd_file, capsys, command, cap):
    assert run_cli(*command[:1], unif_cd_file, *command[1:], "--max-len", cap) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-len must be at least 1, got {cap}\n"


@pytest.mark.parametrize("count", [0, -3])
def test_flows_count_below_one_exits_cleanly(unif_cd_file, capsys, count):
    assert run_cli("flows", unif_cd_file, "--count", count) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --count must be at least 1, got {count}\n"


def test_run_negative_seed_exits_cleanly(coin_file, capsys):
    assert run_cli("run", coin_file, "--budget", 3, "--seed", -1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("method", ["rejection", "smc"])
def test_baseline_negative_seed_exits_cleanly(coin_file, capsys, method):
    assert run_cli("baseline", coin_file, "--method", method, "--seed", -1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -1\n"


def test_flows_says_when_the_length_cap_ended_enumeration(unif_cd_file,
                                                           coin_file, capsys):
    assert run_cli("flows", unif_cd_file, "--max-len", 5) == 0
    captured = capsys.readouterr()
    assert captured.out == "0-1-3-5\n"
    assert captured.err == "(length cap 5 hit)\n"
    assert run_cli("flows", unif_cd_file, "--max-len", 1) == 0
    assert capsys.readouterr() == ("", "(length cap 1 hit)\n")
    # stopped by --count, not by the cap
    assert run_cli("flows", unif_cd_file, "--count", 2) == 0
    assert capsys.readouterr().err == ""
    assert run_cli("flows", coin_file) == 0
    assert capsys.readouterr().err == "(exhausted)\n"


def test_flows_lists_every_flow_that_run_can_adopt(tmp_path, capsys):
    # both commands default to one flow-length cap
    path = tmp_path / "forever.prob"
    path.write_text("double x := 0.0;\nwhile (true) { x := x + 1; }\nreturn x;\n")
    report = tmp_path / "report.json"
    assert run_cli("flows", path, "--count", 1000) == 0
    captured = capsys.readouterr()
    ids = captured.out.splitlines()
    assert captured.err == f"(length cap {MAX_FLOW_LEN} hit)\n"
    assert len(ids) == 200 and len(ids[-1].split("-")) == MAX_FLOW_LEN
    assert run_cli("run", path, "--budget", 10, "--particles", 5,
                   "--no-timing", "--report", report) == 1
    capsys.readouterr()
    enumeration = json.loads(report.read_text())["enumeration"]
    assert enumeration["flows_examined"] == len(ids)
    assert enumeration["hit_length_cap"] is True


def test_run_warns_when_the_length_cap_cut_enumeration(tmp_path, coin_file,
                                                       capsys):
    path = tmp_path / "obsLoop.prob"
    path.write_text(benchmarks.source("obsLoop", 3, 10))
    report = tmp_path / "report.json"
    assert run_cli("run", path, "--budget", 100, "--max-flow-len", 40,
                   "--report", report) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("status: empty;")
    assert captured.err == ("warning: enumeration hit the flow-length cap "
                            "(--max-flow-len 40); longer flows were never "
                            "sampled\n")
    data = json.loads(report.read_text())
    assert data["status"] == "empty"
    assert data["enumeration"]["hit_length_cap"] is True
    assert run_cli("run", coin_file, "--budget", 40, "--particles", 10) == 0
    assert capsys.readouterr().err == ""


def test_cdpg_names_where_an_unknown_id_leaves_the_graph(unif_cd_file, capsys):
    assert run_cli("cdpg", unif_cd_file, "--flow", "0-1-3-9") == 2
    assert capsys.readouterr() == (
        "", "error: flow id '0-1-3-9': no edge from 3 to '9' (location 4)\n")
    assert run_cli("cdpg", unif_cd_file, "--flow", "0-1-3-5") == 0
    assert "// flow 0-1-3-5" in capsys.readouterr().out


@pytest.mark.parametrize("flow_id,message", [
    ("", "flow id '' starts at '', not at the initial location 0"),
    ("1-3-5", "flow id '1-3-5' starts at '1', not at the initial location 0"),
    ("0-x-3", "flow id '0-x-3': no edge from 0 to 'x' (location 2)"),
    ("0-01-3-5", "flow id '0-01-3-5': no edge from 0 to '01' (location 2)"),
    ("0-3-5", "flow id '0-3-5': no edge from 0 to '3' (location 2)"),
    ("0-1-3-5-", "flow id '0-1-3-5-': no edge from 5 to '' (location 5)"),
    ("0-1-3", "flow id '0-1-3' ends at 3, not at the final location 5"),
], ids=["empty", "wrong-start", "not-a-number", "leading-zero", "not-an-edge",
        "past-the-end", "stops-early"])
def test_cdpg_bad_id_exits_with_one_error_line(unif_cd_file, capsys, flow_id,
                                               message):
    assert run_cli("cdpg", unif_cd_file, "--flow", flow_id) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cdpg_never_enumerates_flows(tmp_path, capsys, monkeypatch):
    # the id of a flow longer than any enumeration cap the CLI ever had
    g = benchmarks.build("obsLoop", 3, 10)
    flow = nth_flow(g, 60)
    assert len(flow) == 303

    def no_search(self):
        raise AssertionError("cdpg enumerated flows")

    monkeypatch.setattr(FlowEnumerator, "next_complete", no_search)
    path = tmp_path / "obsLoop.prob"
    path.write_text(benchmarks.source("obsLoop", 3, 10))
    assert run_cli("cdpg", path, "--flow", flow.flow_id) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"// flow {flow.flow_id}"
    assert out[-1].startswith("// verdict: ")


def test_baseline_zero_sweeps_exits_cleanly(coin_file, capsys):
    assert run_cli("baseline", coin_file, "--method", "smc", "--sweeps", 0) == 2
    assert capsys.readouterr().err.startswith("error: need at least one sweep")


@pytest.mark.parametrize("args,expect", [
    (("rejection", "--n", -1), "need at least one run"),
    (("rejection", "--n", 0), "need at least one run"),
    (("smc", "--particles", 0), "need at least one particle"),
    (("smc", "--particles", -3), "need at least one particle"),
    (("rejection", "--step-cap", -1), "need a step cap of at least 1"),
    (("smc", "--step-cap", -1), "need a step cap of at least 1"),
    (("smc", "--step-cap", 0), "need a step cap of at least 1"),
], ids=["rejection-n-1", "rejection-n0", "smc-particles0", "smc-particles-3",
        "rejection-step-cap-1", "smc-step-cap-1", "smc-step-cap0"])
def test_baseline_size_errors_exit_cleanly(coin_file, capsys, args, expect):
    method, *rest = args
    assert run_cli("baseline", coin_file, "--method", method, *rest) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expect}\n" and captured.out == ""


@pytest.mark.parametrize("case,expect", [
    ("field", "bad.csv:3: could not convert string to float: 'abc'"),
    ("spec", "cannot parse ground-truth spec 'coin(x)'"),
    ("arity", "ground truth coin(1.0, 2.0, 3.0)"),
    ("bins", "need at least one bin, got -3"),
])
def test_kl_malformed_input_exits_cleanly(tmp_path, capsys, case, expect):
    samples = tmp_path / "samples.csv"
    samples.write_text("weight,value,flow_id\n1,0,-\n1,1,-\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("weight,value,flow_id\n1,0,-\n1,abc,-\n")
    argv = {
        "field": ("--samples", bad, "--ground-truth", "coin(0.36)"),
        "spec": ("--samples", samples, "--ground-truth", "coin(x)"),
        "arity": ("--samples", samples, "--ground-truth", "coin(1,2,3)"),
        "bins": ("--samples", samples, "--ground-truth", "unifCd(3)",
                 "--bins", -3),
    }[case]
    assert run_cli("kl", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err


def test_kl_short_row_exits_cleanly_and_blank_lines_are_skipped(tmp_path,
                                                                 capsys):
    good = tmp_path / "good.csv"
    good.write_text("weight,value,flow_id\n1,0,-\n\n  \n1,1,-\n")
    assert run_cli("kl", "--samples", good, "--ground-truth", "coin(0.5)") == 0
    assert capsys.readouterr().out.startswith("kl ")
    short = tmp_path / "short.csv"
    short.write_text("weight,value,flow_id\n1,0,-\n\n0.5\n1,1,-\n")
    assert run_cli("kl", "--samples", short, "--ground-truth", "coin(0.5)") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {short}:4: expected weight and value, "
                            "got '0.5'\n")


@pytest.mark.parametrize("weight", ["nan", "-1"])
def test_kl_bad_weight_exits_cleanly(tmp_path, capsys, weight):
    samples = tmp_path / "samples.csv"
    samples.write_text(f"weight,value,flow_id\n1,0,-\n{weight},1,-\n")
    assert run_cli("kl", "--samples", samples, "--ground-truth", "coin(0.36)") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: weight {float(weight)!r} is not finite "
                            "and nonnegative\n")


@pytest.mark.parametrize("case,expect", [
    ("geom_r", "geomIt(1.0,5.0): needs 0 <= r < 1"),
    ("pois_rate", "poisCd(-1.0,5.0): needs a finite rate > 0"),
    ("zero_ref", "reference zero.csv has no samples"),
])
def test_kl_degenerate_ground_truth_exits_cleanly(tmp_path, monkeypatch,
                                                  capsys, case, expect):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "samples.csv").write_text("weight,value,flow_id\n1,5,-\n1,6,-\n")
    (tmp_path / "zero.csv").write_text("weight,value,flow_id\n0,5,-\n0,6,-\n")
    truth = {"geom_r": "geomIt(1,5)", "pois_rate": "poisCd(-1,5)",
             "zero_ref": "zero.csv"}[case]
    assert run_cli("kl", "--samples", "samples.csv", "--ground-truth", truth) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err
