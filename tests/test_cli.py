import json

import numpy as np
import pytest
from click.testing import CliRunner

from dualprox import (
    BoxSet,
    IterationTrace,
    ProxFriendlyFunction,
    StepSizes,
    Topology,
    build_consensus,
    build_market,
    build_scenario,
    instance_to_json,
    lipschitz_constant,
    quadratic_local,
    run,
    save_instance,
)
from dualprox.cli import main
from dualprox.errors import MalformedTraceError
from dualprox.repro import CriterionResult


@pytest.fixture
def runner():
    return CliRunner()


def test_run_consensus_writes_trace(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--tol", "1e-10",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "trace.csv").exists() and (out / "trace_meta.json").exists()
    assert "x_hat" in res.output and "mismatch" in res.output
    meta = json.loads((out / "trace_meta.json").read_text())
    assert meta["mode"] == "sync" and meta["prng"] == "numpy-PCG64"


def test_run_json_summary(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--json",
                               "--out", str(tmp_path / "j")])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert set(summary) >= {"rounds", "psi", "epsilon", "x_hat", "mismatch"}


def test_run_requires_exactly_one_source(runner, tmp_path):
    assert runner.invoke(main, ["run"]).exit_code == 1
    res = runner.invoke(main, ["run", "--scenario", "consensus",
                               "--instance", "x.json"])
    assert res.exit_code == 1


def test_run_missing_instance_file(runner):
    res = runner.invoke(main, ["run", "--instance", "missing.json"])
    assert res.exit_code == 1
    assert "not found" in res.output


def test_run_flag_validation(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--delay", "2"])
    assert res.exit_code == 1 and "--delay" in res.output
    for delay in ("2", "0"):  # worst with --delay 0 is the no-delay schedule
        res = runner.invoke(main, ["run", "--scenario", "consensus", "--mode", "async",
                                   "--delay", delay, "--schedule", "zero"])
        assert res.exit_code == 1 and "unknown schedule 'zero'" in res.output
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--mode", "async",
                               "--delay", "2", "--schedule", "random:abc"])
    assert res.exit_code == 1
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--mode", "async",
                               "--delay", "2", "--schedule", "sometimes"])
    assert res.exit_code == 1
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--mode", "async",
                               "--delay", "1", "--margin", "1.5"])
    assert res.exit_code == 1


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf", "0"])
def test_run_refuses_a_margin_outside_the_unit_interval(runner, tmp_path, margin):
    res = runner.invoke(main, ["run", "--scenario", "market", "--mode", "async",
                               "--margin", margin, "--out", str(tmp_path)])
    assert res.exit_code == 1
    _one_error_line(res, "error: margins must lie in (0, 1]")


def test_run_determinism_bitwise(runner, tmp_path):
    args = ["run", "--scenario", "consensus", "--mode", "async", "--delay", "2",
            "--schedule", "random:11", "--tol", "1e-9"]
    r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
    assert (tmp_path / "a/trace_meta.json").read_bytes() == (tmp_path / "b/trace_meta.json").read_bytes()


def test_instance_roundtrip_reproduces_scenario_trace(runner, tmp_path):
    inst_path = tmp_path / "market.json"
    save_instance(build_market(), inst_path)
    common = ["--tol", "1e-9", "--psi-star", "756.53"]
    r1 = runner.invoke(main, ["run", "--scenario", "market", *common,
                              "--out", str(tmp_path / "s")])
    r2 = runner.invoke(main, ["run", "--instance", str(inst_path), *common,
                              "--out", str(tmp_path / "i")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "s/trace.csv").read_bytes() == (tmp_path / "i/trace.csv").read_bytes()


def test_verify_gates_on_mode(runner, tmp_path):
    out = tmp_path / "sync"
    assert runner.invoke(main, ["run", "--scenario", "market", "--tol", "1e-9",
                                "--out", str(out)]).exit_code == 0
    res = runner.invoke(main, ["verify", "--trace", str(out / "trace.csv"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "bound_report.json").read_text())
    assert report["min_slacks"]["no_delay_rate"] >= -1e-9
    assert report["min_slacks"]["delay_count"] >= -1e-9

    out2 = tmp_path / "async"
    assert runner.invoke(main, ["run", "--scenario", "market", "--mode", "async",
                                "--delay", "5", "--tol", "1e-9",
                                "--out", str(out2)]).exit_code == 0
    res = runner.invoke(main, ["verify", "--trace", str(out2 / "trace.csv"),
                               "--out", str(out2), "--json"])
    assert res.exit_code == 0, res.output
    report = json.loads((out2 / "bound_report.json").read_text())
    assert report["min_slacks"]["delayed_rate"] >= -1e-9
    assert "no_delay_rate" not in report["gated_on"]


def test_verify_missing_and_malformed(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--trace", str(tmp_path / "nope.csv")])
    assert res.exit_code == 1 and "not found" in res.output

    bad = tmp_path / "trace.csv"
    bad.write_text("k,psi\n0,1\n")
    res = runner.invoke(main, ["verify", "--trace", str(bad),
                               "--out", str(tmp_path)])
    assert res.exit_code == 1

    bad.write_text("k,psi,epsilon,step_norm_inf\n0,1.0,0.0,0.0\n")  # and no metadata beside it
    res = runner.invoke(main, ["verify", "--trace", str(bad), "--out", str(tmp_path)])
    assert res.exit_code == 1 and "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")

    good = tmp_path / "run"
    assert runner.invoke(main, ["run", "--scenario", "consensus",
                                "--out", str(good)]).exit_code == 0
    bad_inst = tmp_path / "inst.json"
    bad_inst.write_text('{"M": 1, "B": 1, "edges": []}')
    res = runner.invoke(main, ["verify", "--trace", str(good / "trace.csv"),
                               "--instance", str(bad_inst), "--out", str(tmp_path)])
    assert res.exit_code == 1 and "Traceback" not in res.output
    assert res.output.startswith("error: cannot load instance")

    meta = json.loads((good / "trace_meta.json").read_text())
    text = json.dumps(meta)
    for name, doc in (("truncated", text[:len(text) // 2]),
                      ("list", "[1, 2]"),
                      ("short steps", {**meta, "step_sizes": meta["step_sizes"][:-1]}),
                      ("zero step", {**meta, "step_sizes": [0.0] * meta["n_agents"]}),
                      ("string h", {**meta, "h": "2.0"}),
                      ("string D", {**meta, "D": "abc"}),
                      ("string n_agents", {**meta, "n_agents": "3"}),
                      ("tau ahead of k", {**meta, "tau": [k + 1 for k in meta["tau"]]}),
                      ("count not a list", {**meta, "message_counts": 5}),
                      ("no h", {k: v for k, v in meta.items() if k != "h"})):
        mutated = tmp_path / "mutated_meta.json"
        mutated.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        res = runner.invoke(main, ["verify", "--trace", str(good / "trace.csv"),
                                   "--meta", str(mutated), "--out", str(tmp_path)])
        assert "Traceback" not in res.output, name
        _one_error_line(res, "error: ")


def test_repro_table_and_exit_codes(runner, monkeypatch):
    ok = [CriterionResult(1, "alpha", True, "fine"),
          CriterionResult(2, "beta", True, "fine too")]
    monkeypatch.setattr("dualprox.cli.run_all", lambda ctx: ok)
    res = runner.invoke(main, ["repro"])
    assert res.exit_code == 0
    assert "[PASS]  1 alpha" in res.output

    bad = ok + [CriterionResult(3, "gamma", False, "broken")]
    monkeypatch.setattr("dualprox.cli.run_all", lambda ctx: bad)
    res = runner.invoke(main, ["repro"])
    assert res.exit_code == 1
    assert "[FAIL]  3 gamma" in res.output

    res = runner.invoke(main, ["repro", "--json"])
    assert res.exit_code == 1
    parsed = json.loads(res.output)
    assert parsed[2]["passed"] is False


def test_repro_json_takes_numpy_bools(runner, monkeypatch):
    results = [CriterionResult(1, "alpha", np.bool_(False), "off"),
               CriterionResult(2, "beta", np.float64(0.5) < 1.0, "fine")]
    monkeypatch.setattr("dualprox.cli.run_all", lambda ctx: results)
    res = runner.invoke(main, ["repro", "--json"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)  # not a TypeError
    parsed = json.loads(res.output)
    assert [row["passed"] for row in parsed] == [False, True]


def _one_error_line(res, prefix):
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.output


@pytest.mark.parametrize("overrides", [
    '{"targets": [1.0,',
    '[1]',
    '"targets"',
    '{"targets": [0.0, 1.0], "curvatures": [1.0, "x"]}',
    '{"targets": "ab"}',
    '{"edges": 5}',
])
def test_run_bad_overrides_fail_cleanly(runner, tmp_path, overrides):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--out", str(tmp_path),
                               "--overrides", overrides])
    _one_error_line(res, "error: ")


@pytest.mark.parametrize("overrides", [
    '{"uc": 5}',
    '{"users": null}',
    '{"transforms": [1.0, "x", 1.0, 1.0, 1.0]}',
])
def test_run_bad_market_overrides_fail_cleanly(runner, tmp_path, overrides):
    res = runner.invoke(main, ["run", "--scenario", "market", "--out", str(tmp_path),
                               "--overrides", overrides])
    _one_error_line(res, "error: cannot build scenario: ")


def test_run_override_missing_key_fails_cleanly(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "market", "--out", str(tmp_path),
                               "--overrides", '{"uc": [{"vartheta": 1.0}, {"kappa": 0.1}]}'])
    _one_error_line(res, "error: cannot build scenario: an override lacks key 'kappa'")


def test_run_override_unknown_keys_fail_cleanly(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--out", str(tmp_path),
                               "--overrides", '{"curvature": [5, 5, 5], "target": [1, 2, 3]}'])
    _one_error_line(res, "error: cannot build scenario: unknown override keys")
    assert "'curvature'" in res.output and "'target'" in res.output


def test_verify_reports_a_bad_instance_cleanly(runner, tmp_path):
    good = tmp_path / "run"
    assert runner.invoke(main, ["run", "--scenario", "consensus",
                                "--out", str(good)]).exit_code == 0
    doc = instance_to_json(build_scenario("consensus"))
    flat = json.loads(json.dumps(doc))
    flat["agents"][1]["f"]["params"]["curvature"] = [[0.0]]
    flat["agents"][1]["f"]["strong_convexity"] = 0.0
    wide = json.loads(json.dumps(doc))
    wide["agents"][0]["constraint"]["blocks"]["0"] = [[1.0, 2.0]]
    # a block of the wrong shape cannot enter the block table: it fails at load
    for name, bad, prefix in (("flat", flat, "error: bad instance: "),
                              ("wide", wide, "error: cannot load instance: ")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        res = runner.invoke(main, ["verify", "--trace", str(good / "trace.csv"),
                                   "--instance", str(path), "--out", str(tmp_path)])
        _one_error_line(res, prefix)


@pytest.mark.parametrize("flags", [
    ["--schedule", "random:5"],
    ["--margin", "0.3"],
    ["--schedule", "random:5", "--margin", "0.3"],
    ["--schedule", "worst"],
    ["--margin", "1.0"],
])
def test_run_sync_refuses_async_flags(runner, tmp_path, flags):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--out", str(tmp_path),
                               *flags])
    _one_error_line(res, "error: sync mode does not take ")
    for flag in flags[::2]:
        assert flag in res.output


def test_run_async_defaults_to_worst_schedule_and_full_margin(runner, tmp_path):
    common = ["run", "--scenario", "consensus", "--mode", "async", "--delay", "2"]
    assert runner.invoke(main, [*common, "--out", str(tmp_path / "d")]).exit_code == 0
    assert runner.invoke(main, [*common, "--schedule", "worst", "--margin", "1.0",
                                "--out", str(tmp_path / "e")]).exit_code == 0
    assert ((tmp_path / "d/trace.csv").read_bytes()
            == (tmp_path / "e/trace.csv").read_bytes())
    meta = json.loads((tmp_path / "d/trace_meta.json").read_text())
    assert meta["schedule"] == "worst_case"


@pytest.mark.parametrize("where, message", [
    ("block", "agent 1: block for l=0 is not finite"),
    ("rhs", "agent 2: rhs is not finite"),
])
def test_run_rejects_a_non_finite_instance(runner, tmp_path, where, message):
    doc = instance_to_json(build_scenario("consensus"))
    constraint = doc["agents"][1 if where == "block" else 2]["constraint"]
    if where == "block":
        constraint["blocks"]["0"] = [[float("nan")]]
    else:
        constraint["rhs"] = [float("inf")]
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: ")
    assert message in res.output


def test_run_validation_failure_is_one_line(runner, tmp_path):
    doc = instance_to_json(build_scenario("consensus", {"targets": [0.0, 1.0, 2.0, 3.0]}))
    doc["edges"] = [[0, 1], [2, 3]]  # two components; the blocks on (1, 2) now lie outside
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: instance failed validation: connectivity: 4 agents, 2 edges; "
                         "block_sparsity: nonzero blocks outside neighbourhood: [(1, 2), (2, 1)]")
    assert "pass" not in res.output and "not_checked" not in res.output


def test_run_refuses_a_nonsmooth_part_of_the_wrong_dimension(runner, tmp_path):
    box = ProxFriendlyFunction.indicator_box(BoxSet([-1.0], [1.0]))
    path = tmp_path / "narrow.json"
    save_instance(build_consensus(Topology.path(2), [quadratic_local([0.0, 0.0])] * 2,
                                  [ProxFriendlyFunction.zero(), box]), path)
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: instance failed validation: dimensions: "
                         "agent 1: nonsmooth part has dim 1, expected M=2")


@pytest.mark.parametrize("endpoint", [0.5, 1.0])
def test_run_rejects_an_edge_with_a_float_endpoint(runner, tmp_path, endpoint):
    doc = instance_to_json(build_scenario("consensus"))
    doc["edges"][0] = [0, endpoint]
    path = tmp_path / "float_edge.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, f"error: cannot load instance: malformed instance JSON: "
                         f"edge [0, {endpoint}] is not a pair of integers")


def test_run_reports_why_it_stopped(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "market", "--iters", "5",
                               "--out", str(tmp_path / "cap")])
    assert res.exit_code == 0, res.output
    assert "converged" not in res.output
    assert "stopped after 5 rounds: --iters reached before tol" in res.output
    meta = json.loads((tmp_path / "cap/trace_meta.json").read_text())
    assert meta["stop_reason"] == "k_max"

    res = runner.invoke(main, ["run", "--scenario", "consensus", "--json",
                               "--out", str(tmp_path / "tol")])
    assert json.loads(res.output)["stop_reason"] == "tol"
    res = runner.invoke(main, ["run", "--scenario", "consensus",
                               "--out", str(tmp_path / "tol")])
    assert res.output.startswith("converged in ")


def test_run_market_epsilon_is_measured_from_best_psi(runner, tmp_path):
    res = runner.invoke(main, ["run", "--scenario", "market", "--json", "--tol", "1e-9",
                               "--out", str(tmp_path / "m")])
    assert res.exit_code == 0, res.output
    assert 0.0 <= json.loads(res.output)["epsilon"] < 1e-6


@pytest.mark.parametrize("doc", [
    '{"M": 1, "B": 1, "edges": []}',
    '[1, 2]',
    '{"M": 1, "B": 1, "edges": [], "agents": [7]}',
    '{"M": "one", "B": 1, "edges": [], "agents": []}',
])
def test_run_malformed_instance_fails_cleanly(runner, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot load instance")


def test_run_json_records_psi_star_source(runner, tmp_path):
    for extra, source in (([], "best_observed"), (["--psi-star", "-4.5"], "given")):
        out = tmp_path / source
        res = runner.invoke(main, ["run", "--scenario", "consensus", "--json", *extra,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output)
        meta = json.loads((out / "trace_meta.json").read_text())
        assert summary["psi_star_source"] == meta["psi_star_source"] == source
        assert summary["psi_star"] == meta["psi_star"]
    assert summary["psi_star"] == -4.5


def test_run_reports_divergence(runner, tmp_path, monkeypatch):
    def oversized_steps(inst, **kwargs):
        h, _ = lipschitz_constant(inst)
        kwargs.update(steps=StepSizes.uniform(40.0 / h, inst.n_agents),
                      allow_step_violation=True)
        return run(inst, **kwargs)

    monkeypatch.setattr("dualprox.cli.engine_run", oversized_steps)
    out = tmp_path / "div"
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--mode", "async",
                               "--delay", "3", "--iters", "3000", "--out", str(out),
                               "--overrides", '{"targets": [0.0, 3.0, 6.0, 9.0]}'])
    assert res.exit_code == 1
    assert "Traceback" not in res.output
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: run diverged")
    assert json.loads((out / "trace_meta.json").read_text())["stop_reason"] == "nonfinite"


def test_verify_refuses_a_truncated_trace(runner, tmp_path):
    good = tmp_path / "run"
    assert runner.invoke(main, ["run", "--scenario", "market", "--iters", "30",
                                "--out", str(good)]).exit_code == 0
    lines = (good / "trace.csv").read_text().splitlines(keepends=True)
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "trace_meta.json").write_text((good / "trace_meta.json").read_text())
    # the header alone, then the rows cut short of the metadata's read instants
    for name, kept, message in (("header only", lines[:1], "has a header but no rows"),
                                ("short", lines[:-5], "30 tau entries for the 25 transitions")):
        (cut / "trace.csv").write_text("".join(kept))
        res = runner.invoke(main, ["verify", "--trace", str(cut / "trace.csv"),
                                   "--out", str(cut)])
        _one_error_line(res, "error: ")
        assert message in res.output, name
    # message counts that disagree with the rows are refused as well
    meta = json.loads((good / "trace_meta.json").read_text())
    meta["message_counts"] = meta["message_counts"][:-1]
    (cut / "trace_meta.json").write_text(json.dumps(meta))
    (cut / "trace.csv").write_text("".join(lines))
    res = runner.invoke(main, ["verify", "--trace", str(cut / "trace.csv"), "--out", str(cut)])
    _one_error_line(res, "error: ")
    assert "29 message_counts entries for the 30 transitions" in res.output


@pytest.mark.parametrize("name", ["theta names swapped", "theta and mu swapped",
                                  "rows out of order", "k repeated", "psi_star abc",
                                  "no metadata"])
def test_verify_refuses_a_trace_its_metadata_does_not_describe(runner, tmp_path, name):
    good = tmp_path / "run"
    assert runner.invoke(main, ["run", "--scenario", "market", "--iters", "30",
                                "--out", str(good)]).exit_code == 0
    lines = (good / "trace.csv").read_text().splitlines()
    names = lines[0].split(",")
    assert names[4:6] == ["theta_0_0", "theta_1_0"] and names[9] == "mu_0_0"  # 5 agents
    meta = json.loads((good / "trace_meta.json").read_text())
    if name == "theta names swapped":
        names[4], names[5] = names[5], names[4]
    elif name == "theta and mu swapped":
        names = names[:4] + names[9:] + names[4:9]
    elif name == "rows out of order":
        lines[2], lines[3] = lines[3], lines[2]
    elif name == "k repeated":
        lines[3] = lines[2]
    elif name == "psi_star abc":
        meta["psi_star"] = "abc"
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trace.csv").write_text("\n".join([",".join(names), *lines[1:]]) + "\n")
    if name != "no metadata":
        (bad / "trace_meta.json").write_text(json.dumps(meta))
    with pytest.raises(MalformedTraceError) as exc:
        IterationTrace.from_csv(bad / "trace.csv", bad / "trace_meta.json")
    assert "\n" not in str(exc.value)
    res = runner.invoke(main, ["verify", "--trace", str(bad / "trace.csv"), "--out", str(bad)])
    _one_error_line(res, "error: ")


@pytest.mark.parametrize("flags", [["--iters", "-3"], ["--iters", "-1"], ["--tol", "nan"],
                                   ["--tol", "-1e-8"]])
def test_run_refuses_a_negative_round_cap_or_tolerance(runner, tmp_path, flags):
    res = runner.invoke(main, ["run", "--scenario", "market", *flags,
                               "--out", str(tmp_path / "o")])
    _one_error_line(res, "error: ")
