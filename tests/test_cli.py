import functools
import json
import operator
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from dualprox import (
    IterationTrace,
    MarketParams,
    StepSizes,
    Topology,
    build_consensus,
    build_market,
    build_scenario,
    dual_objective,
    instance_to_json,
    lipschitz_constant,
    quadratic_local,
    recover_primal,
    run,
    save_instance,
    verify_rate_bounds,
)
from dualprox.cli import main
from dualprox.errors import MalformedTraceError, SingularScaleError
from dualprox.repro import CriterionResult
from dualprox.scenarios import DEFAULT_TRANSFORMS, DEFAULT_UC_PARAMS, DEFAULT_USER_PARAMS

from test_compiled import benchmark_pipeline
from test_model import (
    DENSE_IN_A_BOX,
    DISCONNECTED,
    OFF_NEIGHBOUR,
    _dense_in_a_box,
    _disconnected_doc,
    _off_neighbour_block,
    _singular_pair,
)
from test_trace_digests import _mixed_path


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


@pytest.mark.parametrize("run_args, gated_on", [
    ([], ["no_delay_rate", "delayed_rate", "delay_count", "weighted_delay_count"]),
    (["--mode", "async", "--delay", "5"], ["delayed_rate", "delay_count", "weighted_delay_count"]),
])
def test_verify_writes_its_report_as_one_json_dumps_line(runner, tmp_path, run_args, gated_on):
    assert runner.invoke(main, ["run", "--scenario", "market", *run_args, "--iters", "60",
                                "--out", str(tmp_path)]).exit_code == 0
    res = runner.invoke(main, ["verify", "--trace", str(tmp_path / "trace.csv"),
                               "--out", str(tmp_path), "--json"])
    assert res.exit_code == 0, res.output
    trace = IterationTrace.from_csv(tmp_path / "trace.csv", tmp_path / "trace_meta.json")
    meta = trace.meta
    report = verify_rate_bounds(trace, trace.lam[-1], float(np.min(trace.psi)), meta["h"],
                                StepSizes(meta["step_mode"], meta["step_sizes"]), meta["D"])
    payload = {**report.to_json(), "gated_on": gated_on}
    text = (tmp_path / "bound_report.json").read_text()
    assert text == json.dumps(payload) and json.loads(text) == payload
    assert res.output == text + "\n"  # --json prints the line it wrote


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
                      ("no n_messages", {k: v for k, v in meta.items() if k != "n_messages"}),
                      ("negative n_messages", {**meta, "n_messages": -1}),
                      ("float n_messages", {**meta, "n_messages": 2.0}),
                      ("bool n_messages", {**meta, "n_messages": True}),
                      ("string n_messages", {**meta, "n_messages": "2"}),
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
    '{"targets": [1, 2], "curvatures": [1, 2, 3]}',
    '{"targets": [1, 2], "curvatures": [1]}',
])
def test_run_bad_overrides_fail_cleanly(runner, tmp_path, overrides):
    res = runner.invoke(main, ["run", "--scenario", "consensus", "--out", str(tmp_path),
                               "--overrides", overrides])
    _one_error_line(res, "error: ")
    if overrides.startswith('{"targets": [1, 2]'):
        assert "targets has 2 entries but curvatures has" in res.output


@pytest.mark.parametrize("overrides", [
    '{"uc": 5}',
    '{"users": null}',
    '{"transforms": [1.0, "x", 1.0, 1.0, 1.0]}',
    '{"uc": [], "users": [], "transforms": []}',
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


def _market_override(key, i, number, value):
    entries = [dict(p) for p in (DEFAULT_UC_PARAMS if key == "uc" else DEFAULT_USER_PARAMS)]
    entries[i][number] = value
    return json.dumps({key: entries})


def _mixed_path_edit(agent, part, key, value, **fields):
    """The saved 8-agent mixed path with one number of an agent's part changed, and
    any other ``fields`` of that part replaced."""
    doc = instance_to_json(_mixed_path())
    doc["agents"][agent][part]["params"][key] = value
    doc["agents"][agent][part].update(fields)
    return json.dumps(doc)


# a non-finite number is refused where the overrides are parsed; a derived
# constant that overflows, or a nonsmooth curvature that is not positive,
# when the instance is compiled, naming the agent (the utility companies
# come first); an "instance" case runs the saved document it is given
@pytest.mark.parametrize("scenario, overrides, message", [
    ("consensus", '{"targets": [NaN, 0, 1]}', "targets.0 is not finite"),
    ("consensus", '{"targets": [1e308, 0, 1]}', "agent 0: f offset is not finite"),
    ("consensus", '{"curvatures": [Infinity, 1, 1]}', "curvatures.0 is not finite"),
    ("market", '{"transforms": [1, 2, -1, 1, NaN]}', "transforms.4 is not finite"),
    ("market", _market_override("uc", 0, "kappa", float("nan")), "uc.0.kappa is not finite"),
    ("market", _market_override("users", 1, "x_max", float("nan")), "users.1.x_max is NaN"),
    ("market", _market_override("uc", 1, "vartheta", float("inf")),
     "uc.1.vartheta is not finite"),
    ("market", _market_override("users", 0, "pi", 1e308),
     "agent 2: f threshold price / (2 curvature) is not finite"),
    ("market", _market_override("users", 0, "pi", 1e200),  # only pi^2 overflows
     "agent 2: f flat value -price^2 / (4 curvature) is not finite"),
    ("market", _market_override("uc", 0, "vartheta", 1e308),
     "agent 0: f linear / diagonal curvature is not finite"),
    ("market", _market_override("uc", 0, "vartheta", -1e308),
     "agent 0: f linear / diagonal curvature is not finite"),
    ("instance", _mixed_path_edit(2, "g", "curvature", [[-1e-320]]),
     "agent 2: g diagonal curvature is not positive"),
    ("instance", _mixed_path_edit(2, "g", "curvature", [[-1.0]]),
     "agent 2: g diagonal curvature is not positive"),
    # Psi at u = 0 reads f at x_hat = -linear / diagonal clipped into any domain: its
    # value overflows with no domain, a domain too wide to clip it, or one far from 0
    ("instance", _mixed_path_edit(0, "f", "linear", [1e200]),
     "agent 0: f value at its argmax for u = 0 is not finite"),
    ("instance", _mixed_path_edit(2, "f", "linear", [1e200],
                                  domain={"lower": [-1e300], "upper": [1e300]}),
     "agent 2: f value at its argmax for u = 0 is not finite"),
    ("instance", _mixed_path_edit(2, "f", "linear", [0.0],
                                  domain={"lower": [1e200], "upper": [1e300]}),
     "agent 2: f value at its argmax for u = 0 is not finite"),
])
def test_run_refuses_non_finite_or_overflowing_overrides(runner, tmp_path, scenario,
                                                         overrides, message):
    if scenario == "instance":
        (tmp_path / "instance.json").write_text(overrides)
        source = ["--instance", str(tmp_path / "instance.json")]
    else:
        source = ["--scenario", scenario, "--overrides", overrides]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--out", str(tmp_path), *source])
    compiled = message.startswith("agent ")
    _one_error_line(res, "error: " + ("" if compiled else "cannot build scenario: ") + message)


def test_run_accepts_a_boxed_quadratic_with_a_huge_linear_cost(runner, tmp_path):
    # the domain clips x_hat, so linear^2 / diagonal is never formed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--scenario", "market", "--iters", "50", "--out",
                                   str(tmp_path), "--overrides",
                                   _market_override("uc", 0, "vartheta", 1e200)])
    assert res.exit_code == 0, res.output


def _benchmark_mixed_path(n_agents, seed) -> dict:
    """The benchmark's mixed path (``perfbench/pipeline.py``) as instance JSON."""
    return instance_to_json(benchmark_pipeline().mixed_instance(n_agents, seed))


def test_a_run_near_an_infinite_box_end_is_not_read_as_diverged(runner, tmp_path):
    # agent 3's l1 box given an infinite upper end: after a Moreau step its mu lay 5.55e-17
    # past its weight, the conjugate there was +inf, and the run stopped at round 143 as
    # "diverged"; it runs on, and its trace verifies
    doc = _benchmark_mixed_path(8, 1)
    doc["agents"][3]["g"]["params"]["box"]["upper"] = [float("inf")]
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--instance", str(tmp_path / "instance.json"),
                                   "--mode", "async", "--delay", "4", "--schedule", "random:1",
                                   "--iters", "300", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert json.loads((tmp_path / "trace_meta.json").read_text())["stop_reason"] == "k_max"
        res = runner.invoke(main, ["verify", "--trace", str(tmp_path / "trace.csv"),
                                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_run_refuses_an_instance_file_whose_threshold_overflows(runner, tmp_path):
    doc = instance_to_json(build_market())
    doc["agents"][2]["f"]["params"]["price"] = 1e308
    path = tmp_path / "huge_price.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: agent 2: f threshold price / (2 curvature) is not finite")


@pytest.mark.parametrize("entry", [
    run,
    lambda inst: dual_objective(inst, np.zeros(inst.dual_dim)),
    lambda inst: recover_primal(inst, np.zeros(inst.dual_dim)),
], ids=["run", "dual_objective", "recover_primal"])
def test_run_refuses_a_library_market_whose_threshold_overflows(entry):
    users = [dict(p) for p in DEFAULT_USER_PARAMS]
    users[0]["pi"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularScaleError, match=r"^agent 2: f threshold .* is not finite$"):
            entry(build_market(MarketParams(users=users)))


_EXTREMES = (-1e-320, 1e-320, 1e-200, 1e200, -1e308, 1e308)


def _numbers(node, path=()):
    """The paths to a JSON document's floats."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _numbers(child, path + (key,))
    elif isinstance(node, float):
        yield path


def test_run_exits_cleanly_on_extreme_finite_numbers(runner, tmp_path):
    """Each numeric market override, and each number of f, g and omega in a
    saved path consensus, set to each extreme: a run exits 0, or 1 with one
    error line, with RuntimeWarnings as errors.  The consensus's agents 0-3
    hold one of each nonsmooth kind; agents 4-7 repeat them."""
    cases = [(_market_override(key, i, name, value), None)
             for key, defaults in (("uc", DEFAULT_UC_PARAMS), ("users", DEFAULT_USER_PARAMS))
             for i, p in enumerate(defaults) for name in p for value in _EXTREMES]
    cases += [(json.dumps({"transforms": [value if j == i else t
                                          for j, t in enumerate(DEFAULT_TRANSFORMS)]}), None)
              for i in range(len(DEFAULT_TRANSFORMS)) for value in _EXTREMES]
    text = json.dumps(instance_to_json(_mixed_path()))
    parts = [{key: a[key] for key in ("f", "g", "omega")} for a in json.loads(text)["agents"][:4]]
    for *keys, last in _numbers(parts):
        if last == "strong_convexity":  # written, never read back
            continue
        for value in _EXTREMES:
            doc = json.loads(text)
            functools.reduce(operator.getitem, keys, doc["agents"])[last] = value
            cases.append((None, doc))
    path, failed = tmp_path / "instance.json", []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        for overrides, doc in cases:
            if doc is None:
                source = ["--scenario", "market", "--overrides", overrides]
            else:
                path.write_text(json.dumps(doc))
                source = ["--instance", str(path)]
            res = runner.invoke(main, ["run", "--iters", "20", "--out", str(tmp_path), *source])
            lines = res.output.strip().splitlines()
            if res.exit_code and not (isinstance(res.exception, SystemExit) and len(lines) == 1
                                      and res.exit_code == 1 and lines[0].startswith("error: ")):
                failed.append((overrides or doc, repr(res.exception), res.output))
    assert len(cases) == 294 and not failed, failed


def test_run_refuses_a_curvature_whose_lipschitz_term_overflows(runner, tmp_path):
    # 2 varsigma = 2e-310 is finite, but ||C_2||^2 / 2e-310 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--scenario", "market", "--out", str(tmp_path),
                                   "--overrides", _market_override("users", 0, "varsigma", 1e-310)])
    _one_error_line(res, "error: agent 2: curvature 2e-310 gives ||C_i||^2 / sigma_i = inf")


def test_run_and_verify_a_market_user_without_an_upper_bound(runner, tmp_path):
    # the support function of [0, inf) at mu = 0 is 0, not 0 * inf = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--scenario", "market", "--json", "--out", str(tmp_path),
                                   "--overrides", _market_override("users", 2, "x_max", np.inf)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["stop_reason"] == "tol"
        res = runner.invoke(main, ["verify", "--trace", str(tmp_path / "trace.csv"),
                                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_refuses_a_non_finite_psi_star(runner, tmp_path, value):
    res = runner.invoke(main, ["run", "--scenario", "market", "--psi-star", value, "--json",
                               "--out", str(tmp_path)])
    _one_error_line(res, "error: psi_star = ")
    assert "is not finite" in res.output


def test_run_refuses_a_numerically_singular_curvature(runner, tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(_singular_pair()))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: malformed instance JSON: "
                         "agent 0: smooth part has strong convexity 0.0, not positive")


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
    tiny = json.loads(json.dumps(doc))
    tiny["agents"][0]["f"]["params"]["curvature"] = [[1e-310]]
    # sigma_i <= 0 and a block of the wrong shape cannot enter an instance: both fail at
    # load; a subnormal sigma_i loads, but its ||C_i||^2 / sigma_i overflows when h is taken
    load = "cannot load instance: malformed instance JSON: "
    for name, bad, message in (
            ("flat", flat, load + "agent 1: smooth part has strong convexity 0.0"),
            ("wide", wide, load + "agent 0: block for l=0 has shape (1, 2)"),
            ("tiny", tiny, "bad instance: agent 0: curvature 1e-310 gives "
                           "||C_i||^2 / sigma_i = inf")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
            res = runner.invoke(main, ["verify", "--trace", str(good / "trace.csv"),
                                       "--instance", str(path), "--out", str(tmp_path)])
        _one_error_line(res, f"error: {message}")


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


@pytest.mark.parametrize("name, agent, part, key, value, message", [
    ("market", 3, "f", "price", float("inf"), "agent 3: f.params.price is not finite"),
    ("mixed_path", 1, "g", "weight", float("nan"), "agent 1: g.params.weight is not finite"),
    ("mixed_path", 2, "g", "linear", [float("nan")], "agent 2: g.params.linear is not finite"),
])
def test_run_names_a_non_finite_catalog_number(runner, tmp_path, name, agent, part, key,
                                               value, message):
    doc = instance_to_json(build_market() if name == "market" else _mixed_path())
    doc["agents"][agent][part]["params"][key] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: ")
    assert message in res.output


def test_run_refuses_an_instance_file_with_a_block_off_the_neighbourhood(runner, tmp_path):
    doc = instance_to_json(build_scenario("consensus", {"targets": [0.0, 1.0, 2.0, 3.0]}))
    doc["edges"] = [[0, 1], [2, 3]]  # two components; the blocks on (1, 2) now lie outside
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: malformed instance JSON: agent 1: "
                         "block for l=2 is nonzero, but l is not a neighbour")


@pytest.mark.parametrize("source, message", [
    ("off_neighbour", OFF_NEIGHBOUR),
    ("disconnected", DISCONNECTED),
    ("singular", "agent 0: smooth part has strong convexity 0.0, not positive"),
])
def test_run_refuses_an_instance_file_the_constructor_refuses(runner, tmp_path, source, message):
    doc = {"off_neighbour": lambda: _off_neighbour_block()[1],
           "disconnected": _disconnected_doc, "singular": _singular_pair}[source]()
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, f"error: cannot load instance: malformed instance JSON: {message}")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("scenario, overrides, message", [
    ("consensus", {"targets": [0.0, 1.0, 2.0], "edges": [[0, 1]]}, DISCONNECTED),
    ("consensus", {"targets": [0.0, 1.0, 2.0], "curvatures": [1.0, 0.0, 1.0]},
     "agent 1: smooth part has strong convexity 0.0, not positive"),
    ("market", {"uc": [{**DEFAULT_UC_PARAMS[0], "kappa": -1.0}, DEFAULT_UC_PARAMS[1]]},
     "agent 0: smooth part has strong convexity -2.0, not positive"),
    # 2 kappa and 2 varsigma overflow: an infinite sigma_i would leave its agent out of h
    ("market", {"uc": [{**DEFAULT_UC_PARAMS[0], "kappa": 1e308}, DEFAULT_UC_PARAMS[1]]},
     "agent 0: smooth part has strong convexity inf, not finite"),
    ("market", {"users": [*DEFAULT_USER_PARAMS[:2], {**DEFAULT_USER_PARAMS[2], "varsigma": 1e308}]},
     "agent 4: smooth part has strong convexity inf, not finite"),
])
def test_run_refuses_a_scenario_the_constructor_refuses(runner, tmp_path, scenario, overrides,
                                                       message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as the CLI smoke runs it
        res = runner.invoke(main, ["run", "--scenario", scenario, "--overrides",
                                   json.dumps(overrides), "--out", str(tmp_path)])
    _one_error_line(res, f"error: cannot build scenario: {message}")


def test_run_refuses_a_nonsmooth_part_of_the_wrong_dimension(runner, tmp_path):
    doc = instance_to_json(build_consensus(Topology.path(2), [quadratic_local([0.0, 0.0])] * 2))
    doc["agents"][1]["g"] = {"kind": "indicator_box",
                             "params": {"box": {"lower": [-1.0], "upper": [1.0]}}}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["run", "--instance", str(path), "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: malformed instance JSON: "
                         "agent 1: nonsmooth part has dim 1, expected M=2")


@pytest.mark.parametrize("part", ["f", "omega"])
def test_run_refuses_a_dense_quadratic_in_a_box_when_it_loads(runner, tmp_path, part):
    # before, the file loaded and the run failed later on an error that named no agent
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_in_a_box(part)))
    res = runner.invoke(main, ["run", "--instance", str(path), "--mode", "async", "--delay", "1",
                               "--out", str(tmp_path)])
    _one_error_line(res, "error: cannot load instance: malformed instance JSON: "
                         + DENSE_IN_A_BOX[part])


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


@pytest.mark.parametrize("flags, message", [
    (["--delay", "-1"], "delay bound must be nonnegative"),
    (["--delay", "2", "--schedule", "random:-1"], "non-negative integer"),
])
def test_run_refuses_a_negative_delay_or_seed(runner, tmp_path, flags, message):
    res = runner.invoke(main, ["run", "--scenario", "market", "--mode", "async", *flags,
                               "--out", str(tmp_path / "o")])
    _one_error_line(res, "error: bad delay schedule")
    assert message in res.output
