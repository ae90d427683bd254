"""Self-tests of the benchmark.  Run: ``python -m pytest perfbench -q``."""

import copy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import pipeline  # noqa: E402
from spans import Tracer, phase_seconds, span_table  # noqa: E402


def synthetic_spans():
    """engine.run [0, 10] with apply_C [1, 4] (neighbors [2, 3] inside it),
    prox [5, 6], an unattached build [20, 21], and run's own time left over."""
    names = ["engine.run", "model.apply_C", "model.neighbors", "convex.prox",
             "scenarios.build"]
    rows = [  # name id, parent row, start, end
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 6.0),
        (4, -1, 20.0, 21.0),
    ]
    return {
        "names": names,
        "name_id": np.array([r[0] for r in rows]),
        "parent": np.array([r[1] for r in rows]),
        "op_id": np.zeros(len(rows), dtype=int),
        "start": np.array([r[2] for r in rows]),
        "end": np.array([r[3] for r in rows]),
    }


def test_self_time_subtracts_direct_children_only():
    table = span_table(synthetic_spans())
    assert table["engine.run"] == (1, 10.0, 6.0)
    assert table["model.apply_C"] == (1, 3.0, 2.0)
    assert table["model.neighbors"] == (1, 1.0, 1.0)
    assert table["convex.prox"] == (1, 1.0, 1.0)
    assert table["scenarios.build"] == (1, 1.0, 1.0)
    assert sum(own for _, _, own in table.values()) == 11.0


def test_phases_split_the_run_span():
    phases = phase_seconds(synthetic_spans())
    assert phases == {"xhat": 3.0, "grad": 0.0, "prox": 1.0, "objective": 0.0,
                      "record": 6.0}
    assert sum(phases.values()) == 10.0


def test_tracer_nests_and_restores_patched_names():
    import dualprox

    original = dualprox.model.Topology.neighbors
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("engine.run"):
            dualprox.model.Topology.path(4).neighbors(1)
    assert dualprox.model.Topology.neighbors is original
    table = span_table(tracer.arrays())
    assert table["model.neighbors"][0] == 1
    spans = tracer.arrays()
    assert spans["parent"].tolist() == [-1, 0]


@pytest.fixture(scope="module")
def small_ops(tmp_path_factory):
    """One reduced-size op per workload, with its expectations."""
    out = {}
    for name, w in pipeline.WORKLOADS.items():
        small = w.small()
        res = pipeline.run_op(small, 5, tmp_path_factory.mktemp(name))
        out[name] = (small, res, pipeline.expectations(small, 5))
    return out


def test_small_ops_pass_every_check(small_ops):
    for small, res, expected in small_ops.values():
        assert pipeline.check_op(small, res, expected) == []
        assert min(res.setup_s, res.solve_s, res.write_s, res.replay_s) > 0


def test_perturbed_lambda_fails_dense_reference(small_ops):
    small, res, expected = copy.deepcopy(small_ops["consensus-path"])
    res.trace.lam[-1] = res.trace.lam[-1] + 1e-9
    failed = pipeline.check_op(small, res, expected)
    assert "dense_lam" in failed and "replay_bitwise" in failed


def test_wrong_psi_fails_market_check(small_ops):
    small, res, expected = copy.deepcopy(small_ops["market-async"])
    converged = expected["converged"]
    converged.psi[-1] = 756.53
    recovery = pipeline.recover_primal(small.build(small.n_agents, 5), converged.lam[-1])
    assert pipeline.check_converged(small, converged, recovery) == ["market_psi"]


def test_op_off_the_converged_path_fails(small_ops):
    small, res, expected = copy.deepcopy(small_ops["market-async"])
    assert len(res.trace.lam) < len(expected["converged"].lam)
    res.trace.psi[-1] += 1e-9
    assert "prefix" in pipeline.check_op(small, res, expected)


def test_perturbed_lambda_fails_determinism_gate(small_ops):
    small, res, expected = copy.deepcopy(small_ops["consensus-mixed"])
    first = harness.Op(res, [])
    res.trace.lam[-1] = res.trace.lam[-1] + 1e-12
    second = harness.Op(res, [])
    harness.gate_determinism([first, second])
    assert first.failed == [] and second.failed == ["determinism"]


def test_negative_slack_fails(small_ops):
    small, res, expected = small_ops["consensus-mixed"]
    assert pipeline.check_op(small, replace(res, min_slack=-1e-6), expected) == ["rate_slack"]


def test_count_mismatch_fails_determinism_gate(small_ops):
    small, res, expected = small_ops["consensus-mixed"]
    ops = [harness.Op(res, []), harness.Op(res, [])]
    ops[1].messages += 1
    harness.gate_determinism(ops)
    assert ops[0].failed == [] and ops[1].failed == ["determinism"]


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_measure(name, trace, tmp_path):
    w = pipeline.WORKLOADS[name].small()
    result = harness.measure(w, 7, 0.0, trace, tmp_path, log=lambda line: None)
    assert result["correct"] and result["failed"] == 0
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result["metrics"]) == set(units)
    timed = {k: m["value"] for k, m in result["metrics"].items() if k != "trace.overhead_frac"}
    assert min(timed.values()) > 0
    assert result["attempted"] == (3 if trace else 1)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market-async",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
