import numpy as np
import pytest

from dualprox import (
    AgentSpec,
    BoxSet,
    ConstraintBlock,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    Topology,
    apply_C,
    build_market,
    build_scenario,
    instance_from_json,
    instance_to_json,
    lipschitz_constant,
    load_instance,
    save_instance,
    validate_instance,
)
from dualprox.errors import MalformedInstanceError, SingularScaleError
from dualprox.model import instance_hash

from dense_reference import dense_C


def _single_agent(a=2.0, sigma=1.0):
    f = SmoothConjugable(QuadraticFunction(sigma, [0.0]))
    block = ConstraintBlock(0, {0: [[a]]}, [0.0])
    agent = AgentSpec(0, f, ProxFriendlyFunction.zero(), None, block)
    return ProblemInstance(Topology(1, frozenset()), (agent,), M=1, B=1)


def test_topology_constructors_and_connectivity():
    assert Topology.path(3).edges == frozenset({(0, 1), (1, 2)})
    assert Topology.path(3).is_connected()
    assert Topology.star(4).neighbors(0) == [1, 2, 3]
    assert Topology.fully_connected(5).neighbors(2) == [0, 1, 3, 4]
    assert not Topology(3, frozenset({(0, 1)})).is_connected()


def test_topology_rejects_self_loops():
    with pytest.raises(ValueError):
        Topology(3, frozenset({(1, 1)}))


def test_apply_C_single_agent():
    inst = _single_agent(a=2.0)
    lam = np.array([3.0, 4.0])  # theta_0 = 3, mu_0 = 4
    np.testing.assert_allclose(apply_C(inst, lam)[0], [-10.0])


def test_apply_C_market_unit_direction():
    inst = build_market()
    lam = np.zeros(inst.dual_dim)
    lam[0] = 1.0  # first generator's theta
    np.testing.assert_allclose(apply_C(inst, lam)[0], [-1.0])


def test_apply_C_matches_dense_materialization():
    rng = np.random.default_rng(1)
    for inst in (build_market(), build_scenario("consensus")):
        dense = dense_C(inst)
        for _ in range(20):
            lam = rng.normal(size=inst.dual_dim)
            np.testing.assert_allclose(apply_C(inst, lam).ravel(), dense @ lam, atol=1e-12)


def test_apply_C_adjoint_consistency():
    inst = build_scenario("consensus")
    rng = np.random.default_rng(2)
    full = dense_C(inst)
    for i in range(inst.n_agents):
        dense = full[i * inst.M:(i + 1) * inst.M]
        for _ in range(10):
            lam = rng.normal(size=inst.dual_dim)
            x = rng.normal(size=inst.M)
            lhs = float(x @ apply_C(inst, lam)[i])
            rhs = float((dense.T @ x) @ lam)
            assert abs(lhs - rhs) < 1e-12


def test_apply_C_ignores_non_neighbors():
    inst = build_scenario("consensus", {"targets": [0.0, 1.0, 2.0, 3.0]})
    lam = np.ones(inst.dual_dim)
    before = apply_C(inst, lam)[0]
    lam2 = lam.copy()
    lam2[inst.theta_slice(3)] += 7.0  # agent 3 is not adjacent to agent 0 on the path
    np.testing.assert_array_equal(apply_C(inst, lam2)[0], before)


def test_lipschitz_single_agent_closed_form():
    for a, s in ((2.0, 1.0), (3.0, 0.5), (0.0, 2.0)):
        h, per_agent = lipschitz_constant(_single_agent(a=a, sigma=s))
        assert h == pytest.approx((a * a + 1.0) / s)
        assert per_agent[0] == pytest.approx(h)


def test_lipschitz_identity_block_only():
    agents = []
    for i in range(2):
        f = SmoothConjugable(QuadraticFunction(1.0, [0.0]))
        block = ConstraintBlock(i, {}, [0.0])
        agents.append(AgentSpec(i, f, ProxFriendlyFunction.zero(), None, block))
    inst = ProblemInstance(Topology(2, frozenset({(0, 1)})), tuple(agents), M=1, B=1)
    h, _ = lipschitz_constant(inst)
    assert h == pytest.approx(2.0)


def test_lipschitz_rejects_zero_curvature():
    inst = _single_agent(sigma=1.0)
    flat = SmoothConjugable(QuadraticFunction(1.0, [0.0]), strong_convexity=0.0)
    bad = AgentSpec(0, flat, ProxFriendlyFunction.zero(), None,
                    inst.agents[0].constraint)
    inst_bad = ProblemInstance(inst.topology, (bad,), M=1, B=1)
    with pytest.raises(SingularScaleError):
        lipschitz_constant(inst_bad)


def test_validate_market_all_structural_checks_pass(ctx):
    report = validate_instance(ctx.market)
    by_name = {c.name: c.status for c in report.checks}
    assert report.ok
    assert by_name["strict_feasibility"] == "not_checked"
    for name in ("agent_ids", "connectivity", "block_sparsity",
                 "strong_convexity", "dimensions"):
        assert by_name[name] == "pass"


def test_validate_flags_sparsity_violation():
    # path 0-1-2 but agent 0 carries a block for non-neighbor 2
    agents = []
    for i in range(3):
        f = SmoothConjugable(QuadraticFunction(1.0, [0.0]))
        blocks = {i: [[1.0]]}
        if i == 0:
            blocks[2] = [[1.0]]
        agents.append(AgentSpec(i, f, ProxFriendlyFunction.zero(), None,
                                ConstraintBlock(i, blocks, [0.0])))
    inst = ProblemInstance(Topology(3, frozenset({(0, 1), (1, 2)})),
                           tuple(agents), M=1, B=1)
    report = validate_instance(inst)
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["block_sparsity"] == "fail"
    assert not report.ok


def test_validate_flags_disconnected_topology():
    agents = []
    for i in range(3):
        f = SmoothConjugable(QuadraticFunction(1.0, [0.0]))
        agents.append(AgentSpec(i, f, ProxFriendlyFunction.zero(), None,
                                ConstraintBlock(i, {i: [[1.0]]}, [0.0])))
    inst = ProblemInstance(Topology(3, frozenset({(0, 1)})), tuple(agents), M=1, B=1)
    assert not validate_instance(inst).ok


def test_json_roundtrip_preserves_instance(tmp_path):
    inst = build_market()
    doc = instance_to_json(inst)
    again = instance_from_json(doc)
    assert instance_to_json(again) == doc
    assert instance_hash(again) == instance_hash(inst)

    path = tmp_path / "market.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_hash(loaded) == instance_hash(inst)


def test_json_roundtrip_consensus_with_nonsmooth_parts(tmp_path):
    inst = build_scenario("consensus")
    path = tmp_path / "consensus.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_hash(loaded) == instance_hash(inst)
    rng = np.random.default_rng(4)
    lam = rng.normal(size=inst.dual_dim)
    np.testing.assert_allclose(apply_C(loaded, lam), apply_C(inst, lam))


def test_instance_from_json_rejects_missing_keys_and_wrong_types():
    doc = instance_to_json(build_market())
    with pytest.raises(MalformedInstanceError, match="agents"):
        instance_from_json({"M": 1, "B": 1, "edges": []})
    doc["agents"][0]["constraint"]["blocks"] = [[1.0]]
    with pytest.raises(MalformedInstanceError):
        instance_from_json(doc)
