import numpy as np
import pytest

from dualprox import (
    MarketParams,
    Topology,
    apply_transform,
    build_consensus,
    build_market,
    build_scenario,
    quadratic_local,
    recover_primal,
    run,
)
from dualprox.convex import PiecewiseQuadraticUtility, ProxFriendlyFunction, QuadraticFunction
from dualprox.errors import RankDeficientError
from dualprox.scenarios import DEFAULT_UC_PARAMS, DEFAULT_USER_PARAMS


def test_market_default_structure():
    inst = build_market()
    assert inst.n_agents == 5 and inst.M == 1 and inst.B == 1
    np.testing.assert_array_equal(inst.topology.edges, Topology.fully_connected(5).edges)
    # agent 1 holds transform 2 applied to the balance row [1,1,-1,-1,-1]
    mine = inst.owner == 1
    assert inst.l[mine].tolist() == [0, 1, 2, 3, 4]
    np.testing.assert_allclose(inst.blocks[mine].ravel(), [2.0, 2.0, -2.0, -2.0, -2.0])
    np.testing.assert_allclose(inst.rhs[1], [0.0])
    assert isinstance(inst.agents[0].f.base, QuadraticFunction)
    assert isinstance(inst.agents[2].f.base, PiecewiseQuadraticUtility)
    assert inst.agents[0].f.strong_convexity == pytest.approx(2 * 0.0031)
    assert inst.agents[2].f.strong_convexity == pytest.approx(2 * 0.0935)
    # the local box rides both with f's domain and with g
    assert inst.agents[3].omega.upper[0] == pytest.approx(147.29)
    assert inst.agents[3].g.kind == "zero" and inst.agents[3].g.box is not None


def test_market_params_validation():
    with pytest.raises(ValueError, match=r"^need one transform per agent \(5\)$"):
        MarketParams(transforms=[1.0, 2.0])
    # each other rule is checked once, where the market is built, naming the agent or index
    for kappa in (0.0, -1.0):
        uc = [{"kappa": kappa, "vartheta": 1.0, "beta": 0.0, "x_max": 1.0}, DEFAULT_UC_PARAMS[1]]
        with pytest.raises(ValueError) as exc:
            build_market(MarketParams(uc=uc))
        assert str(exc.value) == (f"agent 0: smooth part has strong convexity {2 * kappa}, "
                                  "not positive")
    users = [{**DEFAULT_USER_PARAMS[0], "varsigma": 0.0}, *DEFAULT_USER_PARAMS[1:]]
    with pytest.raises(ValueError, match="^price and curvature must be positive$"):
        build_market(MarketParams(users=users))
    with pytest.raises(RankDeficientError, match="^transform 1 does not have full row rank$"):
        build_market(MarketParams(transforms=[1.0, 0.0, 1.0, 1.0, 1.0]))


def test_symmetric_transforms_give_same_primal_optimum(ctx):
    symmetric = build_market(MarketParams(transforms=[1.0] * 5))
    trace = run(symmetric, tol=1e-10, k_max=100_000)
    rec = recover_primal(symmetric, trace.lam[-1])
    x_sym = np.array([float(v[0]) for v in rec.x_hat])
    rec_ref = recover_primal(ctx.market, ctx.lam_star)
    x_ref = np.array([float(v[0]) for v in rec_ref.x_hat])
    np.testing.assert_allclose(x_sym, x_ref, atol=1e-3)


def _blocks_by_agent(table, n_agents):
    """``({l: block}, rhs)`` of each agent, from ``apply_transform``'s table."""
    owner, l, blocks, rhs = table
    return [({int(k): blk for o, k, blk in zip(owner, l, blocks) if o == i}, rhs[i])
            for i in range(n_agents)]


def test_apply_transform_published_three_agent_case():
    # the published transforms have two rows for agent 0 and one for agents
    # 1 and 2; one table holds one row count, so each is checked beside
    # stand-ins of its own shape
    A = [[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
    b = [1.0, 2.0]
    two_rows = [[-1.0, 0.0], [0.0, 0.5]]
    out = _blocks_by_agent(apply_transform((two_rows, np.eye(2), np.eye(2)), A, b), 3)

    blocks0, b0 = out[0]
    np.testing.assert_allclose(blocks0[0], [[-1.0], [1.0]])
    np.testing.assert_allclose(blocks0[1], [[-1.0], [0.0]])
    np.testing.assert_allclose(blocks0[2], [[0.0], [0.5]])
    np.testing.assert_allclose(b0, [-1.0, 1.0])

    out = _blocks_by_agent(apply_transform(([[1.0, 0.0]], [[2.0, 0.0]], [[0.0, -1.0]]), A, b), 3)
    blocks1, b1 = out[1]
    np.testing.assert_allclose(blocks1[0], [[2.0]])
    np.testing.assert_allclose(blocks1[1], [[2.0]])
    assert 2 not in blocks1
    np.testing.assert_allclose(b1, [2.0])

    blocks2, b2 = out[2]
    np.testing.assert_allclose(blocks2[0], [[-2.0]])
    np.testing.assert_allclose(blocks2[2], [[-1.0]])
    np.testing.assert_allclose(b2, [-2.0])

    with pytest.raises(ValueError, match="same shape"):
        apply_transform((two_rows, [[2.0, 0.0]], [[0.0, -1.0]]), A, b)


def test_apply_transform_identity():
    A = [[1.0, -1.0]]
    b = [3.0]
    owner, l, blocks, rhs = apply_transform(([[1.0]], [[1.0]]), A, b)
    assert owner.tolist() == [0, 0, 1, 1] and l.tolist() == [0, 1, 0, 1]
    np.testing.assert_allclose(blocks.ravel(), [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(rhs, [[3.0], [3.0]])


def test_apply_transform_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        apply_transform(([[0.0, 0.0]], [[1.0, 0.0]]),
                        [[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0])


def _scalar_full_rank(t: float) -> bool:
    """Whether ``apply_transform`` takes the scalar transform ``t`` beside a transform 1."""
    try:
        apply_transform([1.0, t], np.ones((1, 2)), np.zeros(1))
    except RankDeficientError as exc:
        assert str(exc) == "transform 1 does not have full row rank"
        return False
    return True


def test_a_scalar_transform_has_the_rank_matrix_rank_gives():
    rng = np.random.default_rng(3)
    cases = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308,
             *rng.normal(size=20), *(rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, 20))]
    for t in cases:
        assert _scalar_full_rank(t) == bool(np.linalg.matrix_rank(np.full((1, 1), t))), t
    assert [_scalar_full_rank(t) for t in (0.0, -0.0, 5e-324, 1e308, -1e308)] == [
        False, False, True, True, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_transform_refuses_a_non_finite_transform_by_index(bad):
    A, b = np.ones((1, 3)), np.zeros(1)
    with pytest.raises(RankDeficientError, match=r"^transform 1 is not finite$"):
        apply_transform([1.0, bad, 0.0], A, b)  # before transform 2's rank
    with pytest.raises(RankDeficientError, match=r"^transform 2 is not finite$"):
        apply_transform([[[1.0, 0.0]], [[0.0, 1.0]], [[bad, 1.0]]], np.ones((2, 3)), [0.0, 0.0])
    with pytest.raises(RankDeficientError, match=r"^transform 0 is not finite$"):
        build_market(MarketParams(transforms=[bad, 1.0, 1.0, 1.0, 1.0]))


def test_apply_transform_refuses_no_transforms():
    with pytest.raises(ValueError, match="at least one transform"):
        apply_transform([], np.zeros((1, 0)), [0.0])
    with pytest.raises(ValueError, match="at least one transform"):
        build_market(MarketParams(uc=[], users=[], transforms=[]))


@pytest.mark.parametrize("targets, curvatures, message", [
    ([0.0, float("nan")], [float("inf"), 1.0], "curvatures.0 is not finite"),
    ([float("nan"), 0.0], [float("inf"), 1.0], "targets.0 is not finite"),
    ([0.0, 1.0, -float("inf")], [1.0, 1.0, float("nan")], "targets.2 is not finite"),
])
def test_build_scenario_names_the_first_agents_first_bad_number(targets, curvatures, message):
    with pytest.raises(ValueError, match=message):
        build_scenario("consensus", {"targets": targets, "curvatures": curvatures})


@pytest.mark.parametrize("curvatures", [[1.0, 2.0, 3.0], [1.0]])
def test_build_scenario_refuses_unequal_targets_and_curvatures(curvatures):
    with pytest.raises(ValueError, match=f"targets has 2 entries but curvatures has "
                                         f"{len(curvatures)}"):
        build_scenario("consensus", {"targets": [1.0, 2.0], "curvatures": curvatures})


def test_transform_preserves_solution_set():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(2, 3))
    x_true = rng.normal(size=3)
    b = A @ x_true
    transforms = tuple(rng.normal(size=(2, 2)) for _ in range(3))
    out = _blocks_by_agent(apply_transform(transforms, A, b), 3)
    # x_true satisfies every individual interpretation
    for blocks, bi in out:
        Ai = np.hstack([blocks.get(l, np.zeros((2, 1))) for l in range(3)])
        np.testing.assert_allclose(Ai @ x_true, bi, atol=1e-12)
    # stacked interpretations pin down the same affine set as (A, b)
    stacked = np.vstack([np.hstack([blocks.get(l, np.zeros((2, 1))) for l in range(3)])
                         for blocks, _ in out])
    assert np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(A)


def test_consensus_blocks_form_laplacian():
    topo = Topology.path(3)
    inst = build_consensus(topo, [quadratic_local([0.0])] * 3)
    L = np.zeros((3, 3))
    for i in range(3):
        nbrs = topo.neighbors(i)
        L[i, i] = len(nbrs)
        for l in nbrs:
            L[i, l] = -1.0
    table = np.zeros((3, 3))
    table[inst.owner, inst.l] = inst.blocks[:, 0, 0]
    np.testing.assert_array_equal(table, L)
    assert np.count_nonzero(L) == inst.owner.size
    np.testing.assert_array_equal(inst.rhs, np.zeros((3, 1)))


def test_consensus_requires_connected_topology():
    with pytest.raises(ValueError):
        build_consensus(Topology(3, frozenset({(0, 1)})), [quadratic_local([0.0])] * 3)


@pytest.mark.parametrize("length", [0, 2, 4])
@pytest.mark.parametrize("which", ["locals_g", "omegas"])
def test_consensus_refuses_optional_lists_not_one_per_agent(which, length):
    # 4 parts for 3 agents were cut to 3, 2 failed on the block table's shape, [] meant none
    parts = {"locals_g": [ProxFriendlyFunction.l1(0.5)] * length, "omegas": [None] * length}
    what = {"locals_g": "nonsmooth part", "omegas": "omega"}[which]
    with pytest.raises(ValueError, match=f"^need one {what} per agent$"):
        build_consensus(Topology.path(3), [quadratic_local([0.0])] * 3, **{which: parts[which]})


def test_consensus_path_reaches_arithmetic_mean():
    inst = build_scenario("consensus", {"targets": [0.0, 3.0, 6.0]})
    trace = run(inst, tol=1e-11, k_max=50_000)
    rec = recover_primal(inst, trace.lam[-1])
    for xi in rec.x_hat:
        assert xi[0] == pytest.approx(3.0, abs=1e-6)


def test_consensus_star_weighted_minimizer():
    targets = [1.0, -2.0, 0.5, 3.0]
    curvatures = [1.0, 2.0, 0.5, 3.0]
    edges = [[0, 1], [0, 2], [0, 3]]
    inst = build_scenario("consensus", {"targets": targets,
                                        "curvatures": curvatures, "edges": edges})
    trace = run(inst, tol=1e-11, k_max=100_000)
    rec = recover_primal(inst, trace.lam[-1])
    expected = float(np.dot(curvatures, targets) / np.sum(curvatures))
    for xi in rec.x_hat:
        assert xi[0] == pytest.approx(expected, abs=1e-6)


def test_quadratic_local_value():
    f = quadratic_local([2.0], 3.0)
    assert f.value([5.0]) == pytest.approx(0.5 * 3.0 * 9.0)
    assert f.strong_convexity == pytest.approx(3.0)


def test_build_scenario_unknown_name():
    with pytest.raises(ValueError):
        build_scenario("nope")
    with pytest.raises(ValueError, match="'target'"):
        build_scenario("consensus", {"target": [1.0, 2.0]})
    with pytest.raises(ValueError, match="'targets'"):
        build_scenario("market", {"targets": [1.0]})  # a consensus key
