import collections
import copy
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import (
    AgentSpec,
    PiecewiseQuadraticUtility,
    BoxSet,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    Topology,
    apply_C,
    build_consensus,
    conjugate_argmax,
    build_market,
    build_scenario,
    instance_from_json,
    instance_to_json,
    lipschitz_constant,
    load_instance,
    quadratic_local,
    save_instance,
    validate_instance,
)
from dualprox.errors import MalformedInstanceError, SingularScaleError, UnboundedConjugateError
from dualprox.model import instance_hash

from dense_reference import dense_C
from test_trace_digests import _mixed_path


def _single_agent(a=2.0, sigma=1.0):
    f = SmoothConjugable(QuadraticFunction(sigma, [0.0]))
    agent = AgentSpec(f, ProxFriendlyFunction.zero(), None)
    return ProblemInstance(Topology(1, frozenset()), (agent,), 1, 1, [0], [0], [[[a]]], [[0.0]])


def _scalar_agents(n):
    return [AgentSpec(SmoothConjugable(QuadraticFunction(1.0, [0.0])),
                      ProxFriendlyFunction.zero(), None)] * n


def test_topology_constructors_and_connectivity():
    np.testing.assert_array_equal(Topology.path(3).edges, [[0, 1], [1, 2]])
    assert Topology.path(3).is_connected
    assert Topology.star(4).neighbors(0) == [1, 2, 3]
    assert Topology.fully_connected(5).neighbors(2) == [0, 1, 3, 4]
    assert not Topology(3, frozenset({(0, 1)})).is_connected


def test_topology_rejects_self_loops():
    with pytest.raises(ValueError):
        Topology(3, frozenset({(1, 1)}))


def test_topology_takes_any_collection_of_pairs():
    pairs = [(2, 1), (0, 1), (1, 2), (1, 0), (3, 0)]  # reversed and repeated pairs
    for source in (frozenset(pairs), pairs, (p for p in pairs), np.array(pairs),
                   json.loads(json.dumps(pairs))):
        edges = Topology(4, source).edges
        assert edges.dtype == np.intp and edges.tolist() == [[0, 1], [0, 3], [1, 2]]
        assert not edges.flags.writeable
    assert Topology(3).edges.shape == (0, 2)
    with pytest.raises(ValueError, match="not a pair of integers"):
        Topology(2, np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("edge, message", [
    ([0, 0.5], r"edge \[0, 0.5\] is not a pair of integers"),
    ([0, 1.0], r"edge \[0, 1.0\] is not a pair of integers"),
    ([0, "1"], r"edge \[0, '1'\] is not a pair of integers"),
    ([0, 1, 2], r"edge \[0, 1, 2\] is not a pair of integers"),
    ([1, 1], r"edge \(1, 1\) is a self-loop"),
    ([0, 3], r"edge \(0, 3\) has an endpoint outside 0..2"),
    ([-1, 2], r"edge \(-1, 2\) has an endpoint outside 0..2"),
])
def test_topology_rejects_bad_pairs(edge, message):
    with pytest.raises(ValueError, match=message):
        Topology(3, [[0, 1], edge])


@st.composite
def _graphs(draw):
    """``(n, pairs)``: up to 8 agents, some of them isolated, and random pairs."""
    n = draw(st.integers(0, 8))
    agent = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(agent, agent), max_size=12)) if n else []
    return n, [(i, j) for i, j in pairs if i != j]


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_connectivity_matches_a_reference_bfs(graph):
    n, pairs = graph
    adj = {v: set() for v in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    seen, queue = {0}, collections.deque([0])
    while n and queue:
        for w in adj[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    topo = Topology(n, pairs)
    assert topo.is_connected == (n > 0 and len(seen) == n)
    assert [topo.neighbors(v) for v in range(n)] == [sorted(adj[v]) for v in range(n)]


def test_connectivity_edge_cases():
    assert not Topology(0).is_connected
    assert Topology(1).is_connected
    assert not Topology(4, [(0, 1), (1, 2)]).is_connected  # agent 3 is isolated


def test_consensus_setup_decides_connectivity_once(monkeypatch):
    calls = []
    neighbors = Topology.neighbors
    monkeypatch.setattr(Topology, "neighbors", lambda self, i: calls.append(i) or neighbors(self, i))
    n = 6
    inst = build_consensus(Topology.path(n), [quadratic_local([0.0])] * n)
    assert validate_instance(inst).ok
    assert sorted(calls) == list(range(n))


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
    inst.split(lam2)[0][3] += 7.0  # agent 3 is not adjacent to agent 0 on the path
    np.testing.assert_array_equal(apply_C(inst, lam2)[0], before)


def test_lipschitz_single_agent_closed_form():
    for a, s in ((2.0, 1.0), (3.0, 0.5), (0.0, 2.0)):
        h, per_agent = lipschitz_constant(_single_agent(a=a, sigma=s))
        assert h == pytest.approx((a * a + 1.0) / s)
        assert per_agent[0] == pytest.approx(h)


def test_lipschitz_identity_block_only():
    inst = ProblemInstance(Topology(2, frozenset({(0, 1)})), _scalar_agents(2), 1, 1,
                           [], [], np.zeros((0, 1, 1)), np.zeros((2, 1)))
    h, _ = lipschitz_constant(inst)
    assert h == pytest.approx(2.0)


def test_lipschitz_rejects_zero_curvature():
    inst = _single_agent(sigma=1.0)
    flat = SmoothConjugable(QuadraticFunction(0.0, [0.0]))
    bad = AgentSpec(flat, ProxFriendlyFunction.zero(), None)
    inst_bad = ProblemInstance(inst.topology, (bad,), 1, 1,
                               inst.owner, inst.l, inst.blocks, inst.rhs)
    with pytest.raises(SingularScaleError):
        lipschitz_constant(inst_bad)


def _singular_pair():
    """A two-agent path consensus whose agent 0 has a singular curvature that
    ``eigvalsh`` puts just above 0 (≈3e-15)."""
    singular = [[8.0, 8.0, 6.0], [8.0, 8.0, 6.0], [6.0, 6.0, 5.0]]
    f0 = SmoothConjugable(QuadraticFunction(singular, np.zeros(3)))
    return build_consensus(Topology.path(2), [f0, quadratic_local(np.zeros(3))])


def test_a_numerically_singular_curvature_has_no_strong_convexity():
    inst = _singular_pair()
    f0 = inst.agents[0].f
    assert f0.strong_convexity == 0.0
    failed = [(c.name, c.detail) for c in validate_instance(inst).checks if c.status == "fail"]
    assert failed == [("strong_convexity", "agents with sigma <= 0: [0]")]
    with pytest.raises(SingularScaleError, match="agent 0"):
        lipschitz_constant(inst)
    with pytest.raises(UnboundedConjugateError):
        conjugate_argmax(f0, np.ones(3))


def test_a_saved_strong_convexity_is_not_read_back(tmp_path):
    doc = instance_to_json(build_market())
    for agent in doc["agents"]:
        agent["f"]["strong_convexity"] = 1e-9
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    edited = load_instance(path)
    assert edited.agents[0].f.strong_convexity == 2 * 0.0031
    assert instance_hash(edited) == instance_hash(build_market())
    assert lipschitz_constant(edited)[0] == lipschitz_constant(build_market())[0]


def test_validate_market_all_structural_checks_pass(ctx):
    report = validate_instance(ctx.market)
    by_name = {c.name: c.status for c in report.checks}
    assert report.ok
    assert by_name["strict_feasibility"] == "not_checked"
    for name in ("connectivity", "block_sparsity", "strong_convexity", "dimensions"):
        assert by_name[name] == "pass"


def test_validate_flags_sparsity_violation():
    # path 0-1-2 but agent 0 carries a block for non-neighbor 2
    inst = ProblemInstance(Topology.path(3), _scalar_agents(3), 1, 1,
                           [0, 1, 2, 0], [0, 1, 2, 2], np.ones((4, 1, 1)), np.zeros((3, 1)))
    report = validate_instance(inst)
    by_name = {c.name: c for c in report.checks}
    assert by_name["block_sparsity"].status == "fail"
    assert by_name["block_sparsity"].detail.endswith("[(0, 2)]")
    assert not report.ok


@pytest.mark.parametrize("M, g, dim", [
    (2, ProxFriendlyFunction.indicator_box(BoxSet([-1.0], [1.0])), 1),
    (1, ProxFriendlyFunction.l1_plus_box(0.5, BoxSet([-1.0, -1.0], [1.0, 1.0])), 2),
    # the quadratic and its box are both off, reported once
    (1, ProxFriendlyFunction.quadratic(QuadraticFunction(np.eye(2), [0.0, 0.0]),
                                       BoxSet([-1.0, -1.0], [1.0, 1.0])), 2),
])
def test_validate_checks_the_nonsmooth_dimension(M, g, dim):
    inst = build_consensus(Topology.path(2), [quadratic_local(np.zeros(M))] * 2,
                           [ProxFriendlyFunction.zero(), g])
    check = {c.name: c for c in validate_instance(inst).checks}["dimensions"]
    assert check.status == "fail"
    assert check.detail == f"agent 1: nonsmooth part has dim {dim}, expected M={M}"


def test_an_agent_of_the_wrong_dimension_constructs_and_fails_validation():
    # agent 1's g box (dim 2) and omega (dim 3) cannot even be intersected, and
    # agent 2's smooth part has dim 2: the instance still builds, validation
    # reports each part once, and compiling refuses the g's
    wide = ProxFriendlyFunction.l1_plus_box(0.5, BoxSet([-1.0, -1.0], [1.0, 1.0]))
    agents = _scalar_agents(3)
    agents[1] = AgentSpec(agents[1].f, wide, BoxSet([-1.0] * 3, [1.0] * 3))
    agents[2] = AgentSpec(quadratic_local([0.0, 0.0]), agents[2].g, None)
    inst = ProblemInstance(Topology.path(3), agents, 1, 1, [0, 1, 2], [0, 1, 2],
                           np.ones((3, 1, 1)), np.zeros((3, 1)))
    check = {c.name: c for c in validate_instance(inst).checks}["dimensions"]
    assert check.status == "fail"
    assert check.detail == ("agent 1: nonsmooth part has dim 2, expected M=1; "
                            "agent 1: omega has dim 3, expected M=1; "
                            "agent 2: smooth part has dim 2, expected M=1")
    with pytest.raises(ValueError):
        inst.g_groups


def test_validate_flags_disconnected_topology():
    inst = ProblemInstance(Topology(3, frozenset({(0, 1)})), _scalar_agents(3), 1, 1,
                           [0, 1, 2], [0, 1, 2], np.ones((3, 1, 1)), np.zeros((3, 1)))
    assert not validate_instance(inst).ok


def test_block_table_is_sorted_and_read_only():
    inst = ProblemInstance(Topology.path(3), _scalar_agents(3), 1, 1,
                           [2, 0, 1, 0, 1], [1, 1, 1, 0, 0], np.arange(5.0).reshape(5, 1, 1),
                           np.zeros((3, 1)))
    assert inst.owner.tolist() == [0, 0, 1, 1, 2]
    assert inst.l.tolist() == [0, 1, 0, 1, 1]
    assert inst.blocks.ravel().tolist() == [3.0, 1.0, 4.0, 2.0, 0.0]
    with pytest.raises(ValueError):
        inst.blocks[0] = 7.0


@pytest.mark.parametrize("change, message", [
    ({"blocks": [[[1.0]], [[np.nan]], [[1.0]]]}, "agent 1: block for l=1 is not finite"),
    ({"blocks": [[[1.0]], [[1.0]], [[-np.inf]]]}, "agent 2: block for l=2 is not finite"),
    ({"rhs": [[0.0], [np.inf], [0.0]]}, "agent 1: rhs is not finite"),
    ({"l": [0, 1, 3]}, "agent 2: block for l=3 is out of range for 3 agents"),
    ({"owner": [0, -1, 2]}, "agent -1: block for l=1 is out of range"),
    ({"owner": [0, 0, 2], "l": [1, 1, 2]}, "agent 0: block for l=1 appears twice"),
    ({"blocks": np.ones((3, 1, 2))}, r"blocks \(3, 1, 2\)"),
    ({"rhs": np.zeros(3)}, r"rhs \(3,\)"),
    ({"l": [0, 1]}, r"l \(2,\)"),
    ({"agents": _scalar_agents(2)}, "2 agents"),
])
def test_block_table_rejects_bad_entries(change, message):
    table = {"agents": _scalar_agents(3), "owner": [0, 1, 2], "l": [0, 1, 2],
             "blocks": np.ones((3, 1, 1)), "rhs": np.zeros((3, 1))}
    table.update(change)
    with pytest.raises(ValueError, match=message):
        ProblemInstance(Topology.path(3), M=1, B=1, **table)


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


def _digest_instances():
    """A scalar path with every smooth and nonsmooth kind, and a 2-D pair."""
    box, wide = BoxSet([-2.0], [3.0]), BoxSet([-4.0], [5.0])
    fs = [SmoothConjugable(QuadraticFunction(2.0, [0.5], 0.25), wide),
          SmoothConjugable(PiecewiseQuadraticUtility(12.0, 0.5), BoxSet([0.0], [9.0])),
          SmoothConjugable(QuadraticFunction(1.25, [-1.0], 0.5)),
          SmoothConjugable(QuadraticFunction(3.0, [0.0]), box),
          SmoothConjugable(QuadraticFunction(0.75, [2.0], -1.0))]
    gs = [ProxFriendlyFunction.zero(), ProxFriendlyFunction.l1(0.5),
          ProxFriendlyFunction.quadratic(QuadraticFunction(1.5, [0.25], 0.125), wide),
          ProxFriendlyFunction.l1_plus_box(0.75, box),
          ProxFriendlyFunction.indicator_box(wide)]
    omegas = [None, box, None, wide, None]
    owner, key, blocks = [], [], []
    for i in range(5):
        nbrs = [l for l in (i - 1, i, i + 1) if 0 <= l < 5]
        owner += [i] * len(nbrs)
        key += nbrs
        blocks += [[[float(len(nbrs) - 1) if l == i else -1.0 - 0.5 * i]] for l in nbrs]
    scalar = ProblemInstance(Topology.path(5), list(map(AgentSpec, fs, gs, omegas)), 1, 1,
                             owner, key, blocks, 0.25 * np.arange(5.0)[:, None])

    curvature = [[3.0, 0.5], [0.5, 2.0]]
    pair = []
    for i in range(2):
        f = SmoothConjugable(QuadraticFunction(curvature, [1.0, -1.0 + i], 0.5))
        g = ProxFriendlyFunction.quadratic(QuadraticFunction(curvature, [0.5, 0.0]))
        pair.append(AgentSpec(f, g, None))
    blocks = [[[1.0, 0.5]], [[-1.0, 2.0]], [[2.0, 0.5]], [[-1.0, 1.0]]]
    two_d = ProblemInstance(Topology.path(2), pair, 2, 1, [0, 0, 1, 1], [0, 1, 0, 1],
                            blocks, [[1.0], [1.0]])
    return scalar, two_d


def _numeric_leaves(doc, path=()):
    """Paths to the numbers of an instance document, but not M, B, edges,
    the agent ids (an id must equal the agent's position) or the strong
    convexity (written for reference, not read back)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if (path or key not in ("M", "B", "edges")) and key not in ("id", "strong_convexity"):
                yield from _numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _perturb(doc, path):
    """A copy of ``doc`` with the number at ``path`` raised by 0.25.

    An off-diagonal curvature entry moves with its mirror, so the
    curvature stays symmetric.
    """
    doc = copy.deepcopy(doc)
    paths = [path]
    if path[-3] == "curvature" and path[-2] != path[-1]:
        paths.append(path[:-2] + (path[-1], path[-2]))
    for p in paths:
        parent = doc
        for key in p[:-1]:
            parent = parent[key]
        parent[p[-1]] += 1 if isinstance(parent[p[-1]], int) else 0.25
    return doc


def _structural_changes(doc):
    """Copies of a scalar instance document with one field added, removed or re-kinded."""
    def changed(edit):
        new = copy.deepcopy(doc)
        edit(new)
        return new

    agents = "agents"

    def with_blocks(layout):
        """Agent ``i``'s blocks become ``{key: original block (j, l)}`` for each
        ``key: (j, l)`` in ``layout[i]``."""
        def edit(d):
            for i, new in layout.items():
                d[agents][i]["constraint"]["blocks"] = {
                    str(key): doc[agents][j]["constraint"]["blocks"][str(l)]
                    for key, (j, l) in new.items()}
        return changed(edit)

    def swapped_f(i, j):
        """Agents ``i`` and ``j`` trade smooth parts: the kind groups keep their
        order and their stacked parameters, only the members change."""
        def edit(d):
            d[agents][i]["f"], d[agents][j]["f"] = d[agents][j]["f"], d[agents][i]["f"]
        return changed(edit)

    return [
        changed(lambda d: d["edges"].append([0, 2])),
        changed(lambda d: d["edges"].pop()),
        changed(lambda d: d[agents][0]["f"].update(domain=None)),
        changed(lambda d: d[agents][0]["g"].update(kind="l1_norm", params={"weight": 0.0})),
        changed(lambda d: d[agents][3]["g"].update(kind="l1_norm", params={"weight": 0.75})),
        changed(lambda d: d[agents][2]["g"]["params"].update(box=None)),
        changed(lambda d: d[agents][1].update(omega=None)),
        changed(lambda d: d[agents][0].update(omega={"lower": [-1.0], "upper": [1.0]})),
        changed(lambda d: d[agents][4]["constraint"]["blocks"].update({"0": [[0.0]]})),
        changed(lambda d: d[agents][4]["constraint"]["blocks"].pop("3")),
        # the same values under other owners or keys
        changed(lambda d: d[agents][2].update(omega=d[agents][1].pop("omega"))),
        swapped_f(3, 4),
        with_blocks({0: {0: (0, 0), 2: (0, 1)}}),
        with_blocks({0: {0: (0, 0), 3: (0, 1)}}),
        with_blocks({1: {0: (1, 0), 1: (1, 1)}}),
        with_blocks({1: {1: (1, 0), 2: (1, 1)}}),
        with_blocks({0: {0: (0, 0)}, 1: {1: (1, 1), 2: (1, 2)}}),
        with_blocks({0: {0: (0, 0), 1: (1, 1)}, 1: {2: (1, 2)}}),
    ]


def test_instance_hash_changes_with_every_field():
    scalar, two_d = _digest_instances()
    for inst in (scalar, two_d):
        doc = instance_to_json(inst)
        variants = [_perturb(doc, path) for path in _numeric_leaves(doc)]
        if inst is scalar:
            variants += _structural_changes(doc)
        # a mirrored curvature pair gives one variant twice
        variants = {json.dumps(v, sort_keys=True): v for v in variants}.values()
        assert len(variants) > 20
        digests = {instance_hash(inst)}
        for variant in variants:
            other = instance_from_json(variant)
            assert instance_to_json(other) != doc
            digests.add(instance_hash(other))
        assert len(digests) == len(variants) + 1


def test_instance_hash_survives_json_round_trip():
    scalar, two_d = _digest_instances()
    with_outside_block = instance_to_json(scalar)
    with_outside_block["agents"][4]["constraint"]["blocks"]["0"] = [[0.0]]
    for inst in (scalar, two_d, instance_from_json(with_outside_block),
                 build_market(), build_scenario("consensus"), _mixed_path()):
        again = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
        assert instance_hash(again) == instance_hash(inst)
        for name in ("owner", "l", "blocks", "rhs"):
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes(), name


# recorded before the block table replaced the per-agent constraint objects
PINNED_HASHES = {
    "market": "a54a1a8168fc693de6308925a0d4ba38af97be086800bac63f2e7bff334f99ee",
    "consensus": "03e586d0766e1b07057f02da4a72b252db59df2dbfc02eeb2711f4a35585d364",
}
PINNED_JSON_TEXT = {
    "market": "d7699284e62eaf1aaba82185df595b679beb0c1a22df015892b996ab70981d30",
    "consensus": "0d827c1333c2c7127ef2c11d035bb7ae3094e6c9bf978911946a444d01632aa8",
    "mixed_path": "ef7d84ee699e8f164cad181e1951b69c1c8b8814157034a7d78e38d2183a93a6",
}


def test_instance_hash_and_json_text_are_pinned():
    built = {"market": build_market(), "consensus": build_scenario("consensus"),
             "mixed_path": _mixed_path()}
    for name, digest in PINNED_HASHES.items():
        assert instance_hash(built[name]) == digest, name
    for name, digest in PINNED_JSON_TEXT.items():
        text = json.dumps(instance_to_json(built[name]), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_instance_from_json_rejects_missing_keys_and_wrong_types():
    doc = instance_to_json(build_market())
    with pytest.raises(MalformedInstanceError, match="agents"):
        instance_from_json({"M": 1, "B": 1, "edges": []})
    doc["agents"][0]["constraint"]["blocks"] = [[1.0]]
    with pytest.raises(MalformedInstanceError):
        instance_from_json(doc)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, agent, path, value, message", [
    ("market", 3, ("f", "params", "price"), INF, "agent 3: f.params.price is not finite"),
    ("market", 2, ("f", "params", "curvature"), NAN, "agent 2: f.params.curvature is not"),
    ("market", 0, ("f", "params", "curvature"), [[INF]], "agent 0: f.params.curvature is not"),
    ("market", 1, ("f", "params", "linear"), [NAN], "agent 1: f.params.linear is not finite"),
    ("market", 0, ("f", "params", "offset"), -INF, "agent 0: f.params.offset is not finite"),
    ("market", 4, ("f", "params", "curvature"), INF, "agent 4: f.params.curvature is not"),
    ("market", 2, ("f", "domain", "lower"), [NAN], "agent 2: f.domain.lower is NaN"),
    ("market", 1, ("g", "params", "box", "upper"), [NAN], "agent 1: g.params.box.upper is NaN"),
    ("market", 4, ("omega", "upper"), [NAN], "agent 4: omega.upper is NaN"),
    ("mixed_path", 1, ("g", "params", "weight"), NAN, "agent 1: g.params.weight is not finite"),
    ("mixed_path", 3, ("g", "params", "weight"), INF, "agent 3: g.params.weight is not finite"),
    ("mixed_path", 2, ("g", "params", "linear"), [NAN], "agent 2: g.params.linear is not"),
    ("mixed_path", 2, ("g", "params", "curvature"), [[INF]], "agent 2: g.params.curvature is"),
    ("mixed_path", 2, ("g", "params", "offset"), NAN, "agent 2: g.params.offset is not finite"),
])
def test_instance_from_json_refuses_non_finite_catalog_numbers(name, agent, path, value,
                                                               message):
    doc = instance_to_json(build_market() if name == "market" else _mixed_path())
    obj = doc["agents"][agent]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    with pytest.raises(MalformedInstanceError, match=re.escape(message)):
        instance_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("where", ["price", "rhs"])
def test_instance_from_json_refuses_an_integer_too_large_for_a_float(where):
    doc = instance_to_json(build_market())
    if where == "price":
        doc["agents"][3]["f"]["params"]["price"] = 10 ** 400
    else:
        doc["agents"][0]["constraint"]["rhs"] = [10 ** 400]
    with pytest.raises(MalformedInstanceError, match="too large"):
        instance_from_json(doc)


def test_instance_from_json_takes_infinite_bounds():
    doc = instance_to_json(build_market())
    doc["agents"][0]["f"]["domain"]["upper"] = [INF]
    doc["agents"][0]["g"]["params"]["box"]["lower"] = [-INF]
    doc["agents"][0]["omega"]["upper"] = [INF]
    agent = instance_from_json(json.loads(json.dumps(doc))).agents[0]
    assert agent.f.effective_domain.upper[0] == INF and agent.omega.upper[0] == INF
    assert agent.g.box.lower[0] == -INF


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["agents"][1].update(id=3), "agent at position 1 has id 3"),
    (lambda d: d["agents"][2]["constraint"]["blocks"].update({"4": [1.0]}),
     r"agent 2: block for l=4 has shape \(1,\), expected \(1, 1\)"),
    (lambda d: d["agents"][0]["constraint"]["blocks"].update({"1": [[1.0, 2.0]]}),
     r"agent 0: block for l=1 has shape \(1, 2\)"),
    (lambda d: d["agents"][3]["constraint"]["blocks"].update({"2": [[float("nan")]]}),
     "agent 3: block for l=2 is not finite"),
    (lambda d: d["agents"][4]["constraint"]["blocks"].update({"5": [[1.0]]}),
     "agent 4: block for l=5 is out of range"),
])
def test_instance_from_json_checks_ids_and_blocks(edit, message):
    doc = instance_to_json(build_market())
    edit(doc)
    with pytest.raises(MalformedInstanceError, match=message):
        instance_from_json(json.loads(json.dumps(doc)))
