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
from dualprox.errors import MalformedInstanceError, UnboundedConjugateError
from dualprox.model import instance_hash

from dense_reference import dense_C, reference_instance_hash
from test_compiled import instances
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
    assert topo.unreached == min(set(range(n)) - seen, default=None)
    assert [topo.neighbors(v) for v in range(n)] == [sorted(adj[v]) for v in range(n)]


def test_connectivity_edge_cases():
    assert not Topology(0).is_connected
    assert Topology(1).is_connected
    assert not Topology(4, [(0, 1), (1, 2)]).is_connected  # agent 3 is isolated
    assert Topology(4, [(0, 1), (1, 2)]).unreached == 3
    assert Topology(5, [(0, 1), (3, 4)]).unreached == 2
    assert Topology(0).unreached is None and Topology(1).unreached is None


def test_consensus_setup_decides_connectivity_once(monkeypatch):
    calls = []
    neighbors = Topology.neighbors
    monkeypatch.setattr(Topology, "neighbors", lambda self, i: calls.append(i) or neighbors(self, i))
    n = 6
    inst = build_consensus(Topology.path(n), [quadratic_local([0.0])] * n)
    assert inst.topology.is_connected  # decided when the instance was built, not again
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


def _refused(build, message):
    """Asserts that ``build()`` raises a ``ValueError`` whose text is ``message``."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def _refused_at_load(doc, message):
    """Asserts that ``instance_from_json(doc)`` raises ``malformed instance JSON: message``."""
    with pytest.raises(MalformedInstanceError) as exc:
        instance_from_json(doc)
    assert str(exc.value) == f"malformed instance JSON: {message}"


@pytest.mark.parametrize("curvature", [0.0, -1.0])
def test_a_scalar_curvature_that_is_not_positive_is_refused_when_built(curvature):
    # sigma_i <= 0 leaves the dual gradient without a Lipschitz constant
    message = f"agent 0: smooth part has strong convexity {curvature}, not positive"
    flat = AgentSpec(SmoothConjugable(QuadraticFunction(curvature, [0.0])),
                     ProxFriendlyFunction.zero(), None)
    _refused(lambda: ProblemInstance(Topology(1), (flat,), 1, 1, [0], [0], [[[2.0]]], [[0.0]]),
             message)
    doc = instance_to_json(_single_agent())
    doc["agents"][0]["f"]["params"]["curvature"] = [[curvature]]
    _refused_at_load(doc, message)


SINGULAR = [[8.0, 8.0, 6.0], [8.0, 8.0, 6.0], [6.0, 6.0, 5.0]]  # eigvalsh: least ≈3e-15


def _singular_pair():
    """The document of a two-agent path consensus whose agent 0 has the singular curvature
    ``SINGULAR``, which ``eigvalsh`` puts just above 0; the instance is refused."""
    doc = instance_to_json(build_consensus(Topology.path(2), [quadratic_local(np.zeros(3))] * 2))
    doc["agents"][0]["f"]["params"]["curvature"] = SINGULAR
    return doc


def test_a_numerically_singular_curvature_has_no_strong_convexity():
    f0 = SmoothConjugable(QuadraticFunction(SINGULAR, np.zeros(3)))
    assert f0.strong_convexity == 0.0
    with pytest.raises(UnboundedConjugateError):
        conjugate_argmax(f0, np.ones(3))
    message = "agent 0: smooth part has strong convexity 0.0, not positive"
    _refused(lambda: build_consensus(Topology.path(2), [f0, quadratic_local(np.zeros(3))]),
             message)
    _refused_at_load(_singular_pair(), message)


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


def test_validate_reports_only_strict_feasibility(ctx):
    # dimensions, connectivity, block sparsity and sigma_i > 0 are checked when built
    report = validate_instance(ctx.market)
    assert report.ok
    assert [(c.name, c.status) for c in report.checks] == [("strict_feasibility", "not_checked")]


def _off_neighbour_block():
    """The default 3-agent path consensus (targets 0, 3, 6) with the nonzero block ``[[5.0]]``
    of agent 0 on agent 2, which is no neighbour, as ``(instance arguments, document)``.

    Were it built, ``C`` and ``A`` would drop the block, and ``run`` would reach its
    tolerance at ``x_hat = (3, 3, 3)``, where agent 0's own row gives ``A^(0) x_hat = 15``,
    not ``b^(0) = 0``."""
    good = build_scenario("consensus")
    args = (good.topology, good.agents, 1, 1, [*good.owner, 0], [*good.l, 2],
            [*good.blocks, [[5.0]]], good.rhs)
    doc = instance_to_json(good)
    doc["agents"][0]["constraint"]["blocks"]["2"] = [[5.0]]
    return args, doc


OFF_NEIGHBOUR = "agent 0: block for l=2 is nonzero, but l is not a neighbour"


def test_a_nonzero_block_off_the_neighbourhood_is_refused_when_built():
    args, doc = _off_neighbour_block()
    _refused(lambda: ProblemInstance(*args), OFF_NEIGHBOUR)
    _refused_at_load(doc, OFF_NEIGHBOUR)
    # the first such block in (owner, l) order is named
    _refused(lambda: ProblemInstance(Topology.path(4), _scalar_agents(4), 1, 1, [3, 1, 0],
                                     [0, 3, 0], np.ones((3, 1, 1)), np.zeros((4, 1))),
             "agent 1: block for l=3 is nonzero, but l is not a neighbour")
    # a zero block there builds and stays in the table; C, A and the messages skip it
    good = build_scenario("consensus")
    zero = ProblemInstance(*args[:6], [*good.blocks, [[0.0]]], good.rhs)
    assert list(zip(zero.owner.tolist(), zero.l.tolist()))[:3] == [(0, 0), (0, 1), (0, 2)]
    for name in ("C", "A"):
        for got, want in zip(getattr(zero, name), getattr(good, name)):
            assert got.tobytes() == want.tobytes(), name
    assert zero.n_messages == good.n_messages == 4


@pytest.mark.parametrize("M, g, dim", [
    (2, ProxFriendlyFunction.indicator_box(BoxSet([-1.0], [1.0])), 1),
    (1, ProxFriendlyFunction.l1_plus_box(0.5, BoxSet([-1.0, -1.0], [1.0, 1.0])), 2),
    # the quadratic and its box are both off, reported once
    (1, ProxFriendlyFunction.quadratic(QuadraticFunction(np.eye(2), [0.0, 0.0]),
                                       BoxSet([-1.0, -1.0], [1.0, 1.0])), 2),
])
def test_construction_checks_the_nonsmooth_dimension(M, g, dim):
    with pytest.raises(ValueError) as exc:
        build_consensus(Topology.path(2), [quadratic_local(np.zeros(M))] * 2,
                        [ProxFriendlyFunction.zero(), g])
    assert str(exc.value) == f"agent 1: nonsmooth part has dim {dim}, expected M={M}"


def test_an_agent_of_the_wrong_dimension_is_refused_at_construction():
    # agent 1's g box (dim 2) and omega (dim 3) cannot even be intersected, and
    # agent 2's smooth part has dim 2: the error names each part once, by agent then part
    wide = ProxFriendlyFunction.l1_plus_box(0.5, BoxSet([-1.0, -1.0], [1.0, 1.0]))
    agents = _scalar_agents(3)
    agents[1] = AgentSpec(agents[1].f, wide, BoxSet([-1.0] * 3, [1.0] * 3))
    agents[2] = AgentSpec(quadratic_local([0.0, 0.0]), agents[2].g, None)
    with pytest.raises(ValueError) as exc:
        ProblemInstance(Topology.path(3), agents, 1, 1, [0, 1, 2], [0, 1, 2],
                        np.ones((3, 1, 1)), np.zeros((3, 1)))
    assert str(exc.value) == ("agent 1: nonsmooth part has dim 2, expected M=1; "
                              "agent 1: omega has dim 3, expected M=1; "
                              "agent 2: smooth part has dim 2, expected M=1")


def test_a_box_of_the_wrong_dimension_never_reaches_run():
    # a 2-agent M = 1 path whose second agent's box is 2-D: refused when built, by the
    # JSON reader too, so run never meets numpy's inhomogeneous-shape error in the digest
    box = ProxFriendlyFunction.indicator_box(BoxSet([-1.0, -1.0], [1.0, 1.0]))
    message = "agent 1: nonsmooth part has dim 2, expected M=1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_consensus(Topology.path(2), [quadratic_local([0.0])] * 2,
                        [ProxFriendlyFunction.zero(), box])
    doc = instance_to_json(build_consensus(Topology.path(2), [quadratic_local([0.0])] * 2))
    doc["agents"][1]["g"] = {"kind": "indicator_box",
                             "params": {"box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}}
    with pytest.raises(MalformedInstanceError) as exc:
        instance_from_json(doc)
    assert str(exc.value) == f"malformed instance JSON: {message}"


def _disconnected(topology=Topology.path(3)):
    """A 3-agent instance on ``topology`` whose blocks are all on the diagonal."""
    return ProblemInstance(topology, _scalar_agents(3), 1, 1, [0, 1, 2], [0, 1, 2],
                           np.ones((3, 1, 1)), np.zeros((3, 1)))


def _disconnected_doc():
    """The document of :func:`_disconnected` with the edge (1, 2) removed: agent 2 is cut
    off, and no block lies off a neighbourhood."""
    doc = instance_to_json(_disconnected())
    doc["edges"] = [[0, 1]]
    return doc


DISCONNECTED = "agent 2: no path to agent 0, the topology is disconnected"


def test_a_disconnected_topology_is_refused_when_built():
    _refused(lambda: _disconnected(Topology(3, [(0, 1)])), DISCONNECTED)
    _refused_at_load(_disconnected_doc(), DISCONNECTED)
    _refused(lambda: build_consensus(Topology(3, [(0, 1)]), [quadratic_local([0.0])] * 3),
             DISCONNECTED)
    _refused(lambda: build_consensus(Topology(5, [(0, 1), (3, 4)]),
                                     [quadratic_local([0.0])] * 5),
             "agent 2: no path to agent 0, the topology is disconnected")
    _refused(lambda: ProblemInstance(Topology(0), (), 1, 1, [], [], np.zeros((0, 1, 1)),
                                     np.zeros((0, 1))),
             "an instance needs at least one agent")


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
    """A scalar path with every smooth and nonsmooth kind, a 2-D pair, and a 2-D path whose
    smooth quadratics go dense, diagonal, dense, none with a domain (two groups of one kind
    and dim, which the digest stacks in agent order)."""
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

    square = BoxSet([-3.0, -2.0], [4.0, 5.0])
    fs = [QuadraticFunction(curvature, [1.0, -1.0], 0.5),
          QuadraticFunction([2.0, 1.5], [0.25, 0.0], -0.5),
          QuadraticFunction([[2.5, -0.75], [-0.75, 1.75]], [0.0, 2.0])]
    gs = [ProxFriendlyFunction.l1_plus_box(0.5, square), ProxFriendlyFunction.zero(),
          ProxFriendlyFunction.quadratic(QuadraticFunction(curvature, [0.5, 0.0]))]
    trio = list(map(AgentSpec, map(SmoothConjugable, fs), gs, [None, square, None]))
    owner, key = [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2]
    blocks = 0.5 * np.arange(1.0, 15.0).reshape(7, 1, 2) - 2.0
    mixed_2d = ProblemInstance(Topology.path(3), trio, 2, 1, owner, key, blocks,
                               [[1.0], [-0.5], [0.25]])
    return scalar, two_d, mixed_2d


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
    """Copies of a scalar instance document with one field added, removed or re-kinded, as
    ``(built, refused)``: ``refused`` pairs each copy that leaves a nonzero block off its
    owner's neighbourhood, which the constructor refuses, with the block it names."""
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

    refused = [(changed(lambda d: d["edges"].pop()), "agent 3: block for l=4"),
               (with_blocks({0: {0: (0, 0), 2: (0, 1)}}), "agent 0: block for l=2"),
               (with_blocks({0: {0: (0, 0), 3: (0, 1)}}), "agent 0: block for l=3")]
    return [
        changed(lambda d: d["edges"].append([0, 2])),
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
        with_blocks({1: {0: (1, 0), 1: (1, 1)}}),
        with_blocks({1: {1: (1, 0), 2: (1, 1)}}),
        with_blocks({0: {0: (0, 0)}, 1: {1: (1, 1), 2: (1, 2)}}),
        with_blocks({0: {0: (0, 0), 1: (1, 1)}, 1: {2: (1, 2)}}),
    ], refused


def test_instance_hash_changes_with_every_field():
    scalar, two_d, mixed_2d = _digest_instances()
    for inst in (scalar, two_d, mixed_2d):
        doc = instance_to_json(inst)
        variants = [_perturb(doc, path) for path in _numeric_leaves(doc)]
        if inst is scalar:
            built, refused = _structural_changes(doc)
            variants += built
            for variant, block in refused:
                _refused_at_load(variant, f"{block} is nonzero, but l is not a neighbour")
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
    scalar, two_d, mixed_2d = _digest_instances()
    with_outside_block = instance_to_json(scalar)
    with_outside_block["agents"][4]["constraint"]["blocks"]["0"] = [[0.0]]
    for inst in (scalar, two_d, mixed_2d, instance_from_json(with_outside_block),
                 build_market(), build_scenario("consensus"), _mixed_path()):
        again = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
        assert instance_hash(again) == instance_hash(inst)
        for name in ("owner", "l", "blocks", "rhs"):
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes(), name


# recorded when digest v2 replaced the layout of the smooth groups the first digests used
PINNED_HASHES = {
    "market": "90781f55ae6ac2fcacced2bc227be954cc02d0e1de8b102c4d4ce412c13fe0fb",
    "consensus": "cee8bcbd75cdd6420e946aa947ea6989e1555b5c6b2f274aafadfbce1029eb91",
}
PINNED_JSON_TEXT = {
    "market": "d7699284e62eaf1aaba82185df595b679beb0c1a22df015892b996ab70981d30",
    "consensus": "0d827c1333c2c7127ef2c11d035bb7ae3094e6c9bf978911946a444d01632aa8",
    "mixed_path": "ef7d84ee699e8f164cad181e1951b69c1c8b8814157034a7d78e38d2183a93a6",
}


def test_instance_hash_ignores_the_written_strong_convexity():
    for inst in _digest_instances():
        doc = instance_to_json(inst)
        for agent in doc["agents"]:
            agent["f"]["strong_convexity"] += 1.0
        assert instance_hash(instance_from_json(doc)) == instance_hash(inst)


def test_an_instance_whose_agents_hold_two_smooth_dims_is_refused():
    # the parameters of each kind and dim would be the same bytes in both; neither builds,
    # and the error names the agent that holds the 2-D part
    one = SmoothConjugable(QuadraticFunction(1.0, [0.5]))
    two = SmoothConjugable(QuadraticFunction([1.0, 2.0], [0.5, 0.25]))
    for fs, i in (([one, two, one], 1), ([one, one, two], 2)):
        agents = [AgentSpec(f, ProxFriendlyFunction.zero(), None) for f in fs]
        with pytest.raises(ValueError) as exc:
            ProblemInstance(Topology.path(3), agents, 1, 1, [0, 1, 2], [0, 1, 2],
                            np.ones((3, 1, 1)), np.zeros((3, 1)))
        assert str(exc.value) == f"agent {i}: smooth part has dim 2, expected M=1"


def test_instance_hash_matches_the_reference_read_agent_by_agent():
    for inst in (*_digest_instances(), build_market(), build_scenario("consensus"),
                 _mixed_path()):
        assert instance_hash(inst) == reference_instance_hash(instance_to_json(inst))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_instance_hash_matches_the_reference_on_random_instances(case):
    inst, _ = case
    assert instance_hash(inst) == reference_instance_hash(instance_to_json(inst))


def test_instance_hash_and_json_text_are_pinned():
    built = {"market": build_market(), "consensus": build_scenario("consensus"),
             "mixed_path": _mixed_path()}
    for name, digest in PINNED_HASHES.items():
        assert instance_hash(built[name]) == digest, name
    for name, digest in PINNED_JSON_TEXT.items():
        text = json.dumps(instance_to_json(built[name]), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_save_instance_writes_the_indented_json_dumps_text(tmp_path):
    for name, inst in (("market", build_market()), ("consensus", build_scenario("consensus")),
                       ("mixed_path", _mixed_path())):
        save_instance(inst, tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() == json.dumps(
            instance_to_json(inst), indent=2).encode(), name


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


DELETED = object()


@pytest.mark.parametrize("agent, path, value, message", [
    (3, ("omega", "lower"), [200.0], "agent 3: box requires lower <= upper componentwise"),
    (2, ("f", "params", "price"), -1.0, "agent 2: price and curvature must be positive"),
    (1, ("f", "params", "curvature"), [[1.0, 2.0]],
     "agent 1: curvature/linear dimension mismatch"),
    # a key missing or a value of the wrong type: Python's texts, with the agent in front
    (3, ("omega",), [0, 1], "agent 3: list indices must be integers or slices, not str"),
    (3, ("f", "params"), DELETED, "agent 3: lacks key 'params'"),
    (3, ("g", "params"), None, "agent 3: 'NoneType' object is not subscriptable"),
])
def test_instance_from_json_names_the_agent_whose_part_is_refused(agent, path, value, message):
    # the part constructors' own texts, with the agent in front, as _number's have it
    doc = instance_to_json(build_market())
    obj = doc["agents"][agent]
    for key in path[:-1]:
        obj = obj[key]
    if value is DELETED:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    _refused_at_load(doc, message)


DENSE = [[2.0, 0.5], [0.5, 2.0]]


def _dense_in_a_box(part):
    """The document of a 2-agent M = 2 path consensus whose agent 0 has the curvature
    ``DENSE`` in a box: its smooth part given a domain (``"f"``), its nonsmooth quadratic
    given an omega (``"omega"``) or a box of its own (``"g"``)."""
    doc = instance_to_json(build_consensus(Topology.path(2), [quadratic_local([0.0, 0.0])] * 2))
    agent, box = doc["agents"][0], {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    if part == "f":
        agent["f"]["params"]["curvature"], agent["f"]["domain"] = DENSE, box
    else:
        agent["g"] = {"kind": "quadratic", "params": {"curvature": DENSE, "linear": [0.0, 0.0],
                                                      "box": box if part == "g" else None}}
        agent["omega"] = box if part == "omega" else None
    return doc


DENSE_IN_A_BOX = {"f": "agent 0: smooth quadratic in a box needs diagonal curvature",
                  "g": "agent 0: nonsmooth quadratic in a box needs diagonal curvature",
                  "omega": "agent 0: nonsmooth quadratic in omega needs diagonal curvature"}


@pytest.mark.parametrize("part", ["f", "g", "omega"])
def test_a_dense_quadratic_in_a_box_is_refused_at_load(part):
    # before, a dense f with a domain (and a dense g with an omega) loaded, and run then
    # raised an error that named no agent
    _refused_at_load(_dense_in_a_box(part), DENSE_IN_A_BOX[part])


def test_an_omega_on_a_dense_nonsmooth_quadratic_is_refused_when_built():
    # its prox solves and projects on no box, so the omega would be dropped
    dense = ProxFriendlyFunction.quadratic(QuadraticFunction(DENSE, [0.0, 0.0]))
    box = BoxSet([-1.0, -1.0], [1.0, 1.0])
    _refused(lambda: build_consensus(Topology.path(2), [quadratic_local([0.0, 0.0])] * 2,
                                     [dense, ProxFriendlyFunction.zero()], [box, None]),
             DENSE_IN_A_BOX["omega"])
    diagonal = ProxFriendlyFunction.quadratic(QuadraticFunction([2.0, 2.0], [0.0, 0.0]))
    build_consensus(Topology.path(2), [quadratic_local([0.0, 0.0])] * 2, [diagonal] * 2,
                    [box, None])


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
