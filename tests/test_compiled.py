"""The compiled operators against dense references written from the math.

Random connected topologies (stars among them), ``M, B`` in ``{1, 2}`` and
every smooth and nonsmooth catalog kind, with an optional local box.  A
stack of dual points is evaluated against each point alone, bit for bit,
with ``M`` up to 9.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import (
    AgentSpec,
    BoxSet,
    PiecewiseQuadraticUtility,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    StepSizes,
    Topology,
    apply_C,
    build_market,
    dual_objective,
    grad_P_block,
    instance_from_json,
    instance_to_json,
    lipschitz_constant,
)
from dualprox.engine import _round
from dualprox.errors import UnboundedConjugateError
from dualprox.model import _csr

from dense_reference import (
    dense_A,
    dense_b,
    dense_C,
    dense_lipschitz,
    dense_objective,
    dense_round,
    reference_csr,
    reference_groups,
    reference_kind_groups,
    reference_with_box,
)
from test_bound_constants import _same

F_KINDS = ("quadratic", "quadratic_box", "utility", "utility_box")
G_KINDS = ("zero", "l1", "indicator_box", "l1_plus_box", "quadratic", "quadratic_box")


@st.composite
def topologies(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return Topology.star(n)
    tree = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    return Topology(n, frozenset(tree | {(i, j) for i, j in extra if i != j}))


def _box(rng, dim, straddle_zero=True):
    if straddle_zero:
        return BoxSet(-rng.uniform(0.1, 5.0, dim), rng.uniform(0.1, 5.0, dim))
    lo = rng.uniform(-5.0, 5.0, dim)
    return BoxSet(lo, lo + rng.uniform(0.1, 5.0, dim))


def _smooth(rng, kind, M):
    if kind.startswith("utility"):
        base = PiecewiseQuadraticUtility(rng.uniform(1.0, 20.0), rng.uniform(0.05, 2.0))
    elif kind == "quadratic" and M > 1:
        R = rng.normal(size=(M, M))
        base = QuadraticFunction(R @ R.T + M * np.eye(M), rng.uniform(-3, 3, M),
                                 rng.uniform(-1, 1))
    else:
        base = QuadraticFunction(rng.uniform(0.5, 3.0, M), rng.uniform(-3, 3, M),
                                 rng.uniform(-1, 1))
    return SmoothConjugable(base, _box(rng, M, False) if kind.endswith("box") else None)


def _nonsmooth(rng, kind, M):
    w = rng.uniform(0.1, 2.0)
    quad = QuadraticFunction(rng.uniform(0.2, 3.0, M), rng.uniform(-1, 1, M))
    return {
        "zero": lambda: ProxFriendlyFunction.zero(),
        "l1": lambda: ProxFriendlyFunction.l1(w),
        "indicator_box": lambda: ProxFriendlyFunction.indicator_box(_box(rng, M)),
        "l1_plus_box": lambda: ProxFriendlyFunction.l1_plus_box(w, _box(rng, M)),
        "quadratic": lambda: ProxFriendlyFunction.quadratic(quad),
        "quadratic_box": lambda: ProxFriendlyFunction.quadratic(quad, _box(rng, M)),
    }[kind]()


@st.composite
def instances(draw, Ms=(1, 2)):
    topo = draw(topologies())
    n = topo.n_agents
    M, B = draw(st.sampled_from(Ms)), draw(st.sampled_from([1, 2]))
    f_kinds = draw(st.lists(st.sampled_from(F_KINDS if M == 1 else F_KINDS[:2]),
                            min_size=n, max_size=n))
    g_kinds = draw(st.lists(st.sampled_from(G_KINDS), min_size=n, max_size=n))
    boxed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # present, zero or absent, per block of the closed neighbourhood
    presence = draw(st.lists(st.sampled_from(["dense", "dense", "zero", "absent"]),
                             min_size=n * n, max_size=n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents, owner, key, blocks, rhs = [], [], [], [], []
    for i in range(n):
        ls = [l for l in topo.neighbors(i) + [i] if presence[i * n + l] != "absent"]
        # a zero block for an agent outside the neighbourhood is allowed
        outside = [l for l in range(n) if l != i and l not in topo.neighbors(i)]
        owner += [i] * (len(ls) + bool(outside))
        key += ls + outside[:1]
        blocks += [rng.normal(size=(B, M)) * (presence[i * n + l] == "dense") for l in ls]
        blocks += [np.zeros((B, M))] * bool(outside)
        agents.append(AgentSpec(
            _smooth(rng, f_kinds[i], M), _nonsmooth(rng, g_kinds[i], M),
            _box(rng, M) if boxed[i] else None))
        rhs.append(rng.normal(size=B))
    inst = ProblemInstance(topo, agents, M, B, owner, key, np.reshape(blocks, (-1, B, M)), rhs)
    return inst, rng


def _dual_point(inst, rng):
    """A random ``lam`` whose every ``mu_i`` lies in the domain of ``g_i*``."""
    N, M, B = inst.n_agents, inst.M, inst.B
    mu = rng.uniform(-3, 3, (N, M))
    for i, agent in enumerate(inst.agents):
        g = agent.g.with_box(agent.omega)
        if g.box is None and g.kind == "zero":
            mu[i] = 0.0
        elif g.box is None and g.kind == "l1":
            mu[i] = rng.uniform(-0.9, 0.9, M) * g.weight
    return np.concatenate([rng.uniform(-3, 3, N * B), mu.ravel()])


def _close(got, want):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * (1.0 + float(np.max(np.abs(want), initial=0.0))))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_compiled_operators_match_dense_reference(case):
    inst, rng = case
    N, M, B = inst.n_agents, inst.M, inst.B
    lam = _dual_point(inst, rng)
    _close(apply_C(inst, lam).ravel(), dense_C(inst) @ lam)

    x = rng.normal(size=(N, M))
    g_theta, g_mu = grad_P_block(inst, x)
    _close(g_theta.ravel(), dense_b(inst) - dense_A(inst) @ x.ravel())
    np.testing.assert_array_equal(g_mu, -x)

    try:
        psi_ref, x_ref = dense_objective(inst, lam)
    except UnboundedConjugateError:
        with pytest.raises(UnboundedConjugateError):
            dual_objective(inst, lam)
        return
    obj = dual_objective(inst, lam)
    _close(obj.x_hat, x_ref)
    _close(obj.psi, psi_ref)

    c = rng.uniform(0.05, 2.0, N)
    _close(_round(inst, lam, obj.x_hat, StepSizes.per_agent(c)),
           dense_round(inst, lam, obj.x_hat, c))

    if M == 1:
        h, per_agent = lipschitz_constant(inst)
        h_ref, per_agent_ref = dense_lipschitz(inst)
        assert h == h_ref
        np.testing.assert_array_equal(per_agent, per_agent_ref)
    else:
        h, _ = lipschitz_constant(inst)
        h_ref, _ = dense_lipschitz(inst)
        assert h == pytest.approx(h_ref, rel=1e-12)


def test_lipschitz_constant_is_computed_once():
    agents = [AgentSpec(SmoothConjugable(QuadraticFunction(1.0, [0.0])),
                        ProxFriendlyFunction.zero(), None)] * 3
    inst = ProblemInstance(Topology.path(3), agents, 1, 1, [0, 1, 2], [0, 1, 2],
                           np.ones((3, 1, 1)), np.zeros((3, 1)))
    h, per_agent = lipschitz_constant(inst)
    per_agent[:] = 0.0  # the caller's copy, not the cached one
    assert lipschitz_constant(inst)[0] == h == pytest.approx(6.0)
    assert inst.compiled.lipschitz is inst.compiled.lipschitz


def _bits(x) -> bytes:
    """The bytes of a float or an array: ``-0.0`` and each NaN are told apart."""
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(instances(Ms=(1, 2, 3, 8, 9)), st.integers(1, 7))
def test_a_stack_of_dual_points_evaluates_each_row_bitwise(case, K):
    # M = 9 sums 9 terms, where numpy's pairwise sum unrolls 8 ways; random
    # kinds per agent give groups of non-consecutive agents (index arrays)
    inst, rng = case
    N, M, B = inst.n_agents, inst.M, inst.B
    lams = np.array([_dual_point(inst, rng) for _ in range(K)])
    outside = rng.random(K) < 0.3  # mu outside the domain of some g*: Psi may be inf
    lams[outside, N * B:] *= 10.0
    try:
        rows = [dual_objective(inst, lam) for lam in lams]
    except UnboundedConjugateError:
        with pytest.raises(UnboundedConjugateError):
            dual_objective(inst, lams)
        return
    obj = dual_objective(inst, lams)
    assert obj.x_hat.shape == (K, N, M) and np.shape(obj.psi) == (K,)
    for r, row in enumerate(rows):
        for name in ("psi", "p_part", "q_part", "x_hat"):
            assert _bits(getattr(obj, name)[r]) == _bits(getattr(row, name)), (r, name)
    np.testing.assert_array_equal(apply_C(inst, lams), [apply_C(inst, lam) for lam in lams])


def _same_groups(got, want):
    """The same ``(agents, function)`` groups: agents of one type, fields bitwise."""
    assert len(got) == len(want)
    for (idx, fn), (want_idx, want_fn) in zip(got, want):
        assert type(idx) is type(want_idx)
        assert idx == want_idx if isinstance(idx, slice) else np.array_equal(idx, want_idx)
        _same(fn, want_fn)


def _assert_g_groups_as_before(inst):
    """``g_groups`` equals the grouping of every agent's g intersected with
    its omega as ``with_box`` did it before it kept its own box."""
    _same_groups(inst.compiled.g_groups,
                 reference_groups([reference_with_box(a.g, a.omega) for a in inst.agents],
                                  lambda g: (g.kind, g.box is None)))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_g_groups_match_the_intersected_boxes(case):
    _assert_g_groups_as_before(case[0])


def test_market_g_groups_match_the_intersected_boxes():
    market = build_market()
    # the market hands one box object to g and to omega; a loaded file does not
    assert all(a.g.box is a.omega for a in market.agents)
    loaded = instance_from_json(json.loads(json.dumps(instance_to_json(market))))
    assert not any(a.g.box is a.omega for a in loaded.agents)
    for inst in (market, loaded):
        _assert_g_groups_as_before(inst)


def _signed_zero_boxes(M, zero_first):
    """Two equal but distinct boxes whose ends hold 0.0 in one and -0.0 in the other."""
    a, b = (0.0, -0.0) if zero_first else (-0.0, 0.0)
    return (BoxSet(np.full(M, a), np.ones(M)), BoxSet(np.full(M, b), np.ones(M)),
            BoxSet(-np.ones(M), np.full(M, b)), BoxSet(-np.ones(M), np.full(M, a)))


@st.composite
def grouped_instances(draw):
    """:func:`instances` (mixed kinds, dense ``M = 2`` curvatures), some agents'
    omega replaced by g's own box object, or g and omega by equal but distinct
    boxes whose ends are 0.0 in one and -0.0 in the other."""
    inst, rng = draw(instances())
    agents = []
    for a in inst.agents:
        how = draw(st.sampled_from(["keep", "own box", "signed zeros", "signed zeros"]))
        if how == "own box" and a.g.box is not None:
            a = AgentSpec(a.f, a.g, a.g.box)
        elif how == "signed zeros":
            low_g, low_omega, high_g, high_omega = _signed_zero_boxes(inst.M, draw(st.booleans()))
            g_box, omega = draw(st.sampled_from([(low_g, low_omega), (high_g, high_omega)]))
            g = (ProxFriendlyFunction.indicator_box(g_box) if a.g.kind == "zero" else
                 ProxFriendlyFunction.l1_plus_box(max(a.g.weight, 0.5), g_box))
            a = AgentSpec(a.f, g, omega)
        agents.append(a)
    return ProblemInstance(inst.topology, agents, inst.M, inst.B, inst.owner, inst.l,
                           inst.blocks, inst.rhs)


@settings(max_examples=200, deadline=None)
@given(grouped_instances())
def test_instance_groups_match_the_per_agent_compile(inst):
    f_groups, g_groups, sigma = reference_kind_groups(inst)
    assert (inst.sigma.dtype, inst.sigma.tobytes()) == (sigma.dtype, sigma.tobytes())
    assert inst.compiled.sigma is inst.sigma
    assert all(f.dim == inst.M for _, f in inst.f_groups)
    assert all(dims == (inst.M,) * 3 for dims, _, _ in inst._g_members)
    _same_groups(inst.f_groups, f_groups)
    assert inst.compiled.f_groups is inst.f_groups  # checked when compiled, not rebuilt
    _same_groups(inst.compiled.g_groups, g_groups)


@st.composite
def csr_blocks(draw):
    n_groups, n_others = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    pairs = sorted(draw(st.sets(st.tuples(st.integers(0, n_groups - 1),
                                          st.integers(0, n_others - 1)), min_size=1)))
    R, K = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups, others = np.array(pairs, dtype=np.intp).T
    return groups, others, rng.normal(size=(len(pairs), R, K))


@settings(max_examples=200, deadline=None)
@given(csr_blocks())
def test_csr_entries_match_the_broadcast_form(blocks):
    for got, want in zip(_csr(*blocks), reference_csr(*blocks)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
