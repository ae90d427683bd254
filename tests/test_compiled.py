"""The compiled operators against dense references written from the math.

Random connected topologies (stars among them), ``M, B`` in ``{1, 2}`` and
every smooth and nonsmooth catalog kind, with an optional local box.  A
stack of dual points is evaluated against each point alone, bit for bit,
with ``M`` up to 9.
"""

import json
import warnings

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
from dualprox.convex import _G_KINDS
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
    reference_g_argmax,
    reference_g_conjugate,
    reference_g_prox,
    reference_group,
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
    assert inst.lipschitz is inst.lipschitz


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


def _g_row(g, k) -> tuple:
    """Member ``k`` of a nonsmooth group as ``(code, weight, quadratic, box)``: the code is the
    kind's index in ``_G_KINDS``, plus 3 with a box; the quadratic's fields and the box's
    ends as bytes, ``None`` for a stand-in (curvature 1, linear 0, offset 0; ends -inf, inf)."""
    code = (g.kind[k] if type(g.kind) is not str
            else _G_KINDS.index(g.kind) + 3 * (g.box is not None))
    quad = box = None
    if g.quad is not None:
        fields = [np.asarray(getattr(g.quad, name))[k]
                  for name in ("curvature", "linear", "offset")]
        free = [np.eye(fields[1].size), np.zeros(fields[1].size), np.float64(0.0)]
        if code % 3 == 2 or any(f.tobytes() != e.tobytes() for f, e in zip(fields, free)):
            quad = tuple(f.tobytes() for f in fields)
    if g.box is not None and code >= 3:
        box = (g.box.lower[k].tobytes(), g.box.upper[k].tobytes())
    elif g.box is not None:
        assert (np.isneginf(g.box.lower[k]).all() and np.isposinf(g.box.upper[k]).all())
    return int(code), np.float64(np.asarray(g.weight)[k]).tobytes(), quad, box


def _assert_g_groups_as_before(inst):
    """Every row of ``g_groups`` equals its agent's g intersected with its omega as
    ``with_box`` did it before it kept its own box; one group holds every agent but the
    dense quadratics, which have one of their own."""
    seen = []
    for idx, g in inst.g_groups:
        agents = np.arange(inst.n_agents)[idx].tolist()
        dense = {a.g.quad is not None and not a.g.quad.is_diagonal
                 for a in (inst.agents[i] for i in agents)}
        assert len(dense) == 1
        for k, i in enumerate(agents):
            want = reference_with_box(inst.agents[i].g, inst.agents[i].omega)
            assert _g_row(g, k) == _g_row(reference_group([want]), 0), (i, k)
        seen += agents
    assert sorted(seen) == list(range(inst.n_agents)) and len(inst.g_groups) <= 2


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


def _edge_box(draw, rng, M):
    """A box whose components each have finite ends, an infinite end or two, or lo = hi."""
    lo, hi = -rng.uniform(0.1, 5.0, M), rng.uniform(0.1, 5.0, M)
    for m in range(M):
        how = draw(st.sampled_from(["finite", "finite", "lo inf", "hi inf", "both inf",
                                    "point", "off zero"]))
        if how in ("lo inf", "both inf"):
            lo[m] = -np.inf
        if how in ("hi inf", "both inf"):
            hi[m] = np.inf
        if how == "point":
            lo[m] = hi[m]
        if how == "off zero":
            lo[m] = hi[m] - rng.uniform(0.1, 2.0)
    return BoxSet(lo, hi)


@st.composite
def nonsmooth_members(draw):
    """``(instance, rng)``: up to 7 agents of every nonsmooth kind, each with or without an
    omega, boxes with infinite ends and lo = hi, l1 weights that may be 0, and for ``M = 2``
    dense quadratics without a box."""
    n, M = draw(st.integers(1, 7)), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = []
    for _ in range(n):
        kind = draw(st.sampled_from(G_KINDS + (("dense",) if M == 2 else ())))
        w = draw(st.sampled_from([0.0, float(rng.uniform(0.1, 2.0))]))
        quad = QuadraticFunction(rng.uniform(0.2, 3.0, M), rng.uniform(-1, 1, M),
                                 rng.uniform(-1, 1))
        if kind == "dense":
            R = rng.normal(size=(M, M))
            g = ProxFriendlyFunction.quadratic(QuadraticFunction(R @ R.T + M * np.eye(M),
                                                                 rng.uniform(-1, 1, M)))
        else:
            box = _edge_box(draw, rng, M) if kind.endswith("box") else None
            g = {"zero": ProxFriendlyFunction.zero(), "l1": ProxFriendlyFunction.l1(w),
                 "indicator_box": ProxFriendlyFunction.indicator_box(box),
                 "l1_plus_box": ProxFriendlyFunction.l1_plus_box(w, box),
                 "quadratic": ProxFriendlyFunction.quadratic(quad),
                 "quadratic_box": ProxFriendlyFunction.quadratic(quad, box)}[kind]
        omega = None if kind == "dense" or draw(st.booleans()) else _edge_box(draw, rng, M)
        if omega is not None and g.box is not None and (
                np.maximum(g.box.lower, omega.lower) > np.minimum(g.box.upper, omega.upper)).any():
            omega = None  # they do not meet
        agents.append(AgentSpec(SmoothConjugable(QuadraticFunction(np.ones(M), np.zeros(M))),
                                g, omega))
    inst = ProblemInstance(Topology.path(n), agents, M, 1, range(n), range(n), np.ones((n, 1, M)),
                           np.zeros((n, 1)))
    return inst, rng


def _near_kinks(rng, shape, weights):
    """Points near where the conjugates and argmaxes change branch: 0, -0.0, an l1 weight,
    within 1e-12 of it, and ordinary values."""
    w = np.broadcast_to(weights, shape)
    choices = [rng.uniform(-3, 3, shape), np.zeros(shape), np.full(shape, -0.0),
               w, -w, w + rng.uniform(0, 2e-12, shape), -w - rng.uniform(0, 2e-12, shape),
               rng.uniform(-2e-12, 2e-12, shape)]
    pick = rng.integers(0, len(choices), shape)
    return np.choose(pick, choices)


def _row_or_error(fn, *args):
    try:
        return fn(*args)
    except UnboundedConjugateError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(nonsmooth_members(), st.integers(1, 4))
def test_every_row_of_the_nonsmooth_group_is_its_agents_own(case, K):
    # prox, conjugate (one vector and a stack) and argmax of the compiled groups, row by row,
    # bitwise against the agent's own g in its omega, which the per-kind kernels check in turn;
    # an argmax that is unbounded for one agent raises the same error for its group
    inst, rng = case
    N, M = inst.n_agents, inst.M
    weights = np.array([a.g.weight for a in inst.agents])[:, None]
    u, ref = rng.uniform(-5, 5, (N, M)), rng.uniform(-5, 5, (N, M))
    v, vs = _near_kinks(rng, (N, M), weights), _near_kinks(rng, (K, N, M), weights)
    alpha = rng.uniform(0.05, 5.0, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for idx, g in inst.g_groups:
            agents = np.arange(N)[idx]
            prox = g.prox(u[agents], alpha[agents])
            conj, conjs = g.conjugate(v[agents]), g.conjugate(vs[:, agents])
            own = [inst.agents[i].g.with_box(inst.agents[i].omega) for i in agents]
            rows = [_row_or_error(o.conjugate_argmax, v[i], ref[i]) for o, i in zip(own, agents)]
            errors = {r for r in rows if isinstance(r, type)}
            if errors:
                with pytest.raises(tuple(errors)):
                    g.conjugate_argmax(v[agents], ref[agents])
            else:
                argmax = g.conjugate_argmax(v[agents], ref[agents])
            for k, (o, i) in enumerate(zip(own, agents)):
                for got, want, ref_want in (
                        (prox[k], o.prox(u[i], alpha[i]), reference_g_prox(o, u[i], alpha[i])),
                        (conj[k], o.conjugate(v[i]), reference_g_conjugate(o, v[i])),
                        *((conjs[j, k], o.conjugate(vs[j, i]), reference_g_conjugate(o, vs[j, i]))
                          for j in range(K))):
                    assert _bits(got) == _bits(want) == _bits(ref_want), (i, got, want, ref_want)
                assert np.isinf(conj[k]) == isinstance(rows[k], type), i  # g* = inf: no argmax
                want = _row_or_error(reference_g_argmax, o, v[i], ref[i])
                if isinstance(rows[k], type):
                    assert want is rows[k]
                else:
                    assert _bits(rows[k]) == _bits(want), i
                    assert errors or _bits(argmax[k]) == _bits(rows[k]), i


def test_a_group_row_does_not_depend_on_the_other_members_boxes():
    # a finite box beside one with an infinite end: the group took the infinite-end formula
    # for both, and agent 0's conjugate, so Q, differed from its own in the last bits
    f = SmoothConjugable(QuadraticFunction(1.0, [0.0]))
    g0 = ProxFriendlyFunction.l1_plus_box(1.486043465869597,
                                          BoxSet([-4.681854876560064], [4.097682415195508]))
    g1 = ProxFriendlyFunction.l1_plus_box(1.0, BoxSet([-1.0], [np.inf]))
    inst = ProblemInstance(Topology.path(2), [AgentSpec(f, g0, None), AgentSpec(f, g1, None)],
                           1, 1, [0, 1], [0, 1], np.ones((2, 1, 1)), np.zeros((2, 1)))
    mu = np.array([[2.1444256595254156], [0.0]])
    (_, g), = inst.g_groups
    assert _bits(g.conjugate(mu)) == _bits([g0.conjugate(mu[0]), g1.conjugate(mu[1])])
    q = dual_objective(inst, np.concatenate([[0.0, 0.0], mu.ravel()])).q_part
    assert _bits(q) == _bits(0.0 + g0.conjugate(mu[0]) + g1.conjugate(mu[1]))


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
    f_groups, _, sigma = reference_kind_groups(inst)
    assert (inst.sigma.dtype, inst.sigma.tobytes()) == (sigma.dtype, sigma.tobytes())
    assert "f_groups" not in vars(inst)  # the construction groups are checked on first use
    assert all(f.dim == inst.M for _, f in inst._f_groups)
    assert all(dims == (inst.M,) * 3 for dims, _, _ in inst._g_members)
    _same_groups(inst._f_groups, f_groups)
    assert inst.f_groups is inst._f_groups  # checked, not rebuilt
    _assert_g_groups_as_before(inst)


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
