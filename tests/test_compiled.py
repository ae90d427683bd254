"""The compiled operators against dense references written from the math.

Random connected topologies (stars among them), ``M, B`` in ``{1, 2}`` and
every smooth and nonsmooth catalog kind, with an optional local box.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import (
    AgentSpec,
    BoxSet,
    ConstraintBlock,
    PiecewiseQuadraticUtility,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    StepSizes,
    Topology,
    apply_C,
    dual_objective,
    grad_P_block,
    lipschitz_constant,
    local_maximizers,
)
from dualprox.engine import _round
from dualprox.errors import UnboundedConjugateError

from dense_reference import (
    dense_A,
    dense_b,
    dense_C,
    dense_lipschitz,
    dense_objective,
    dense_round,
)

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
def instances(draw):
    topo = draw(topologies())
    n = topo.n_agents
    M, B = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    f_kinds = draw(st.lists(st.sampled_from(F_KINDS if M == 1 else F_KINDS[:2]),
                            min_size=n, max_size=n))
    g_kinds = draw(st.lists(st.sampled_from(G_KINDS), min_size=n, max_size=n))
    boxed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # present, zero or absent, per block of the closed neighbourhood
    presence = draw(st.lists(st.sampled_from(["dense", "dense", "zero", "absent"]),
                             min_size=n * n, max_size=n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = []
    for i in range(n):
        blocks = {}
        for l in topo.neighbors(i) + [i]:
            kind = presence[i * n + l]
            if kind != "absent":
                blocks[l] = rng.normal(size=(B, M)) * (kind == "dense")
        # a zero block for an agent outside the neighbourhood is allowed
        outside = [l for l in range(n) if l != i and l not in topo.neighbors(i)]
        if outside:
            blocks[outside[0]] = np.zeros((B, M))
        agents.append(AgentSpec(
            i, _smooth(rng, f_kinds[i], M), _nonsmooth(rng, g_kinds[i], M),
            _box(rng, M) if boxed[i] else None,
            ConstraintBlock(i, blocks, rng.normal(size=B))))
    inst = ProblemInstance(topo, tuple(agents), M, B)
    return inst, rng


def _dual_point(inst, rng):
    """A random ``lam`` whose every ``mu_i`` lies in the domain of ``g_i*``."""
    N, M, B = inst.n_agents, inst.M, inst.B
    mu = rng.uniform(-3, 3, (N, M))
    for i, agent in enumerate(inst.agents):
        g = agent.effective_g
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
    _close(local_maximizers(inst, lam), x_ref)
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
    agents = tuple(
        AgentSpec(i, SmoothConjugable(QuadraticFunction(1.0, [0.0])),
                  ProxFriendlyFunction.zero(), None,
                  ConstraintBlock(i, {i: [[1.0]]}, [0.0]))
        for i in range(3))
    inst = ProblemInstance(Topology.path(3), agents, 1, 1)
    h, per_agent = lipschitz_constant(inst)
    per_agent[:] = 0.0  # the caller's copy, not the cached one
    assert lipschitz_constant(inst)[0] == h == pytest.approx(6.0)
    assert inst.compiled.lipschitz is inst.compiled.lipschitz
