"""Fenchel-Young properties of the catalog's conjugates and argmaxes, against the math.

For a convex ``h`` with conjugate ``h*(v) = sup_z <v, z> - h(z)``:

* equality: where ``h*(v)`` is finite, ``h*(v) = <v, z_hat> - h(z_hat)`` at the
  argmax ``z_hat``, a point of ``h``'s domain; where it is ``+inf``, the argmax
  raises :class:`UnboundedConjugateError`;
* inequality: ``h*(v) >= <v, z> - h(z)`` for every ``z`` in ``h``'s domain, and
  the argmax attains at least as much as each such ``z``.

``h`` is each agent's nonsmooth part in its omega and each row of the one
nonsmooth group (every kind, with and without a box and omega, infinite
ends, ``lo = hi``, boxes off 0 and weight 0), and each agent's smooth part,
with and without a domain, and each row of its smooth group, where
``-inf, inf`` stands in for the domain of an agent without one.  Its value
is written here from the math (``+inf`` off its domain and at a point that
is not finite), not read from the catalog.  Both sides agree within
``REL`` of the size of their terms: the kernels' tolerances at kinks and
ties are ``1e-12`` of it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import (
    AgentSpec,
    PiecewiseQuadraticUtility,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    Topology,
    conjugate_argmax,
    conjugate_value,
)
from dualprox.errors import UnboundedConjugateError

from test_compiled import _edge_box, _near_kinks, nonsmooth_members

REL = 1e-9
INF = np.inf


def _outside(box, z) -> bool:
    return box is not None and bool(((z < box.lower) | (z > box.upper)).any())


def _g_math(g, z) -> float:
    """``g(z)`` for one nonsmooth part: zero, ``w |z|_1`` or ``z'Cz / 2 + q'z + r``, plus
    the indicator of its box."""
    if not np.isfinite(z).all() or _outside(g.box, z):
        return INF
    if g.kind == "l1":
        return g.weight * np.abs(z).sum()
    if g.kind == "quadratic":
        q = g.quad
        return 0.5 * z @ q.curvature @ z + q.linear @ z + q.offset
    return 0.0


def _f_math(f, x) -> float:
    """``f(x)`` for one smooth part: ``x'Cx / 2 + q'x + r``, or ``varsigma x^2 - pi x`` up to
    the threshold ``pi / (2 varsigma)`` and ``-pi^2 / (4 varsigma)`` beyond it, plus the
    indicator of its domain."""
    if not np.isfinite(x).all() or _outside(f.effective_domain, x):
        return INF
    base = f.base
    if isinstance(base, QuadraticFunction):
        return 0.5 * x @ base.curvature @ x + base.linear @ x + base.offset
    p, s, x = base.price, base.curvature, x[0]
    return s * x * x - p * x if x <= p / (2.0 * s) else -p * p / (4.0 * s)


def _domain_points(rng, box, dim, n=6) -> np.ndarray:
    """``n`` random points of ``box`` (all of space: ``[-10, 10]`` each), its ends among them."""
    lo, hi = (np.full(dim, -INF), np.full(dim, INF)) if box is None else (box.lower, box.upper)
    lo_f = np.where(np.isinf(lo), np.minimum(hi, 0.0) - 10.0, lo)
    hi_f = np.where(np.isinf(hi), np.maximum(lo, 0.0) + 10.0, hi)
    z = lo_f + (hi_f - lo_f) * rng.random((n, dim))
    return np.concatenate([z, [lo_f, hi_f]])


def _assert_equality(conj, v, z_hat, value, where):
    """``conj = <v, z_hat> - value``, ``z_hat`` a finite point of the domain, within REL."""
    dot = float(v @ z_hat)
    assert np.isfinite(value), (where, z_hat)
    assert abs(conj - (dot - value)) <= REL * (1.0 + abs(dot) + abs(value)), (where, conj, dot,
                                                                               value)


def _assert_inequality(conj, v, z_hat, value_at, points, where):
    """``conj`` and, where there is an argmax, ``<v, z_hat> - h(z_hat)``, are at least
    ``<v, z> - h(z)`` for each of ``points``, within REL."""
    with np.errstate(invalid="ignore", over="ignore"):  # an argmax that is no point
        attained = None if z_hat is None else v @ z_hat - value_at(z_hat)
    for z in points:
        rhs, size = v @ z - value_at(z), 1.0 + abs(v @ z) + abs(value_at(z))
        assert conj + REL * size >= rhs, (where, conj, z, rhs)
        if z_hat is not None:
            assert attained + REL * (size + abs(v @ z_hat)) >= rhs, (where, z_hat, z, rhs)


def _argmax_or_none(fn, *args):
    try:
        return fn(*args)
    except UnboundedConjugateError:
        return None


def _g_cases(inst, rng):
    """``(where, g, v, conj, z_hat)``: each agent's g in its omega at ``v`` near its kinks,
    and each row of the nonsmooth groups where its conjugate is finite (elsewhere ``v =
    0``), with ``z_hat`` ``None`` where the argmax raises."""
    N, M = inst.n_agents, inst.M
    weights = np.array([a.g.weight for a in inst.agents])[:, None]
    v, ref = _near_kinks(rng, (N, M), weights), rng.uniform(-5, 5, (N, M))
    own = [a.g.with_box(a.omega) for a in inst.agents]
    for i, g in enumerate(own):
        yield (f"agent {i}", g, v[i], g.conjugate(v[i]),
               _argmax_or_none(g.conjugate_argmax, v[i], ref[i]))
    for idx, group in inst.g_groups:
        agents = np.arange(N)[idx]
        rows = v[agents] * np.isfinite(group.conjugate(v[agents]))[:, None]
        conj, z_hat = group.conjugate(rows), group.conjugate_argmax(rows, ref[agents])
        for k, i in enumerate(agents):
            yield f"group row {k}, agent {i}", own[i], rows[k], conj[k], z_hat[k]


@settings(max_examples=200, deadline=None)
@given(nonsmooth_members())
def test_g_fenchel_young_equality(case):
    inst, rng = case
    for where, g, v, conj, z_hat in _g_cases(inst, rng):
        if np.isinf(conj):
            assert z_hat is None, (where, v, z_hat)  # no point attains an infinite sup
        else:
            assert z_hat is not None, (where, v, conj)
            _assert_equality(conj, v, z_hat, _g_math(g, z_hat), where)


@settings(max_examples=200, deadline=None)
@given(nonsmooth_members())
def test_g_fenchel_young_inequality(case):
    inst, rng = case
    for where, g, v, conj, z_hat in _g_cases(inst, rng):
        points = _domain_points(rng, g.box, inst.M)
        _assert_inequality(conj, v, z_hat, lambda z: _g_math(g, z), points, where)


@st.composite
def smooth_members(draw):
    """``(instance, rng)``: up to 6 agents whose smooth parts are diagonal quadratics and,
    for ``M = 1``, utilities, with or without a domain (infinite ends, ``lo = hi``, off 0),
    and for ``M = 2`` dense quadratics without one."""
    n, M = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = []
    for _ in range(n):
        kind = draw(st.sampled_from(("quadratic", "utility") if M == 1 else ("quadratic", "dense")))
        domain = None if kind == "dense" or draw(st.booleans()) else _edge_box(draw, rng, M)
        if kind == "utility":
            base = PiecewiseQuadraticUtility(rng.uniform(1.0, 20.0), rng.uniform(0.05, 2.0))
        elif kind == "dense":
            R = rng.normal(size=(M, M))
            base = QuadraticFunction(R @ R.T + M * np.eye(M), rng.uniform(-3, 3, M),
                                     rng.uniform(-1, 1))
        else:
            base = QuadraticFunction(rng.uniform(0.2, 3.0, M), rng.uniform(-3, 3, M),
                                     rng.uniform(-1, 1))
        fs.append(SmoothConjugable(base, domain))
    agents = [AgentSpec(f, ProxFriendlyFunction.zero(), None) for f in fs]
    inst = ProblemInstance(Topology.path(n), agents, M, 1, range(n), range(n), np.ones((n, 1, M)),
                           np.zeros((n, 1)))
    return inst, rng


def _f_cases(inst, rng):
    """``(where, f, u, conj, x_hat)``: each agent's f at a slope ``u`` (for a utility,
    around its price), and each row of the smooth groups, where a utility unbounded at ``u``
    (``u > 0`` on a flat branch without an upper end) takes ``-u``; ``x_hat`` ``None`` where
    the argmax raises."""
    N, M = inst.n_agents, inst.M
    u = rng.uniform(-5, 5, (N, M))
    for i, a in enumerate(inst.agents):
        if isinstance(a.f.base, PiecewiseQuadraticUtility):
            u[i] = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0, 2 * a.f.base.price)
    own = [conjugate_value(a.f, u[i]) for i, a in enumerate(inst.agents)]
    for i, a in enumerate(inst.agents):
        yield f"agent {i}", a.f, u[i], own[i], _argmax_or_none(conjugate_argmax, a.f, u[i])
    for idx, f in inst.f_groups:
        agents = np.arange(N)[idx]
        rows = np.array([-u[i] if np.isinf(own[i]) else u[i] for i in agents])
        x_hat = conjugate_argmax(f, rows)
        conj = (rows * x_hat).sum(axis=-1) - f.value(x_hat)
        for k, i in enumerate(agents):
            yield f"group row {k}, agent {i}", inst.agents[i].f, rows[k], conj[k], x_hat[k]


@settings(max_examples=200, deadline=None)
@given(smooth_members())
def test_f_fenchel_young_equality(case):
    inst, rng = case
    for where, f, u, conj, x_hat in _f_cases(inst, rng):
        if np.isinf(conj):
            assert x_hat is None, (where, u, x_hat)
        else:
            assert x_hat is not None, (where, u, conj)
            _assert_equality(conj, u, x_hat, _f_math(f, x_hat), where)


@settings(max_examples=200, deadline=None)
@given(smooth_members())
def test_f_fenchel_young_inequality(case):
    # the smooth part's own value, SmoothConjugable.value, on the points of its domain
    inst, rng = case
    for where, f, u, conj, x_hat in _f_cases(inst, rng):
        points = _domain_points(rng, f.effective_domain, inst.M)
        _assert_inequality(conj, u, x_hat, lambda x: float(f.value(x)) if np.isfinite(
            _f_math(f, x)) else INF, points, where)
