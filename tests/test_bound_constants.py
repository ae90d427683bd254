"""The catalog kernels with bound constants against their former formulas, bit for bit.

Each group binds what does not depend on its argument once (the utility's
clamped threshold, endpoints and their values, the quadratic's diagonal and
its positivity).  The references in ``dense_reference`` recompute everything
on each call, as the kernels did before; results must agree in every bit,
signed zeros included, and both must raise the same error.  The same holds
for ``convex.group`` against the per-class ``stack`` constructors it
replaced, and for the nonsmooth quadratic, whose argmax now goes through
``conjugate_argmax``, against its own former argmax, but for the sign of a
zero where that argmax solved a diagonal system of two or more unknowns.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualprox import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    conjugate_argmax,
)
from dualprox.convex import group
from dualprox.errors import DualproxError, UnboundedConjugateError
from dualprox.model import sum_in_order

from dense_reference import (
    reference_conjugate_argmax,
    reference_g_quadratic_argmax,
    reference_g_quadratic_conjugate,
    reference_group,
    reference_quadratic_value,
)

INF = float("inf")
TIE_TOL = 1e-12

finite = st.floats(-50.0, 50.0, allow_subnormal=False)
signed_zero = st.sampled_from([0.0, -0.0])


def _outcome(fn, *args):
    """The bytes of the result, or the type of the package error raised."""
    try:
        out = fn(*args)
    except DualproxError as exc:
        return type(exc)
    return np.asarray(out, dtype=float).tobytes()


def _agree(f, u):
    assert _outcome(conjugate_argmax, f, u) == _outcome(reference_conjugate_argmax, f, u)


@st.composite
def utilities(draw, bounded):
    """A utility member: no domain, or one finite, half or fully infinite, or above
    the threshold."""
    price = draw(st.floats(0.5, 30.0))
    curvature = draw(st.floats(0.01, 3.0))
    thr = price / (2.0 * curvature)
    kind = "none" if not bounded else draw(st.sampled_from(
        ["finite", "zero_lower", "inf_lower", "inf_upper", "inf_both", "above"]))
    if kind == "none":
        domain = None
    elif kind == "above":
        lo = thr * draw(st.floats(1.0, 3.0)) + draw(st.floats(0.0, 1.0))
        domain = BoxSet([lo], [lo + draw(st.floats(0.0, 20.0))])
    else:
        lo = draw(st.one_of(signed_zero, st.floats(-20.0, thr)))
        hi = max(lo, draw(st.floats(0.0, 2.5 * thr)))
        lo, hi = {"finite": (lo, hi), "zero_lower": (draw(signed_zero), hi),
                  "inf_lower": (-INF, hi), "inf_upper": (lo, INF), "inf_both": (-INF, INF)}[kind]
        domain = BoxSet([lo], [hi])
    return SmoothConjugable(PiecewiseQuadraticUtility(price, curvature), domain)


def _near_ties(f, draw):
    """The slope that puts the quadratic branch's stationary point at 0.0, and
    slopes at which two candidates' objectives differ by about ``TIE_TOL``."""
    base, dom = f.base, f.effective_domain
    thr = base.price / (2.0 * base.curvature)
    points = {thr} | (set() if dom is None else {float(dom.lower[0]), float(dom.upper[0])})
    points = sorted(x for x in points if np.isfinite(x))
    if len(points) < 2:
        return [-base.price]
    a, b = draw(st.sampled_from(list(itertools.permutations(points, 2))))
    value = float(base.value([a])) - float(base.value([b]))
    gap = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])) * TIE_TOL
    s = (value + gap) / (a - b)
    if not np.isfinite(s):  # a pair a subnormal apart; a run never passes an infinite u
        return [-base.price]
    return [-base.price, s, np.nextafter(s, INF), np.nextafter(s, -INF)]


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_utility_argmax_matches_the_former_formulas(bounded, data):
    # a group's members share domain presence, as the compiled groups do
    members = data.draw(st.lists(utilities(bounded), min_size=1, max_size=4))
    stacked = group(members)
    n = len(members)
    slopes = data.draw(st.lists(st.one_of(finite, signed_zero), min_size=n, max_size=n))
    tie = data.draw(st.integers(0, n - 1))
    for s in _near_ties(members[tie], data.draw) if data.draw(st.booleans()) else [None]:
        if s is not None:
            slopes[tie] = s
        u = np.array(slopes)[:, None]
        _agree(stacked, u)
        for f, ui in zip(members, u):
            _agree(f, ui)


def test_utility_argmax_where_a_near_tie_slope_is_infinite():
    # the draw two seeds shrank to: a domain [0, 5e-324], whose ends with the gap -2 TIE_TOL
    # give the slope (0 - 2 TIE_TOL) / -5e-324 = inf, and inf * 0 in the argmax
    f = SmoothConjugable(PiecewiseQuadraticUtility(1.0, 1.0), BoxSet([0.0], [5e-324]))
    picks = iter([(0.0, 5e-324), -2.0])  # _near_ties's two draws: the pair, then the gap
    slopes = _near_ties(f, lambda strategy: next(picks))
    assert slopes == [-1.0]
    for s in [0.0, *slopes]:
        _agree(group([f]), np.array([[s]]))
        _agree(f, np.array([s]))


@st.composite
def quadratics(draw, M, diagonal, boxed):
    if diagonal:
        curvature = draw(st.lists(st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.0, -1.0])),
                                  min_size=M, max_size=M))
    else:  # positive definite, off-diagonal unless R R' cancels the 0.5
        R = np.array(draw(st.lists(finite, min_size=M * M, max_size=M * M))).reshape(M, M)
        curvature = R @ R.T + 0.5 * np.eye(M) + 0.5
    linear = draw(st.lists(st.one_of(finite, signed_zero), min_size=M, max_size=M))
    offset = draw(st.one_of(finite, signed_zero))
    base = QuadraticFunction(np.asarray(curvature, dtype=float), linear, offset)
    domain = None
    if boxed and diagonal:  # a dense curvature in a box is refused when built
        lo = draw(st.lists(st.one_of(signed_zero, st.floats(-10.0, 0.0)), min_size=M, max_size=M))
        domain = BoxSet(lo, [x + draw(st.one_of(signed_zero, st.floats(0.0, 10.0))) for x in lo])
    return SmoothConjugable(base, domain)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.booleans(), st.data())
def test_quadratic_argmax_and_value_match_the_former_formulas(M, diagonal, boxed, data):
    diagonal = diagonal or M == 1
    members = data.draw(st.lists(quadratics(M, diagonal, boxed), min_size=1, max_size=4))
    stacked = group(members)
    n = len(members)
    vector = st.lists(st.one_of(finite, signed_zero), min_size=n * M, max_size=n * M)
    u = np.reshape(data.draw(vector), (n, M))
    x = np.reshape(data.draw(vector), (n, M))
    _agree(stacked, u)
    _agree(stacked, u)  # a bound positivity verdict raises again
    assert (np.asarray(stacked.value(x)).tobytes()
            == np.asarray(reference_quadratic_value(stacked.base, x)).tobytes())
    for f, ui, xi in zip(members, u, x):
        _agree(f, ui)
        got, want = f.value(xi), reference_quadratic_value(f.base, xi)
        assert type(got) is type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_a_dense_quadratic_in_a_box_is_refused(M, data):
    # why :func:`quadratics` draws a domain only for a diagonal curvature
    base = data.draw(quadratics(M, False, False)).base
    assume(not base.is_diagonal)
    with pytest.raises(ValueError, match="^smooth quadratic in a box needs diagonal curvature$"):
        SmoothConjugable(base, data.draw(boxes(M)))


@pytest.mark.parametrize("x", [0.0, -0.0])
@pytest.mark.parametrize("curvature", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("linear", [1.0, -1.0, 0.0, -0.0])
@pytest.mark.parametrize("offset", [0.0, -0.0])
def test_scalar_quadratic_value_keeps_the_sign_of_zero(x, curvature, linear, offset):
    # every way the 1x1 value can come out as a zero, against the full sums
    q = QuadraticFunction(np.array([[curvature]]), [linear], offset)
    got, want = q.value([x]), reference_quadratic_value(q, [x])
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_utility_argmax_broadcasts_a_batch_of_slopes(bounded, data):
    # one member, or a group, at several slopes at once: the bound constants
    # broadcast to the batch as the per-call formulas did
    members = data.draw(st.lists(utilities(bounded), min_size=1, max_size=3))
    f = members[0] if len(members) == 1 else group(members)
    n = len(members)
    k = data.draw(st.integers(1, 4))
    slopes = data.draw(st.lists(st.one_of(finite, signed_zero), min_size=k * n, max_size=k * n))
    u = np.reshape(slopes, (k, n, 1) if n > 1 else (k, 1))
    got = _outcome(conjugate_argmax, f, u)
    assert got == _outcome(reference_conjugate_argmax, f, u)
    if not isinstance(got, type):
        assert conjugate_argmax(f, u).shape == u.shape


@st.composite
def boxes(draw, M):
    """A box whose ends may be infinite, or one point wide."""
    lower = draw(st.lists(st.one_of(signed_zero, st.floats(-10.0, 10.0), st.just(-INF)),
                          min_size=M, max_size=M))
    return BoxSet(lower, [max(lo, draw(st.one_of(signed_zero, st.floats(-10.0, 10.0),
                                                 st.just(INF)))) for lo in lower])


@st.composite
def nonsmooth_parts(draw, kind, M, boxed, diagonal):
    box = draw(boxes(M)) if boxed else None
    if kind == "quadratic":  # a box needs a diagonal curvature
        return ProxFriendlyFunction.quadratic(
            draw(quadratics(M, diagonal or boxed, False)).base, box)
    weight = draw(st.one_of(signed_zero, st.floats(0.0, 5.0)))
    return ProxFriendlyFunction(kind, weight if kind == "l1" else 0.0, box=box)


def _same(a, b):
    """The same class, and every field of the same type, dtype, shape and bits."""
    assert type(a) is type(b)
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if hasattr(x, "__dataclass_fields__"):
            _same(x, y)
        else:
            assert type(x) is type(y)
            if x is None or isinstance(x, str):
                assert x == y
            else:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["f:quadratic", "f:utility", "g:zero", "g:l1", "g:quadratic"]),
       st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_group_matches_the_stack_constructors(part, M, n, boxed, diagonal, data):
    # a group's members share a kind and which parts they have, as the
    # compiled groups' keys make them
    if part == "f:quadratic":
        member = quadratics(M, diagonal or M == 1, boxed)
    elif part == "f:utility":
        member = utilities(boxed)
    else:
        member = nonsmooth_parts(part[2:], M, boxed, diagonal or M == 1)
    members = [data.draw(member) for _ in range(n)]
    grouped = group(members)
    _same(grouped, reference_group(members))
    if part.startswith("f:"):  # the derived sigma: a batched eigvalsh is the per-member one
        sigma = grouped.strong_convexity
        assert sigma.tobytes() == np.array([m.strong_convexity for m in members]).tobytes()


def _unsigned_zeros(outcome):
    """An outcome of :func:`_outcome` with every -0 made +0."""
    return outcome if isinstance(outcome, type) else (np.frombuffer(outcome) + 0.0).tobytes()


@st.composite
def nonsmooth_quadratics(draw, M, curvature, boxed):
    """A nonsmooth quadratic whose curvature is positive definite and dense,
    diagonal with zero or negative entries now and then, or positive
    semidefinite with a zero row and column."""
    q = draw(quadratics(M, curvature != "dense", False)).base
    c = q.curvature
    if curvature == "singular":
        k = draw(st.integers(0, M - 1))
        c = c.copy()
        c[k, :] = c[:, k] = 0.0
    return ProxFriendlyFunction.quadratic(QuadraticFunction(c, q.linear, q.offset),
                                          draw(boxes(M)) if boxed else None)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["dense", "diagonal", "singular"]), st.booleans(),
       st.integers(0, 3), st.data())
def test_nonsmooth_quadratic_matches_its_former_argmax(M, curvature, boxed, n, data):
    # n = 0 draws a single member; a box needs a diagonal curvature
    boxed = boxed and curvature == "diagonal"
    members = [data.draw(nonsmooth_quadratics(M, curvature, boxed)) for _ in range(max(n, 1))]
    g = members[0] if n == 0 else group(members)
    v = np.reshape(data.draw(st.lists(st.one_of(finite, signed_zero), min_size=max(n, 1) * M,
                                      max_size=max(n, 1) * M)), g.quad.linear.shape)
    if not boxed and (np.diagonal(g.quad.curvature, axis1=-2, axis2=-1) < 0).any():
        # an indefinite curvature on all of space: the conjugate is +inf
        assert _outcome(g.conjugate_argmax, v) is UnboundedConjugateError
        assert _outcome(g.conjugate, v) is UnboundedConjugateError
        return
    got_x, want_x = _outcome(g.conjugate_argmax, v), _outcome(reference_g_quadratic_argmax, g, v)
    got, want = _outcome(g.conjugate, v), _outcome(reference_g_quadratic_conjugate, g, v)
    if curvature == "diagonal" and not boxed and M > 1:
        # the former LAPACK solve added 0 * y to each entry, which turns a
        # -0 into +0, where the division keeps the -0
        got_x, want_x, got, want = map(_unsigned_zeros, (got_x, want_x, got, want))
    assert got_x == want_x and got == want
    if n == 0 and not isinstance(got, type):
        assert type(g.conjugate(v)) is float


def test_an_indefinite_nonsmooth_quadratic_has_an_unbounded_conjugate():
    g = ProxFriendlyFunction.quadratic(QuadraticFunction([[1.0, 0.0], [0.0, -1.0]], [0.1, 0.2]))
    # the former argmax solved for the saddle point and gave a finite value
    assert reference_g_quadratic_conjugate(g, [1.0, 2.0]) == pytest.approx(-1.215)
    with pytest.raises(UnboundedConjugateError):
        g.conjugate([1.0, 2.0])


def test_a_singular_quadratic_has_an_unbounded_conjugate():
    # two equal rows: eigvalsh may put the least eigenvalue just above 0
    # (3e-15 with OpenBLAS), and then the solve finds the curvature singular
    q = QuadraticFunction([[8.0, 8.0, 6.0], [8.0, 8.0, 6.0], [6.0, 6.0, 5.0]], [0.0, 0.0, 0.0])
    g, v = ProxFriendlyFunction.quadratic(q), [1.0, 2.0, 3.0]
    assert _outcome(reference_g_quadratic_argmax, g, v) is UnboundedConjugateError
    assert _outcome(g.conjugate_argmax, v) is UnboundedConjugateError
    assert _outcome(g.conjugate, v) is UnboundedConjugateError
    assert _outcome(conjugate_argmax, SmoothConjugable(q), v) is UnboundedConjugateError


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(finite, signed_zero, st.floats(-1e300, 1e300)), max_size=90))
def test_sum_in_order_matches_a_plain_loop(values):
    want = 0.0
    for v in values:
        want += v
    got = sum_in_order(np.array(values))
    assert type(got) is float
    if np.isnan(want):  # inf - inf on the way; NaN bits are not compared
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("size", [1, 2, 100])
def test_sum_in_order_of_negative_zeros_is_positive_zero(size):
    assert np.signbit(sum_in_order(np.full(size, -0.0))) == np.signbit(0.0)
