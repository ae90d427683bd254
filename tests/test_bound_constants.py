"""The catalog kernels with bound constants against their former formulas, bit for bit.

Each group binds what does not depend on its argument once (the utility's
clamped threshold, endpoints and their values, the quadratic's diagonal and
its positivity).  The references in ``dense_reference`` recompute everything
on each call, as the kernels did before; results must agree in every bit,
signed zeros included, and both must raise the same error.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import (
    BoxSet,
    PiecewiseQuadraticUtility,
    QuadraticFunction,
    SmoothConjugable,
    conjugate_argmax,
)
from dualprox.errors import DualproxError
from dualprox.model import sum_in_order

from dense_reference import (
    reference_conjugate_argmax,
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
    return [-base.price, s, np.nextafter(s, INF), np.nextafter(s, -INF)]


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_utility_argmax_matches_the_former_formulas(bounded, data):
    # a group's members share domain presence, as the compiled groups do
    members = data.draw(st.lists(utilities(bounded), min_size=1, max_size=4))
    group = SmoothConjugable.stack(members)
    n = len(members)
    slopes = data.draw(st.lists(st.one_of(finite, signed_zero), min_size=n, max_size=n))
    tie = data.draw(st.integers(0, n - 1))
    for s in _near_ties(members[tie], data.draw) if data.draw(st.booleans()) else [None]:
        if s is not None:
            slopes[tie] = s
        u = np.array(slopes)[:, None]
        _agree(group, u)
        for f, ui in zip(members, u):
            _agree(f, ui)


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
    if boxed:
        lo = draw(st.lists(st.one_of(signed_zero, st.floats(-10.0, 0.0)), min_size=M, max_size=M))
        domain = BoxSet(lo, [x + draw(st.one_of(signed_zero, st.floats(0.0, 10.0))) for x in lo])
    return SmoothConjugable(base, domain)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]), st.booleans(), st.booleans(), st.data())
def test_quadratic_argmax_and_value_match_the_former_formulas(M, diagonal, boxed, data):
    diagonal = diagonal or M == 1
    members = data.draw(st.lists(quadratics(M, diagonal, boxed), min_size=1, max_size=4))
    group = SmoothConjugable.stack(members)
    n = len(members)
    vector = st.lists(st.one_of(finite, signed_zero), min_size=n * M, max_size=n * M)
    u = np.reshape(data.draw(vector), (n, M))
    x = np.reshape(data.draw(vector), (n, M))
    _agree(group, u)
    _agree(group, u)  # a bound positivity verdict raises again
    assert (np.asarray(group.value(x)).tobytes()
            == np.asarray(reference_quadratic_value(group.base, x)).tobytes())
    for f, ui, xi in zip(members, u, x):
        _agree(f, ui)
        got, want = f.value(xi), reference_quadratic_value(f.base, xi)
        assert type(got) is type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    f = members[0] if len(members) == 1 else SmoothConjugable.stack(members)
    n = len(members)
    k = data.draw(st.integers(1, 4))
    slopes = data.draw(st.lists(st.one_of(finite, signed_zero), min_size=k * n, max_size=k * n))
    u = np.reshape(slopes, (k, n, 1) if n > 1 else (k, 1))
    got = _outcome(conjugate_argmax, f, u)
    assert got == _outcome(reference_conjugate_argmax, f, u)
    if not isinstance(got, type):
        assert conjugate_argmax(f, u).shape == u.shape


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
