import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dualprox import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    conjugate_argmax,
    conjugate_value,
    prox_conjugate_via_moreau,
)
from dualprox.convex import cached_property, group
from dualprox.errors import NonStronglyConvexError, UnboundedConjugateError
from dualprox.repro import catalog_samples, conjugate_prox_oracle


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        BoxSet([1.0], [0.0])


def test_box_membership_and_projection():
    box = BoxSet([0.0, 0.0], [3.0, 3.0])
    np.testing.assert_array_equal(BoxSet([0.0], [3.0]).project([5.0]), [3.0])
    np.testing.assert_array_equal(BoxSet([0.0], [3.0]).project([1.0]), [1.0])
    np.testing.assert_array_equal(box.project([-2.0, 4.0]), [0.0, 3.0])


def test_prox_l1_closed_form():
    np.testing.assert_allclose(ProxFriendlyFunction.l1(1.0).prox([2.0], 0.5), [1.5])
    np.testing.assert_allclose(ProxFriendlyFunction.l1(1.0).prox([0.3], 0.5), [0.0])
    np.testing.assert_allclose(ProxFriendlyFunction.l1(2.0).prox([-1.2, 0.0], 0.25), [-0.7, 0.0])


def test_prox_l1_against_numeric_minimization():
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = float(rng.uniform(-5, 5))
        alpha = float(rng.uniform(0.05, 3))
        w = float(rng.uniform(0, 2))
        res = minimize_scalar(lambda v: w * abs(v) + (v - u) ** 2 / (2 * alpha),
                              bounds=(-10, 10), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(ProxFriendlyFunction.l1(w).prox([u], alpha)[0] - res.x) < 1e-7


def test_l1_rejects_a_negative_weight():
    with pytest.raises(ValueError, match="l1 weight must be nonnegative"):
        ProxFriendlyFunction.l1(-1.0)
    with pytest.raises(ValueError, match="l1 weight must be nonnegative"):
        ProxFriendlyFunction.l1_plus_box(-1.0, BoxSet([0.0], [1.0]))


@pytest.mark.parametrize("make", [
    lambda: ProxFriendlyFunction.l1(float("nan")),
    lambda: ProxFriendlyFunction.l1_plus_box(float("nan"), BoxSet([0.0], [1.0])),
    lambda: BoxSet([float("nan")], [1.0]),
    lambda: BoxSet([0.0, 0.0], [1.0, float("nan")]),
])
def test_nan_is_refused_by_the_constructors(make):
    # NaN passed ``weight < 0`` and ``lower > upper``; a path with it ended in an infinite
    # Psi(lam(0)) or stopped "nonfinite" after one round, naming no agent
    with pytest.raises(ValueError, match="l1 weight must be nonnegative|lower <= upper"):
        make()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_coefficient_near_0_at_an_infinite_box_end_counts_as_0(sign):
    # a Moreau step leaves mu a few ulps past the l1 weight (or past 0 for an indicator); at
    # an infinite end (mu - w) * inf was +inf, and a converging run was read as diverged
    w = 0.33608200639766456
    l1 = ProxFriendlyFunction.l1_plus_box(w, BoxSet(*sorted([sign * -8.0, sign * np.inf])))
    indicator = ProxFriendlyFunction.indicator_box(BoxSet(*sorted([0.0, sign * np.inf])))
    for g, edge in ((l1, w), (indicator, 0.0)):
        assert g.conjugate([sign * (edge + 5.55e-17)]) == 0.0
        assert g.conjugate([sign * (edge + 1e-9)]) == np.inf
    assert l1.conjugate([sign * w]) == 0.0


def test_zero_in_a_box_is_unbounded_past_an_infinite_end():
    # the argmax returned the infinite end itself, so primal recovery reported z_hat = inf,
    # where the conjugate is +inf and l1 in the same box raises
    box = BoxSet([0.0], [np.inf])
    assert ProxFriendlyFunction.indicator_box(box).conjugate([1.0]) == np.inf
    with pytest.raises(UnboundedConjugateError):
        ProxFriendlyFunction.indicator_box(box).conjugate_argmax([1.0])


def test_l1_without_a_box_is_unbounded_where_its_argmax_is():
    # the conjugate tested |v| <= w + 1e-12 and the argmax w + 1e-12 (1 + |v| + w): just past
    # 1 + 1e-12 the conjugate was +inf while the argmax returned 0
    assert ProxFriendlyFunction.l1(1.0).conjugate([1.0 + 2e-12]) == 0.0
    assert ProxFriendlyFunction.l1(1.0).conjugate_argmax([1.0 + 2e-12]).tolist() == [0.0]


def test_prox_l1_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        ProxFriendlyFunction.l1().prox([1.0], 0.0)


@pytest.mark.parametrize("alpha", [0.0, -0.0, -1.0, float("nan")])
def test_prox_rejects_a_nonpositive_or_nan_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        ProxFriendlyFunction.l1().prox([1.0], alpha)
    with pytest.raises(ValueError, match="alpha must be positive"):
        group([ProxFriendlyFunction.zero()] * 2).prox(
            np.ones((2, 1)), np.broadcast_to(alpha, 2))


@pytest.mark.parametrize("g, u", [(ProxFriendlyFunction.l1(0.7), [1.0]),
                                  (group([ProxFriendlyFunction.zero()] * 2), np.ones((2, 1)))],
                         ids=["l1", "zero_group"])
def test_prox_checks_a_bad_alpha_after_keeping_the_terms_of_a_good_one(g, u):
    # the terms kept for the last alpha are no check of the next one, the identity prox's too
    kept = g.prox(u, 0.5)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError, match="alpha must be positive"):
            g.prox(u, alpha)
    np.testing.assert_array_equal(g.prox(u, 0.5), kept)


@pytest.mark.parametrize("alpha", [[0.5, 0.0], [0.0], [float("nan")], (1.0, -1.0)])
def test_prox_rejects_a_list_alpha_with_a_nonpositive_entry(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        ProxFriendlyFunction.l1().prox([1.0], alpha)


def test_prox_takes_a_positive_list_alpha_as_the_array():
    g = ProxFriendlyFunction.l1(1.0)
    np.testing.assert_array_equal(g.prox([2.0], [0.5]), g.prox([2.0], np.array([0.5])))
    np.testing.assert_array_equal(g.prox([2.0], [0.5]), [[1.5]])


@pytest.mark.parametrize("c", [0.0, -0.0, -2.0, float("nan"), float("inf"), [1.0, 0.0],
                               [float("nan"), 1.0], [1.0, -float("inf")]])
def test_prox_conjugate_via_moreau_rejects_a_bad_c(c):
    g = group([ProxFriendlyFunction.l1(1.0)] * 2)
    with pytest.raises(ValueError, match="c must be positive"):
        prox_conjugate_via_moreau(g, np.ones((2, 1)), np.broadcast_to(c, 2))
    if np.ndim(c) == 0:
        with pytest.raises(ValueError, match="c must be positive"):
            prox_conjugate_via_moreau(ProxFriendlyFunction.l1(1.0), [1.0], c)


def test_prox_conjugate_via_moreau_examples():
    np.testing.assert_allclose(
        prox_conjugate_via_moreau(ProxFriendlyFunction.l1(1.0), [2.0], 1.0), [1.0])
    np.testing.assert_allclose(
        prox_conjugate_via_moreau(
            ProxFriendlyFunction.indicator_box(BoxSet([0.0], [3.0])), [-1.0], 1.0),
        [-1.0])
    # l1 weight 1: conjugate is the indicator of [-1, 1], v inside stays put
    g = ProxFriendlyFunction.l1(1.0)
    np.testing.assert_allclose(prox_conjugate_via_moreau(g, [0.4], 2.0), [0.4])
    res = minimize_scalar(lambda w: (w - 0.4) ** 2 / 4.0, bounds=(-1, 1),
                          method="bounded", options={"xatol": 1e-12})
    assert abs(prox_conjugate_via_moreau(g, [0.4], 2.0)[0] - res.x) < 1e-7


def test_moreau_identity_against_independent_oracle():
    rng = np.random.default_rng(3)
    for g, u, alpha in catalog_samples(rng, 200):
        left = alpha * conjugate_prox_oracle(g, u / alpha, 1.0 / alpha)
        right = g.prox(u, alpha)
        np.testing.assert_allclose(left + right, u, atol=1e-9)


def test_conjugate_prox_oracle_matches_numeric_minimization():
    # validates the closed-form oracle itself on scalar cases
    rng = np.random.default_rng(11)
    for g, u, alpha in catalog_samples(rng, 80):
        if (g.box.dim if g.box is not None else 1) != 1:
            continue
        c = 1.0 / alpha
        v = u[:1] / alpha
        lo, hi = -50.0, 50.0
        if g.kind == "zero" and g.box is None:
            continue  # conjugate is the indicator of the origin
        if g.kind == "l1" and g.box is None:
            lo, hi = -g.weight, g.weight
        res = minimize_scalar(
            lambda w: g.conjugate(np.array([w])) + (w - v[0]) ** 2 / (2 * c),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
        assert abs(conjugate_prox_oracle(g, v, c)[0] - res.x) < 1e-6


def test_prox_nonexpansive_across_catalog():
    rng = np.random.default_rng(5)
    for g, _, alpha in catalog_samples(rng, 150):
        dim = g.box.dim if g.box is not None else 1
        u, v = rng.uniform(-12, 12, (2, dim))
        du = np.linalg.norm(g.prox(u, alpha) - g.prox(v, alpha))
        assert du <= np.linalg.norm(u - v) + 1e-12


def test_quadratic_scalar_curvature_promotion():
    f = QuadraticFunction(2.0, [1.0], 0.5)
    assert f.value([2.0]) == pytest.approx(0.5 * 2 * 4 + 2 + 0.5)
    assert f.strong_convexity == pytest.approx(2.0)


def test_quadratic_rejects_asymmetric_curvature():
    with pytest.raises(ValueError):
        QuadraticFunction([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])


def _builds(curvature) -> bool:
    try:
        QuadraticFunction(curvature, np.zeros(curvature.shape[:-1]))
    except ValueError:
        return False
    return True


def test_quadratic_symmetry_check_matches_isclose():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFunction([[np.nan]], [0.0])
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFunction([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0])
    special = [0.0, -0.0, 1e-11, -1e-11, 1e-10, 3e-10, 1.0, 1.0 + 1e-6, 1.0 + 2e-5,
               1e6, 1e6 + 5.0, 1e6 + 20.0, 1e308, -1e308, 5e-324, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(3)
    pairs = [(x, y) for x in special for y in special]
    base = rng.normal(size=200)
    pairs += list(zip(base, base + rng.normal(size=200) * 10.0 ** rng.uniform(-14, 0, 200)))
    seen = set()
    for x, y in pairs:
        curvature = np.array([[2.0, x], [y, 2.0]])
        with np.errstate(all="ignore"):
            expected = bool(np.allclose(curvature, curvature.T, atol=1e-10))
        assert _builds(curvature) == expected, (x, y)
        seen.add(expected)
    assert seen == {True, False}
    # a stack is checked member by member
    assert _builds(np.array([[[1.0, 0.5], [0.5, 1.0]], [[1.0, 1e6], [1e6 + 5.0, 1.0]]]))
    assert not _builds(np.array([[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [1e-9, 1.0]]]))


def test_scalar_strong_convexity_equals_eigvalsh_bitwise():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, np.inf, -np.inf],
        rng.normal(size=500) * np.exp(rng.uniform(-700.0, 700.0, 500))])
    for v in values:
        sigma = QuadraticFunction(v, [0.0]).strong_convexity
        assert isinstance(sigma, float)
        assert np.float64(sigma).tobytes() == np.linalg.eigvalsh([[v]])[0].tobytes()
    stacked = group([QuadraticFunction(v, [0.0]) for v in values])
    assert stacked.strong_convexity.tobytes() == \
        np.linalg.eigvalsh(values[:, None, None])[:, 0].tobytes()
    assert stacked.is_diagonal and QuadraticFunction(-1.0, [0.0]).is_diagonal
    full = QuadraticFunction([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.0])
    assert full.strong_convexity == np.linalg.eigvalsh(full.curvature)[0]
    assert not full.is_diagonal


def test_utility_threshold_and_smooth_join():
    f = PiecewiseQuadraticUtility(12.28, 0.0417)
    thr = 12.28 / (2 * 0.0417)
    assert f.threshold == pytest.approx(thr)
    # continuous with zero slope on both sides of the threshold
    eps = 1e-7
    assert f.value([thr - eps]) == pytest.approx(f.value([thr + eps]), abs=1e-10)
    left = (f.value([thr]) - f.value([thr - eps])) / eps
    right = (f.value([thr + eps]) - f.value([thr])) / eps
    assert abs(left) < 1e-5 and abs(right) < 1e-5


def test_utility_value_far_past_the_threshold_is_flat_without_overflow():
    # the quadratic branch that np.where drops would square 1e200
    f = PiecewiseQuadraticUtility(17.17, 0.0935)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert f.value([1e200]) == f.value([1e308]) == f._flat_value
        on_box = SmoothConjugable(f, BoxSet([0.0], [1e200]))  # its argmax values the end 1e200
        assert np.isfinite(conjugate_value(on_box, [-1.0]))


def test_utility_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PiecewiseQuadraticUtility(-1.0, 0.1)
    with pytest.raises(ValueError):
        PiecewiseQuadraticUtility(1.0, 0.0)


def test_conjugate_argmax_quadratic_all_space():
    f = SmoothConjugable(QuadraticFunction(2.0, [1.0]))
    np.testing.assert_allclose(conjugate_argmax(f, [5.0]), [2.0])


def test_conjugate_argmax_clamps_at_bound():
    f = SmoothConjugable(QuadraticFunction(2 * 0.0074, [3.53]), BoxSet([0.0], [150.0]))
    np.testing.assert_allclose(conjugate_argmax(f, [3.53]), [0.0])


def test_conjugate_argmax_utility_vs_golden_section():
    base = PiecewiseQuadraticUtility(12.28, 0.0417)
    f = SmoothConjugable(base, BoxSet([0.0], [147.29]))
    for u in (0.1, -0.5, -6.0, -12.3, 2.0):
        lo, hi = 0.0, 147.29
        obj = lambda x: u * x - base.value([x])
        # golden-section search on the concave objective
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        for _ in range(200):
            if obj(c1) < obj(c2):
                a, c1 = c1, c2
                c2 = a + phi * (b - a)
            else:
                b, c2 = c2, c1
                c1 = b - phi * (b - a)
        x_gold = 0.5 * (a + b)
        x_pkg = conjugate_argmax(f, [u])[0]
        assert obj(x_pkg) >= obj(x_gold) - 1e-10
        assert abs(x_pkg - x_gold) < 1e-5


def test_conjugate_argmax_unbounded_flat_branch():
    f = SmoothConjugable(PiecewiseQuadraticUtility(10.0, 0.1))
    with pytest.raises(UnboundedConjugateError):
        conjugate_argmax(f, [0.5])
    assert conjugate_value(f, [0.5]) == float("inf")


def test_conjugate_argmax_flat_branch_unbounded_above_a_finite_lower_end():
    f = SmoothConjugable(PiecewiseQuadraticUtility(1.0, 1.0), BoxSet([0.0], [float("inf")]))
    with pytest.raises(UnboundedConjugateError):
        conjugate_argmax(f, [0.5])
    assert conjugate_value(f, [0.5]) == float("inf")
    # no positive slope, a finite sup: the threshold, or the quadratic branch
    np.testing.assert_array_equal(conjugate_argmax(f, [0.0]), [0.5])
    np.testing.assert_array_equal(conjugate_argmax(f, [-0.5]), [0.25])
    # in a group only a member with an infinite upper end and a positive slope is unbounded
    bounded = SmoothConjugable(PiecewiseQuadraticUtility(1.0, 1.0), BoxSet([0.0], [2.0]))
    pair = group([f, bounded])
    np.testing.assert_array_equal(conjugate_argmax(pair, [[-0.5], [0.5]]), [[0.25], [2.0]])
    with pytest.raises(UnboundedConjugateError):
        conjugate_argmax(pair, [[0.5], [-0.5]])


def test_conjugate_value_examples():
    assert conjugate_value(SmoothConjugable(QuadraticFunction(1.0, [0.0])), [0.0]) == 0.0
    assert conjugate_value(SmoothConjugable(QuadraticFunction(2.0, [1.0])), [5.0]) == pytest.approx(4.0)


def test_conjugate_value_utility_vs_dense_grid():
    base = PiecewiseQuadraticUtility(17.17, 0.0935)
    f = SmoothConjugable(base, BoxSet([0.0], [91.79]))
    u = -17.17
    xs = np.arange(0.0, 91.79 + 1e-4, 1e-4)
    vals = u * xs - (np.where(xs <= base.threshold,
                              base.curvature * xs**2 - base.price * xs,
                              -base.price**2 / (4 * base.curvature)))
    assert conjugate_value(f, [u]) == pytest.approx(float(vals.max()), abs=1e-6)


def test_conjugate_gradient_lipschitz_small_sample():
    f = SmoothConjugable(QuadraticFunction(2.0, [1.0]), BoxSet([-4.0], [4.0]))
    rng = np.random.default_rng(9)
    for _ in range(100):
        u, v = rng.uniform(-20, 20, 2)
        du = abs(conjugate_argmax(f, [u])[0] - conjugate_argmax(f, [v])[0])
        assert du <= abs(u - v) / f.strong_convexity + 1e-12


def test_prox_friendly_values_and_conjugates():
    g = ProxFriendlyFunction.l1_plus_box(1.5, BoxSet([-2.0], [3.0]))
    assert g.conjugate([2.0]) == pytest.approx(2.0 * 3.0 - 1.5 * 3.0)  # at the upper end
    # conjugate of zero on all of space is the indicator of the origin
    z = ProxFriendlyFunction.zero()
    assert z.conjugate([0.0]) == 0.0
    assert z.conjugate([0.1]) == float("inf")
    l1 = ProxFriendlyFunction.l1(1.0)
    assert l1.conjugate([0.9]) == 0.0
    assert l1.conjugate([1.5]) == float("inf")


def test_argmax_tie_breaks_toward_reference():
    g = ProxFriendlyFunction.indicator_box(BoxSet([0.0], [5.0]))
    np.testing.assert_allclose(g.conjugate_argmax([0.0], ref=[2.5]), [2.5])
    np.testing.assert_allclose(g.conjugate_argmax([0.0], ref=[9.0]), [5.0])
    np.testing.assert_allclose(g.conjugate_argmax([1.0], ref=[2.5]), [5.0])


def test_with_box_intersects_existing_box():
    g = ProxFriendlyFunction.l1_plus_box(1.0, BoxSet([-2.0], [4.0]))
    gg = g.with_box(BoxSet([0.0], [10.0]))
    np.testing.assert_array_equal(gg.box.lower, [0.0])
    np.testing.assert_array_equal(gg.box.upper, [4.0])


def test_with_box_keeps_its_own_box_object():
    box = BoxSet([-0.0], [4.0])
    g = ProxFriendlyFunction.indicator_box(box)
    assert g.with_box(box) is g and g.with_box(None) is g
    # an equal box that is another object is intersected, as before
    other = g.with_box(BoxSet([0.0], [4.0]))
    assert other is not g and other.box is not box


def test_cached_property_computes_once_into_the_instance_dict():
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: float

        @cached_property
        def doubled(self):
            """Twice ``x``."""
            calls.append(self.x)
            return 2.0 * self.x

    a, b = Frozen(1.5), Frozen(4.0)
    assert Frozen.doubled is Frozen.__dict__["doubled"]
    assert Frozen.doubled.__doc__ == "Twice ``x``."
    assert (a.doubled, a.doubled, b.doubled) == (3.0, 3.0, 8.0)
    assert calls == [1.5, 4.0]
    assert a.__dict__["doubled"] == 3.0 and "doubled" not in dataclasses.asdict(a)


def _conjugates_one_by_one(g, vs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # 0 * inf, inf - inf
        return [g.conjugate([v]) for v in vs]


INF_BOXES = {"line": (-np.inf, np.inf), "ray_up": (0.0, np.inf), "ray_down": (-np.inf, 0.0)}


@pytest.mark.parametrize("name", sorted(INF_BOXES))
def test_support_function_of_a_box_with_an_infinite_end(name):
    # sup over the box of v x: 0 where v = 0 or v points away from every
    # infinite end, +inf where it points toward one
    lo, hi = INF_BOXES[name]
    vs = [-2.0, -0.0, 0.0, 3.0]
    want = [np.inf if (v < 0 and lo == -np.inf) or (v > 0 and hi == np.inf) else 0.0
            for v in vs]
    g = ProxFriendlyFunction.indicator_box(BoxSet([lo], [hi]))
    assert _conjugates_one_by_one(g, vs) == want


@pytest.mark.parametrize("name", sorted(INF_BOXES))
def test_l1_plus_box_conjugate_with_an_infinite_end(name):
    # sup over the box of v x - w |x|, w = 1.5: +inf where |v| > w toward an
    # infinite end, else 0 (the box holds x = 0)
    lo, hi = INF_BOXES[name]
    vs = [-4.0, -1.5, -1.0, 0.0, 1.0, 1.5, 4.0]
    want = [np.inf if (v < -1.5 and lo == -np.inf) or (v > 1.5 and hi == np.inf) else 0.0
            for v in vs]
    g = ProxFriendlyFunction.l1_plus_box(1.5, BoxSet([lo], [hi]))
    assert _conjugates_one_by_one(g, vs) == want


@pytest.mark.parametrize("kind", ["zero", "l1"])
def test_a_group_with_infinite_box_ends_matches_its_members(kind):
    # each member has an infinite end, so each takes the same formulas alone
    boxes = [BoxSet([lo, -1.0], [hi, 2.0]) for lo, hi in INF_BOXES.values()]
    members = [ProxFriendlyFunction.l1_plus_box(0.5 * i, box) if kind == "l1"
               else ProxFriendlyFunction.indicator_box(box) for i, box in enumerate(boxes)]
    grouped = group(members)
    rng = np.random.default_rng(7)
    for v in [np.zeros((3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)).round()]:
        want = [m.conjugate(row) for m, row in zip(members, v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = grouped.conjugate(v)
        assert got.tolist() == want


def test_finite_box_conjugates_keep_their_products():
    # a finite box keeps v * e and v * e - w |e| as they were, signed zeros included
    lo, hi = np.array([-0.0, -2.0, 0.5]), np.array([0.0, 3.0, 1.5])
    v = np.array([-1.25, 0.0, -0.0])
    box = BoxSet(lo, hi)
    want_zero = np.maximum(v * lo, v * hi).sum()
    want_l1 = np.maximum(v * lo - 0.25 * np.abs(lo), v * hi - 0.25 * np.abs(hi))
    want_l1 = np.where((lo <= 0) & (hi >= 0), np.maximum(want_l1, 0.0), want_l1).sum()
    got_zero = ProxFriendlyFunction.indicator_box(box).conjugate(v)
    got_l1 = ProxFriendlyFunction.l1_plus_box(0.25, box).conjugate(v)
    assert np.float64(got_zero).tobytes() == want_zero.tobytes()
    assert np.float64(got_l1).tobytes() == want_l1.tobytes()


def test_box_domain_argmax_needs_positive_diagonal_curvature():
    box = BoxSet([0.0, 0.0], [1.0, 1.0])
    coupled = SmoothConjugable(QuadraticFunction([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0]), box)
    with pytest.raises(NonStronglyConvexError):
        conjugate_argmax(coupled, [1.0, 1.0])
    flat = ProxFriendlyFunction.quadratic(QuadraticFunction([0.0], [0.0]), BoxSet([0.0], [1.0]))
    with pytest.raises(NonStronglyConvexError):
        flat.conjugate_argmax([1.0])
