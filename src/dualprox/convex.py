"""Catalog of convex functions with exact proximal mappings and conjugates.

Every function here is separable or small enough for closed-form algebra:
quadratics, the piecewise-quadratic negated utility used by energy users,
l1 penalties, and box indicators.  Each catalog entry exposes

* an exact proximal mapping,
* an exact conjugate value (extended real, ``inf`` when the sup diverges),
* and, for strongly convex smooth parts, the conjugate gradient as an
  argmax oracle.

Every entry also works as a *group*: ``stack`` builds one catalog object
whose parameters hold the parameters of several members of one kind along
a leading axis.  A group takes and returns the members' vectors stacked
``(n, M)``, and its values and conjugates hold one entry per member.  The
members are separable, so a group's prox or argmax is the stack of the
members' results, bit for bit.  A single member keeps its float API.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonStronglyConvexError, UnboundedConjugateError

INF = float("inf")

# absolute tolerance for "is this multiplier exactly zero" style tests on
# quantities produced by floating-point cancellation
_ZERO_ATOL = 1e-12

# objective ties closer than this pick the smaller candidate point
_TIE_TOL = 1e-12


def _vec(u) -> np.ndarray:
    if type(u) is np.ndarray and u.dtype == np.float64 and u.ndim:
        return u  # what the conversion below returns, without its cost
    return np.atleast_1d(np.asarray(u, dtype=float))


def _col(a) -> np.ndarray:
    """Per-member scalars as a column that broadcasts against member vectors."""
    return np.asarray(a, dtype=float)[..., None]


def _per_member(values):
    """A float for a single member, the array of member values for a group."""
    if isinstance(values, np.ndarray) and values.ndim:
        return values
    return float(values)


def _isclose_all(x, y) -> bool:
    """``np.allclose(x, y, atol=1e-10)``: equal infinities pass, NaN fails.

    Exactly equal arrays, the usual case, cost one comparison.
    """
    close = x == y
    if close.all():
        return True
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
        close |= (np.abs(x - y) <= 1e-10 + 1e-5 * np.abs(y)) & np.isfinite(y)
    return bool(close.all())


def _all_positive(values) -> bool:
    # a float compares directly; a reduction over a 0-d array costs microseconds
    return values > 0 if isinstance(values, (int, float)) else bool((np.asarray(values) > 0).all())


# ---------------------------------------------------------------------------
# basic sets and smooth bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box ``[lower, upper]`` with componentwise membership."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _vec(self.lower)
        hi = _vec(self.upper)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal shapes")
        if (lo > hi).any():
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @staticmethod
    def stack(boxes) -> "BoxSet":
        return BoxSet(np.array([b.lower for b in boxes]), np.array([b.upper for b in boxes]))

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    def contains(self, u):
        u = _vec(u)
        inside = np.all((u >= self.lower) & (u <= self.upper), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def project(self, u) -> np.ndarray:
        return _vec(u).clip(self.lower, self.upper)  # np.clip's own method, without its dispatch


@dataclass(frozen=True)
class QuadraticFunction:
    """``x -> 0.5 x'Cx + q'x + r`` with symmetric PSD curvature ``C``.

    A scalar curvature ``2*kappa`` reproduces the one-dimensional cost
    ``kappa x^2 + q x + r``.
    """

    curvature: np.ndarray
    linear: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        q = _vec(self.linear)
        c = np.asarray(self.curvature, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1, 1)
        elif c.ndim == 1:
            c = np.diag(c)
        if c.shape != q.shape + q.shape[-1:]:
            raise ValueError("curvature/linear dimension mismatch")
        if not _isclose_all(c, c.swapaxes(-1, -2)):
            raise ValueError("curvature must be symmetric")
        object.__setattr__(self, "curvature", c)
        object.__setattr__(self, "linear", q)
        object.__setattr__(self, "offset", _per_member(self.offset))

    @staticmethod
    def stack(quads) -> "QuadraticFunction":
        return QuadraticFunction(np.array([q.curvature for q in quads]),
                                 np.array([q.linear for q in quads]),
                                 np.array([q.offset for q in quads]))

    @property
    def dim(self) -> int:
        return self.linear.shape[-1]

    @functools.cached_property
    def strong_convexity(self):
        c = self.curvature
        if c.shape[-1] == 1:  # the entry, as eigvalsh returns it bit for bit
            return _per_member(c[..., 0, 0])
        return _per_member(np.linalg.eigvalsh(c)[..., 0])

    @functools.cached_property
    def is_diagonal(self) -> bool:
        c = self.curvature
        return c.shape[-1] == 1 or bool(np.allclose(c, c * np.eye(c.shape[-1])))

    @functools.cached_property
    def _strongly_convex(self) -> bool:
        return _all_positive(self.strong_convexity)

    @functools.cached_property
    def _diagonal(self) -> np.ndarray:
        return np.diagonal(self.curvature, axis1=-2, axis2=-1).copy()

    @functools.cached_property
    def _positive_diagonal(self) -> bool:
        return bool((self._diagonal > 0).all())

    def value(self, x):
        x = _vec(x)
        if self.curvature.shape[-1] == 1:
            # the sums below over one term each add 0.0 to it, which only
            # turns -0.0 into 0.0; adding 0.0 once to their sum does the same
            return _per_member((0.5 * x * self._diagonal * x + self.linear * x)[..., 0]
                               + 0.0 + self.offset)
        half_xC = ((0.5 * x)[..., :, None] * self.curvature).sum(axis=-2)
        return _per_member((half_xC * x).sum(axis=-1) + (self.linear * x).sum(axis=-1)
                           + self.offset)


@dataclass(frozen=True)
class PiecewiseQuadraticUtility:
    """Negated saturating utility ``-U`` with ``U(x) = pi*x - varsigma*x^2``.

    Equals ``varsigma x^2 - pi x`` up to the saturation threshold
    ``pi / (2 varsigma)`` and is constant ``-pi^2/(4 varsigma)`` beyond it.
    Convex, continuously differentiable at the threshold, scalar only.
    """

    price: float
    curvature: float

    def __post_init__(self):
        price, curvature = _per_member(self.price), _per_member(self.curvature)
        if not (_all_positive(price) and _all_positive(curvature)):
            raise ValueError("price and curvature must be positive")
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "curvature", curvature)

    @staticmethod
    def stack(utilities) -> "PiecewiseQuadraticUtility":
        return PiecewiseQuadraticUtility(np.array([u.price for u in utilities]),
                                         np.array([u.curvature for u in utilities]))

    @property
    def dim(self) -> int:
        return 1

    @functools.cached_property
    def threshold(self):
        return self.price / (2.0 * self.curvature)

    @functools.cached_property
    def _flat_value(self):
        # float_power is C pow, as ``price**2`` on a float; x*x differs in the
        # last bit now and then
        return -np.float_power(self.price, 2) / (4.0 * self.curvature)

    def value(self, x):
        return _per_member(self._branch_value(_vec(x)[..., 0]))

    def _branch_value(self, x):
        """The value at scalars ``x`` whose trailing axes are the members'."""
        return np.where(x <= self.threshold, self.curvature * x * x - self.price * x,
                        self._flat_value)


@dataclass(frozen=True)
class SmoothConjugable:
    """A smooth base restricted to an effective domain, with argmax oracle.

    The domain restriction keeps the conjugate argmax unique even when the
    base is only strongly convex on part of its range (the saturating
    utility has a flat branch).  ``strong_convexity`` defaults to the base's
    quadratic curvature; for the piecewise utility it is the quadratic-branch
    value ``2*varsigma``, an estimate valid where the maximizer lives.
    """

    base: QuadraticFunction | PiecewiseQuadraticUtility
    effective_domain: BoxSet | None = None
    strong_convexity: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        sigma = self.strong_convexity
        if sigma is None:
            if isinstance(self.base, QuadraticFunction):
                sigma = self.base.strong_convexity
            else:
                sigma = 2.0 * self.base.curvature
        object.__setattr__(self, "strong_convexity", _per_member(sigma))
        if self.effective_domain is not None and self.effective_domain.dim != self.base.dim:
            raise ValueError("effective domain dimension mismatch")

    @staticmethod
    def stack(fs) -> "SmoothConjugable":
        """One group of smooth parts with the same base kind and domain presence."""
        domain = None
        if fs[0].effective_domain is not None:
            domain = BoxSet.stack([f.effective_domain for f in fs])
        return SmoothConjugable(type(fs[0].base).stack([f.base for f in fs]), domain,
                                np.array([f.strong_convexity for f in fs]))

    @property
    def dim(self) -> int:
        return self.base.dim

    def value(self, x):
        return self.base.value(x)

    @functools.cached_property
    def _utility_candidates(self):
        """What the utility's argmax needs that does not depend on the slope.

        ``(lo, lo_inf, any_lo_inf, hi_inf, any_hi_inf, x_thr, two_curv,
        cand_rows)``: the domain's lower ends, where they are infinite and
        whether any is, the same two for the upper ends, the threshold
        clamped into the domain, ``2 curvature``, and in
        ``cand_rows`` the four candidates of :func:`conjugate_argmax` (lower
        end, quadratic branch, threshold, upper end) over their branch
        values.  Candidate 1, and candidate 0 where ``lo`` is infinite, are
        placeholders the slope replaces; each placeholder and each infinite
        end is stood in for by ``x_thr``, so no constant is computed from an
        infinity.
        """
        base, dom = self.base, self.effective_domain
        shape = np.shape(base.threshold)
        lo = np.full(shape, -INF) if dom is None else dom.lower[..., 0]
        hi = np.full(shape, INF) if dom is None else dom.upper[..., 0]
        x_thr = np.minimum(np.maximum(base.threshold, lo), hi)
        ends = np.array([lo, x_thr, x_thr, hi])
        inf = np.isinf(ends)
        cand_x = np.where(inf, x_thr, ends)
        return (lo, inf[0], bool(inf[0].any()), inf[3], bool(inf[3].any()), x_thr,
                2.0 * base.curvature, np.array([cand_x, base._branch_value(cand_x)]))


# ---------------------------------------------------------------------------
# prox-friendly nonsmooth catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxFriendlyFunction:
    """A nonsmooth catalog entry with exact prox and conjugate formulas.

    Internally every entry is one of ``zero``, ``l1`` or ``quadratic``
    optionally intersected with a box; the public constructors mirror the
    usual naming (``indicator_box`` is ``zero`` + box, ``l1_plus_box`` is
    ``l1`` + box).
    """

    kind: str
    weight: float = 0.0
    quad: QuadraticFunction | None = None
    box: BoxSet | None = None

    # -- constructors --

    @staticmethod
    def zero() -> "ProxFriendlyFunction":
        return ProxFriendlyFunction("zero")

    @staticmethod
    def l1(weight: float = 1.0) -> "ProxFriendlyFunction":
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        return ProxFriendlyFunction("l1", weight=float(weight))

    @staticmethod
    def indicator_box(box: BoxSet) -> "ProxFriendlyFunction":
        return ProxFriendlyFunction("zero", box=box)

    @staticmethod
    def l1_plus_box(weight: float, box: BoxSet) -> "ProxFriendlyFunction":
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        return ProxFriendlyFunction("l1", weight=float(weight), box=box)

    @staticmethod
    def quadratic(quad: QuadraticFunction, box: BoxSet | None = None) -> "ProxFriendlyFunction":
        if box is not None and not quad.is_diagonal:
            raise ValueError("quadratic + box prox needs diagonal curvature")
        return ProxFriendlyFunction("quadratic", quad=quad, box=box)

    @staticmethod
    def stack(gs) -> "ProxFriendlyFunction":
        """One group of entries with the same kind and box presence."""
        g0 = gs[0]
        quad = None if g0.quad is None else QuadraticFunction.stack([g.quad for g in gs])
        box = None if g0.box is None else BoxSet.stack([g.box for g in gs])
        return ProxFriendlyFunction(g0.kind, np.array([g.weight for g in gs]), quad, box)

    # -- derived entries --

    def with_box(self, box: BoxSet | None) -> "ProxFriendlyFunction":
        """Return this function plus the indicator of ``box``."""
        if box is None:
            return self
        if self.box is not None:
            box = BoxSet(
                np.maximum(self.box.lower, box.lower),
                np.minimum(self.box.upper, box.upper),
            )
        if self.kind == "quadratic":
            return ProxFriendlyFunction.quadratic(self.quad, box)
        return ProxFriendlyFunction(self.kind, weight=self.weight, box=box)

    # -- evaluation --

    def value(self, x):
        x = _vec(x)
        if self.kind == "zero":
            val = np.zeros(x.shape[:-1])
        elif self.kind == "l1":
            val = self.weight * np.abs(x).sum(axis=-1)
        else:
            val = self.quad.value(x)
        if self.box is not None:
            val = np.where(self.box.contains(x), val, INF)
        return _per_member(val)

    def prox(self, u, alpha, *, alpha_checked: bool = False) -> np.ndarray:
        """Exact prox with parameter ``alpha > 0``.

        ``alpha_checked`` skips the check on ``alpha`` for a caller that has
        made it.
        """
        if not (alpha_checked or _all_positive(alpha)):
            raise ValueError("alpha must be positive")
        u = _vec(u)
        if self.kind == "zero":
            v = u
        elif self.kind == "l1":  # soft-thresholding
            v = np.sign(u) * np.maximum(np.abs(u) - _col(np.multiply(alpha, self.weight)), 0.0)
        else:  # quadratic: (I + alpha C) v = u - alpha q
            a = _col(alpha)
            if not self.quad.is_diagonal:
                mat = np.eye(self.quad.dim) + a[..., None] * self.quad.curvature
                return np.linalg.solve(mat, (u - a * self.quad.linear)[..., None])[..., 0]
            # a diagonal solve divides, as LAPACK's does
            v = (u - a * self.quad.linear) / (1.0 + a * self.quad._diagonal)
        if self.box is not None:
            v = self.box.project(v)
        return v

    def conjugate(self, v):
        """Conjugate value ``sup_x (v'x - g(x))`` as an extended real."""
        v = _vec(v)
        if self.kind == "zero":
            if self.box is not None:
                val = np.maximum(v * self.box.lower, v * self.box.upper).sum(axis=-1)
            else:
                scale = 1.0 + np.abs(v).max(axis=-1, keepdims=True)
                val = np.where((np.abs(v) <= _ZERO_ATOL * scale).all(axis=-1), 0.0, INF)
        elif self.kind == "l1":
            w = _col(self.weight)
            if self.box is None:
                val = np.where((np.abs(v) <= w + _ZERO_ATOL).all(axis=-1), 0.0, INF)
            else:
                lo, hi = self.box.lower, self.box.upper
                cand = np.maximum(v * lo - w * np.abs(lo), v * hi - w * np.abs(hi))
                inside = (lo <= 0) & (hi >= 0)
                cand = np.where(inside, np.maximum(cand, 0.0), cand)
                val = cand.sum(axis=-1)
        else:
            x = self.conjugate_argmax(v)
            val = (v * x).sum(axis=-1) - self.value(x)
        return _per_member(val)

    def conjugate_argmax(self, v, ref=None) -> np.ndarray:
        """A maximizer of ``v'x - g(x)``; ``ref`` breaks ties toward a point.

        Raises :class:`UnboundedConjugateError` when the sup is infinite.
        When the maximizer set is not a singleton (indicators and l1 kinks)
        the returned point is the projection of ``ref`` onto that set.
        """
        v = _vec(v)
        ref = np.zeros_like(v) if ref is None else _vec(ref)
        if self.kind == "quadratic":
            if self.box is None:
                try:
                    return np.linalg.solve(self.quad.curvature,
                                           (v - self.quad.linear)[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    raise UnboundedConjugateError("singular curvature in conjugate argmax")
            if not self.quad._positive_diagonal:
                raise NonStronglyConvexError("box-constrained quadratic needs positive diagonal")
            return self.box.project((v - self.quad.linear) / self.quad._diagonal)
        if self.kind == "zero":
            if self.box is not None:
                lo, hi = self.box.lower, self.box.upper
                scale = 1.0 + np.abs(v)
                return np.where(v > _ZERO_ATOL * scale, hi,
                                np.where(v < -_ZERO_ATOL * scale, lo, np.clip(ref, lo, hi)))
            scale = 1.0 + np.abs(v).max(axis=-1, keepdims=True)
            if (np.abs(v) > _ZERO_ATOL * scale).any():
                raise UnboundedConjugateError("support of all-space is unbounded")
            return ref
        # l1 (+ optional box), separable
        lo = self.box.lower if self.box is not None else -INF
        hi = self.box.upper if self.box is not None else INF
        return _l1_support_argmax(v, _col(self.weight), lo, hi, ref)


def _l1_support_argmax(v, w, lo, hi, ref) -> np.ndarray:
    """Maximizer of ``v*x - w|x|`` over ``[lo, hi]``, elementwise, ties toward ``ref``."""
    tol = _ZERO_ATOL * (1.0 + np.abs(v) + w)
    above = v > w + tol
    below = v < -w - tol
    if (above & np.isinf(hi)).any():
        raise UnboundedConjugateError("l1 support unbounded above")
    if (below & np.isinf(lo)).any():
        raise UnboundedConjugateError("l1 support unbounded below")
    top = np.where(np.isinf(hi), np.maximum(ref, 0.0), hi)
    bot = np.where(np.isinf(lo), np.minimum(ref, 0.0), lo)
    # 0 outside the box: the better finite endpoint, the lower one on a tie
    with np.errstate(invalid="ignore"):
        lower_wins = v * lo - w * np.abs(lo) >= v * hi - w * np.abs(hi)
    endpoint = np.where(np.isfinite(lo) & (np.isinf(hi) | lower_wins), lo, hi)
    return np.select(
        [above, below,
         (np.abs(v - w) <= tol) & (hi > 0),  # tie on the nonnegative ray
         (np.abs(v + w) <= tol) & (lo < 0),  # tie on the nonpositive ray
         (lo <= 0.0) & (0.0 <= hi)],  # strict interior of the dead zone
        [hi, lo,
         np.minimum(np.maximum(ref, np.maximum(lo, 0.0)), top),
         np.maximum(np.minimum(ref, np.minimum(hi, 0.0)), bot),
         0.0],
        endpoint)


# ---------------------------------------------------------------------------
# conjugates of the smooth parts
# ---------------------------------------------------------------------------


def conjugate_argmax(f: SmoothConjugable, u) -> np.ndarray:
    """Gradient of the conjugate: the unique maximizer of ``u'x - f(x)``.

    For a quadratic base on all of space this is ``C^{-1}(u - q)``; with a
    box domain the stationary point is clamped componentwise (diagonal
    curvature only).  For the piecewise utility the maximizer is chosen from
    the finite candidate set (branch stationary point, threshold, domain
    endpoints) by direct objective comparison, ties going to the smaller x.
    """
    u = _vec(u)
    base = f.base
    dom = f.effective_domain
    if isinstance(base, QuadraticFunction):
        if dom is None and not base._strongly_convex:
            raise UnboundedConjugateError("quadratic lacks curvature on unbounded domain")
        if not base.is_diagonal:
            if dom is not None:
                raise NonStronglyConvexError("box-domain argmax implemented for diagonal curvature")
            return np.linalg.solve(base.curvature, (u - base.linear)[..., None])[..., 0]
        if not base._positive_diagonal:
            raise NonStronglyConvexError("box-domain argmax needs positive diagonal curvature")
        # a diagonal solve divides, as LAPACK's does; times 1/diag rounds differently
        x = (u - base.linear) / base._diagonal
        return x if dom is None else dom.project(x)
    # piecewise quadratic utility, scalar
    s = u[..., 0]
    lo, lo_inf, any_lo_inf, hi_inf, any_hi_inf, x_thr, two_curv, cand_rows = \
        f._utility_candidates
    # the flat branch runs on to an infinite upper end: u x - f(x) grows without bound
    if any_hi_inf and ((s > 0) & hi_inf).any():
        raise UnboundedConjugateError("positive slope on the unbounded flat branch")
    # lo <= x_quad <= x_thr <= hi: a domain above the threshold has no
    # quadratic branch and lo stands in for it; an infinite endpoint is no
    # candidate and its finite neighbour stands in for it (a repeat never wins)
    stat = (s + base.price) / two_curv  # quadratic-branch stationary point
    x_quad = np.minimum(np.maximum(stat, lo), x_thr)
    # rows x_k, then s x_k - f(x_k), then that plus the tie tolerance; a
    # batch of slopes for fewer members gets the constants broadcast to it
    shape = s.shape if s.shape == lo.shape else np.broadcast_shapes(s.shape, lo.shape)
    rows = np.empty((3, 4) + shape)
    rows[:2] = cand_rows.reshape((2, 4) + (1,) * (len(shape) - lo.ndim) + lo.shape)
    rows[0, 1] = x_quad
    rows[1, 1] = base._branch_value(x_quad)
    if any_lo_inf:
        np.copyto(rows[:2, 0], rows[:2, 1], where=lo_inf)
    np.subtract(s * rows[0], rows[1], out=rows[1])
    np.add(rows[1], _TIE_TOL, out=rows[2])
    cands = rows.swapaxes(0, 1)  # cands[k] is candidate k's column of rows
    best = cands[0]
    for cand in cands[1:]:  # ascending; ties keep the smaller x
        best = np.where(cand[1] > best[2], cand, best)
    return best[0][..., None]


def conjugate_value(f: SmoothConjugable, u) -> float:
    """Conjugate of the smooth part: ``u'x_hat - f(x_hat)``, ``inf`` if unbounded."""
    u = _vec(u)
    try:
        x = conjugate_argmax(f, u)
    except UnboundedConjugateError:
        return INF
    return float(u @ x - f.value(x))


# ---------------------------------------------------------------------------
# the conjugate prox via the Moreau decomposition
# ---------------------------------------------------------------------------


def prox_conjugate_via_moreau(g: ProxFriendlyFunction, v, c) -> np.ndarray:
    """Prox of the conjugate ``g*`` with parameter ``c``, via the direct prox.

    Uses the decomposition ``prox^c_{g*}(v) = v - c * prox^{1/c}_g(v/c)``,
    so the conjugate's prox is never evaluated directly.  For a group, ``c``
    holds one parameter per member.
    """
    c = np.asarray(c, dtype=float)
    # NaN fails too; 0 < c < inf is 1/c > 0, the check the prox would repeat
    if not (0.0 < c.min() and c.max() < INF):
        raise ValueError("c must be positive and finite")
    v, c_col = _vec(v), c[..., None]
    return v - c_col * g.prox(v / c_col, 1.0 / c, alpha_checked=True)
