"""Catalog of convex functions with exact proximal mappings and conjugates.

Every function here is separable or small enough for closed-form algebra:
quadratics, the piecewise-quadratic negated utility used by energy users,
l1 penalties, and box indicators.  Each catalog entry exposes

* an exact proximal mapping,
* an exact conjugate value (extended real, ``inf`` when the sup diverges),
* and, for strongly convex smooth parts, the conjugate gradient as an
  argmax oracle.

Every entry also works as a *group*: :func:`group` builds one catalog
object whose fields hold the fields of several members of one kind along a
leading axis.  A group takes and returns the members' vectors stacked
``(n, M)``, and its values and conjugates hold one entry per member.  The
members are separable, so a group's prox or argmax is the stack of the
members' results, bit for bit; :func:`nonsmooth_group` stacks nonsmooth
parts of several kinds into one.  A single member keeps its float API.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonStronglyConvexError, UnboundedConjugateError

INF = float("inf")

# absolute tolerance for "is this multiplier exactly zero" style tests on
# quantities produced by floating-point cancellation
_ZERO_ATOL = 1e-12

# objective ties closer than this pick the smaller candidate point
_TIE_TOL = 1e-12


class cached_property:
    """``functools.cached_property`` without its lock (taken on each first access before 3.12)."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
        lo = np.array(self.lower, dtype=float, ndmin=1)  # a copy, never a view of the input
        hi = np.array(self.upper, dtype=float, ndmin=1)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have equal shapes")
        if not (lo <= hi).all():  # NaN fails too
            raise ValueError("box requires lower <= upper componentwise")
        self.__dict__.update(lower=lo, upper=hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

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
        q = np.array(self.linear, dtype=float, ndmin=1)  # copies, never views of the inputs
        c = np.array(self.curvature, dtype=float, ndmin=1)
        if c.ndim == 1:  # a diagonal; a scalar's has one entry
            c = c[None] if len(c) == 1 else np.diag(c)
        if c.shape != q.shape + q.shape[-1:]:
            raise ValueError("curvature/linear dimension mismatch")
        # a 1x1 curvature is its own transpose, so only a NaN entry is not symmetric
        if not (c.item() == c.item() if c.size == 1 else _isclose_all(c, c.swapaxes(-1, -2))):
            raise ValueError("curvature must be symmetric")
        self.__dict__.update(curvature=c, linear=q, offset=_per_member(self.offset))

    @property
    def dim(self) -> int:
        return self.linear.shape[-1]

    @cached_property
    def strong_convexity(self):
        c = self.curvature
        if c.shape[-1] == 1:  # the entry, as eigvalsh returns it bit for bit
            return _per_member(c[..., 0, 0])
        eig = np.linalg.eigvalsh(c)  # within matrix_rank's tolerance of 0: singular, so 0
        tol = c.shape[-1] * np.finfo(float).eps * np.abs(eig).max(axis=-1)
        return _per_member(np.where(eig[..., 0] > tol, eig[..., 0], 0.0))

    @cached_property
    def is_diagonal(self) -> bool:
        c = self.curvature
        return c.shape[-1] == 1 or bool(np.allclose(c, c * np.eye(c.shape[-1])))

    @cached_property
    def _diagonal(self) -> np.ndarray:
        return np.diagonal(self.curvature, axis1=-2, axis2=-1).copy()

    @cached_property
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
        self.__dict__.update(price=price, curvature=curvature)

    @property
    def dim(self) -> int:
        return 1

    @cached_property
    def threshold(self):
        return self.price / (2.0 * self.curvature)

    @cached_property
    def _flat_value(self):
        # float_power is C pow, as ``price**2`` on a float; x*x differs in the
        # last bit now and then
        return -np.float_power(self.price, 2) / (4.0 * self.curvature)

    def value(self, x):
        return _per_member(self._branch_value(_vec(x)[..., 0]))

    def _branch_value(self, x):
        """The value at scalars ``x`` whose trailing axes are the members'."""
        xq = np.minimum(x, self.threshold)  # x where kept: a dropped huge x cannot overflow
        return np.where(x <= self.threshold, self.curvature * xq * xq - self.price * xq,
                        self._flat_value)


@dataclass(frozen=True)
class SmoothConjugable:
    """A smooth base restricted to an effective domain, with argmax oracle.

    The domain restriction keeps the conjugate argmax unique even when the
    base is only strongly convex on part of its range (the saturating
    utility has a flat branch).
    """

    base: QuadraticFunction | PiecewiseQuadraticUtility
    effective_domain: BoxSet | None = None

    def __post_init__(self):
        base, dom = self.base, self.effective_domain
        if dom is not None and dom.dim != base.dim:
            raise ValueError("effective domain dimension mismatch")
        if dom is not None and isinstance(base, QuadraticFunction) and not base.is_diagonal:
            raise ValueError("smooth quadratic in a box needs diagonal curvature")

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def strong_convexity(self):
        """The quadratic's, or the utility's on its quadratic branch, where
        the maximizer lives: ``2*varsigma``."""
        base = self.base
        return _per_member(base.strong_convexity if isinstance(base, QuadraticFunction)
                           else 2.0 * base.curvature)

    def value(self, x):
        return self.base.value(x)

    @cached_property
    def _unbounded(self) -> bool:
        """Whether a quadratic without a domain lacks curvature.  An instance refuses
        ``sigma_i <= 0``, so only a part or group built apart from one can."""
        return self.effective_domain is None and not _all_positive(self.base.strong_convexity)

    @cached_property
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


def group(members):
    """One catalog object whose fields stack the fields of ``members`` along a
    new leading axis; nested parts group alike, and a ``kind`` string or an
    absent part is the first member's, as the grouping key fixes them.  The
    members were checked when built, so the group skips ``__post_init__``."""
    first = members[0]
    grouped = object.__new__(type(first))
    for name in first.__dataclass_fields__:
        value = getattr(first, name)
        if value is not None and type(value) is not str:
            column = [getattr(m, name) for m in members]
            value = group(column) if hasattr(value, "__dataclass_fields__") else np.array(column)
        grouped.__dict__[name] = value
    return grouped


# ---------------------------------------------------------------------------
# prox-friendly nonsmooth catalog
# ---------------------------------------------------------------------------


_G_KINDS = ("zero", "l1", "quadratic")  # a member's code: its kind's index, plus 3 in a box
# the formula each code takes in the prox (the box is projected on after), the conjugate
# (0: no box, 3: the better box end) and the argmax (3: zero in a box)
_FORMULAS = np.array(((0, 1, 2, 0, 1, 2), (0, 0, 2, 3, 3, 2), (0, 1, 2, 3, 1, 2)))
_FORMULA_IDS = np.arange(4)[:, None]


@dataclass(frozen=True)
class ProxFriendlyFunction:
    """A nonsmooth catalog entry with exact prox and conjugate formulas.

    Internally every entry is one of ``zero``, ``l1`` or ``quadratic``
    optionally intersected with a box; the public constructors mirror the
    usual naming (``indicator_box`` is ``zero`` + box, ``l1_plus_box`` is
    ``l1`` + box).  A group of several kinds (see :func:`nonsmooth_group`)
    holds each member's code as ``kind``; a member without a box has the
    ends ``-inf, inf``, one without l1 the weight 0, and one that is no
    quadratic the curvature 1, linear term 0 and offset 0.  Each method
    evaluates the formulas of the codes present, each on its members' rows.
    """

    kind: str
    weight: float = 0.0
    quad: QuadraticFunction | None = None
    box: BoxSet | None = None

    def __post_init__(self):
        if self.box is not None and self.quad is not None and not self.quad.is_diagonal:
            raise ValueError("nonsmooth quadratic in a box needs diagonal curvature")

    # -- constructors --

    @staticmethod
    def zero() -> "ProxFriendlyFunction":
        return ProxFriendlyFunction("zero")

    @staticmethod
    def l1(weight: float = 1.0) -> "ProxFriendlyFunction":
        return ProxFriendlyFunction.l1_plus_box(weight, None)

    @staticmethod
    def indicator_box(box: BoxSet) -> "ProxFriendlyFunction":
        return ProxFriendlyFunction("zero", box=box)

    @staticmethod
    def l1_plus_box(weight: float, box: BoxSet | None) -> "ProxFriendlyFunction":
        if not weight >= 0:  # NaN fails too
            raise ValueError("l1 weight must be nonnegative")
        return ProxFriendlyFunction("l1", weight=float(weight), box=box)

    @staticmethod
    def quadratic(quad: QuadraticFunction, box: BoxSet | None = None) -> "ProxFriendlyFunction":
        return ProxFriendlyFunction("quadratic", quad=quad, box=box)

    # -- derived entries --

    def with_box(self, box: BoxSet | None) -> "ProxFriendlyFunction":
        """This function plus the indicator of ``box``; itself for its own box object."""
        if box is None or box is self.box:
            return self
        if self.box is not None:
            box = BoxSet(np.maximum(self.box.lower, box.lower),
                         np.minimum(self.box.upper, box.upper))
        return ProxFriendlyFunction(self.kind, self.weight, self.quad, box)

    # -- evaluation --

    @cached_property
    def _parts(self) -> tuple:
        """For the prox, the conjugate and the argmax: each formula present -> the mask of
        its members (a column but for the conjugate), ``None`` where every member takes it
        (see ``_FORMULAS``)."""
        if type(self.kind) is str:
            code = _G_KINDS.index(self.kind) + 3 * (self.box is not None)
            return tuple({k: None} for k in _FORMULAS[:, code].tolist())
        masks = _FORMULAS[:, self.kind][:, None] == _FORMULA_IDS  # (method, formula, member)
        return tuple({k: None if sum(present) == 1 else mask[k] if i == 1 else mask[k, :, None]
                      for k in range(4) if present[k]}
                     for i, (present, mask) in enumerate(zip(masks.any(axis=-1).tolist(), masks)))

    @cached_property
    def _w(self) -> np.ndarray:
        return _col(self.weight)

    @cached_property
    def _smooth(self) -> SmoothConjugable:
        """The quadratic kind as a smooth part on its box, for its argmax; the other
        members of a group have the domain ``[0, 0]``, so their argmax is 0."""
        rows = self._parts[2].get(2)
        if rows is None:
            return SmoothConjugable(self.quad, self.box)
        zeros = np.zeros(self.quad.linear.shape)
        lo, hi = (-INF, INF) if self.box is None else (self.box.lower, self.box.upper)
        return SmoothConjugable(self.quad, BoxSet(np.where(rows, lo, zeros),
                                                  np.where(rows, hi, zeros)))

    @cached_property
    def _box_terms(self) -> tuple:
        """What the conjugate of zero or l1 in a box reads: the box's ends, 0 standing in for
        an infinite one; with l1 members (else ``None``) the terms ``w |e|`` and where the box
        holds 0, for every member (there a zero member's max is at least 0 already, and its
        sum has no sign of 0 to lose); the members whose box has an infinite end (or
        ``None``)."""
        lo, hi, rows = self.box.lower, self.box.upper, self._parts[1][3]
        inf_lo, inf_hi = np.isinf(lo), np.isinf(hi)
        ends, inf = [lo, hi], inf_lo | inf_hi
        if inf.any():
            ends = [np.where(inf_lo, 0.0, lo), np.where(inf_hi, 0.0, hi)]
            inf = inf.any(axis=-1, keepdims=True) & (True if rows is None else rows[:, None])
        w_ends = inside = None
        if 1 in self._parts[0]:
            w_ends, inside = [self._w * np.abs(e) for e in ends], (lo <= 0) & (hi >= 0)
        return ends, w_ends, inside, inf if inf.any() else None

    def _alpha_terms(self, alpha) -> tuple:
        """``a = alpha`` as a column, ``a w``, ``a q`` and ``1 + a diag``, checked (one entry or
        one per member) and kept for the last ``alpha``: a run passes the same one each round."""
        key = (np.shape(alpha), np.asarray(alpha, dtype=float).tobytes())
        last = self.__dict__.get("_last_alpha")
        if last is None or last[0] != key:
            if not _all_positive(alpha):  # NaN fails too
                raise ValueError("alpha must be positive")
            a, n = _col(alpha), np.size(self.weight)
            if a.size not in (1, n):
                raise ValueError(f"alpha has {a.size} entries, not 1 or one per member ({n})")
            quad = self.quad or _free_parts(1)[0]  # no quadratic: unused
            last = self.__dict__["_last_alpha"] = (key, (a, a * self._w, a * quad.linear,
                                                          1.0 + a * quad._diagonal))
        return last[1]

    def prox(self, u, alpha) -> np.ndarray:
        """Exact prox with parameter ``alpha > 0``, checked whenever it is not the last one."""
        u, v, kinds = _vec(u), None, self._parts[0]
        a, a_w, a_q, a_diag = self._alpha_terms(alpha)
        for formula, rows in kinds.items():
            if formula == 0:
                x = u
            elif formula == 1:  # soft-thresholding
                x = np.sign(u) * np.maximum(np.abs(u) - a_w, 0.0)
            elif not self.quad.is_diagonal:  # a group of its own, without a box
                mat = np.eye(self.quad.dim) + a[..., None] * self.quad.curvature
                return np.linalg.solve(mat, (u - a_q)[..., None])[..., 0]
            else:  # quadratic: (I + alpha C) v = u - alpha q; a diagonal solve divides, as LAPACK's
                x = (u - a_q) / a_diag
            v = x if v is None else np.where(rows, x, v)
        if self.box is not None:
            v = self.box.project(v)
        return v

    def conjugate(self, v):
        """Conjugate value ``sup_x (v'x - g(x))`` as an extended real."""
        v, val = _vec(v), None
        for formula, rows in self._parts[1].items():
            if formula == 0:  # no box: 0 where each |v| is within a tolerance (plus an l1 weight)
                a, kinds = np.abs(v), self._parts[0]
                bound = self._w + _ZERO_ATOL * (1.0 + a + self._w) if 1 in kinds else None
                if 0 in kinds:  # zero's tolerance scales with v
                    zero = _ZERO_ATOL * (1.0 + a.max(axis=-1, keepdims=True))
                    bound = zero if bound is None else np.where(kinds[1], bound, zero)
                x = np.where((a <= bound).all(axis=-1), 0.0, INF)
            elif formula == 2:
                x = conjugate_argmax(self._smooth, v)
                x = (v * x).sum(axis=-1) - self.quad.value(x)
            else:
                x = self._box_conjugate(v).sum(axis=-1)
            val = x if val is None else np.where(rows, x, val)
        return _per_member(val)

    def _box_conjugate(self, v) -> np.ndarray:
        """``max_e (v e - w |e|)`` over the ends ``e`` of the box, per component, and at least
        0 inside an l1 member's box.  A member whose box has an infinite end takes ``(v - w
        sign(e)) e`` at each end, 0 where that coefficient is 0 or, at an infinite end, lies
        within a tolerance on the side where the term grows: no ``0 * inf``."""
        ends, w_ends, inside, inf_rows = self._box_terms
        cand = np.maximum(*([v * e for e in ends] if w_ends is None else
                            [v * e - we for e, we in zip(ends, w_ends)]))
        if inf_rows is not None:
            w, terms = self._w, []
            tol = _ZERO_ATOL * (1.0 + np.abs(v) + w)
            for e in (self.box.lower, self.box.upper):
                c = v - w * np.sign(e)
                drop = (c == 0) | (np.isinf(e) & (np.abs(c) <= tol) & (np.sign(c) == np.sign(e)))
                terms.append(np.multiply(c, e, out=np.zeros(c.shape), where=~drop))
            cand = np.where(inf_rows, np.maximum(*terms), cand)
        return cand if inside is None else np.where(inside, np.maximum(cand, 0.0), cand)

    def conjugate_argmax(self, v, ref=None) -> np.ndarray:
        """A maximizer of ``v'x - g(x)``; ``ref`` breaks ties toward a point.

        Raises :class:`UnboundedConjugateError` when the sup is infinite.
        When the maximizer set is not a singleton (indicators and l1 kinks)
        the returned point is the projection of ``ref`` onto that set.
        """
        v = _vec(v)
        ref = np.zeros_like(v) if ref is None else _vec(ref)
        lo, hi = (-INF, INF) if self.box is None else (self.box.lower, self.box.upper)
        inf_lo, inf_hi = np.isinf(lo), np.isinf(hi)
        x = None
        for formula, rows in self._parts[2].items():
            if formula == 0:
                scale = 1.0 + np.abs(v).max(axis=-1, keepdims=True)
                if ((np.abs(v) > _ZERO_ATOL * scale) & (True if rows is None else rows)).any():
                    raise UnboundedConjugateError("support of all-space is unbounded")
                piece = ref
            elif formula == 1:
                piece = _l1_argmax(v, self._w, (lo, hi, inf_lo, inf_hi), ref, rows)
            elif formula == 2:
                piece = conjugate_argmax(self._smooth, v)
            else:  # zero in a box: unbounded where v points past an infinite end
                tol = _ZERO_ATOL * (1.0 + np.abs(v))
                above, below = v > tol, v < -tol
                past = (above & inf_hi) | (below & inf_lo)
                if (past & (True if rows is None else rows)).any():
                    raise UnboundedConjugateError("box support unbounded")
                piece = np.where(above, hi, np.where(below, lo, np.clip(ref, lo, hi)))
            x = piece if x is None else np.where(rows, piece, x)
        return x


def _l1_argmax(v, w, ends, ref, rows) -> np.ndarray:
    """Maximizer of ``v*x - w|x|`` over the box ``ends`` (``lo, hi`` and where each is infinite),
    elementwise, ties toward ``ref``; only the members ``rows`` masks may be unbounded."""
    lo, hi, inf_lo, inf_hi = ends
    tol = _ZERO_ATOL * (1.0 + np.abs(v) + w)
    above = v > w + tol
    below = v < -w - tol
    rows = True if rows is None else rows
    if (above & inf_hi & rows).any():
        raise UnboundedConjugateError("l1 support unbounded above")
    if (below & inf_lo & rows).any():
        raise UnboundedConjugateError("l1 support unbounded below")
    top = np.where(inf_hi, np.maximum(ref, 0.0), hi)
    bot = np.where(inf_lo, np.minimum(ref, 0.0), lo)
    # 0 outside the box: the better finite endpoint, the lower one on a tie
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, a huge weight
        lower_wins = v * lo - w * np.abs(lo) >= v * hi - w * np.abs(hi)
    x = np.where(~inf_lo & (inf_hi | lower_wins), lo, hi)  # a box's ends are no NaN
    # then, each taking precedence over those before it: the strict interior of the dead
    # zone, a tie on the nonpositive ray, a tie on the nonnegative ray, below, above
    x = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, x)
    x = np.where((np.abs(v + w) <= tol) & (lo < 0),
                 np.maximum(np.minimum(ref, np.minimum(hi, 0.0)), bot), x)
    x = np.where((np.abs(v - w) <= tol) & (hi > 0),
                 np.minimum(np.maximum(ref, np.maximum(lo, 0.0)), top), x)
    return np.where(above, hi, np.where(below, lo, x))


@functools.cache
def _free_parts(dim: int) -> tuple:
    """The stand-ins of a group member without a quadratic or without a box."""
    return (QuadraticFunction(np.ones(dim), np.zeros(dim)),
            BoxSet(np.full(dim, -INF), np.full(dim, INF)))


def smooth_group(fs, has_domain) -> SmoothConjugable:
    """:func:`group` of the smooth parts ``fs`` of one kind and dim (a dense quadratic needs
    a group of its own), ``-inf, inf`` standing in for the domain of a member without one
    where another has one (``has_domain``)."""
    if all(has_domain) or not any(has_domain):
        return group(fs)
    grouped, free = object.__new__(SmoothConjugable), _free_parts(fs[0].dim)[1]
    grouped.__dict__.update(base=group([f.base for f in fs]),
                            effective_domain=group([f.effective_domain or free for f in fs]))
    return grouped


def nonsmooth_group(gs, boxes, omegas, codes, dim: int) -> ProxFriendlyFunction:
    """One group of the nonsmooth parts ``gs`` of dim ``dim`` and their ``codes``, member
    ``k`` in ``boxes[k]`` and ``omegas[k]`` (each ``None``, or standing in for the other):
    one kind stacked as :func:`group` stacks it, several with the per-member codes and the
    stand-ins of :class:`ProxFriendlyFunction`, then one ``with_box`` of the omegas
    (``max(x, x) = x``; none where each is its member's box).  A dense quadratic needs a
    group of its own."""
    kind = gs[0].kind if len(set(codes)) == 1 else np.array(codes)
    quad = own = other = None
    if 2 in codes or 5 in codes:
        quad = group([g.quad or _free_parts(dim)[0] for g in gs])
    if max(codes) >= 3:  # -inf, inf stand in for a box where a member has none
        own = group([b or _free_parts(dim)[1] for b in boxes])
        if any(o is not b for b, o in zip(boxes, omegas)):
            other = group([b or _free_parts(dim)[1] for b in omegas])
    g = ProxFriendlyFunction(kind, np.array([g.weight for g in gs]), quad, own)
    return g.with_box(other)


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
        if f._unbounded:
            raise UnboundedConjugateError("quadratic lacks curvature on unbounded domain")
        if not base.is_diagonal:  # so without a domain: the constructor refuses one
            try:  # eigvalsh may put a singular curvature's least eigenvalue just above 0
                return np.linalg.solve(base.curvature, (u - base.linear)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise UnboundedConjugateError("singular curvature in conjugate argmax") from None
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
    # rows x_k, then s x_k - f(x_k), then that plus the tie tolerance
    rows = np.empty((3, 4) + s.shape)
    rows[:2] = cand_rows.reshape((2, 4) + (1,) * (s.ndim - lo.ndim) + lo.shape)
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

