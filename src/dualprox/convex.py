"""Catalog of convex functions with exact proximal mappings and conjugates.

Every function here is separable or small enough for closed-form algebra:
quadratics, the piecewise-quadratic negated utility used by energy users,
l1 penalties, and box indicators.  Each catalog entry exposes

* an exact proximal mapping,
* an exact conjugate value (extended real, ``inf`` when the sup diverges),
* and, for strongly convex smooth parts, the conjugate gradient as an
  argmax oracle.
"""

from __future__ import annotations

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
    return np.atleast_1d(np.asarray(u, dtype=float))


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
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u) -> bool:
        u = _vec(u)
        return bool(np.all(u >= self.lower) and np.all(u <= self.upper))

    def project(self, u) -> np.ndarray:
        return np.clip(_vec(u), self.lower, self.upper)


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
        if c.shape != (q.size, q.size):
            raise ValueError("curvature/linear dimension mismatch")
        if not np.allclose(c, c.T, atol=1e-10):
            raise ValueError("curvature must be symmetric")
        object.__setattr__(self, "curvature", c)
        object.__setattr__(self, "linear", q)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.linear.size

    @property
    def strong_convexity(self) -> float:
        return float(np.linalg.eigvalsh(self.curvature)[0])

    @property
    def is_diagonal(self) -> bool:
        return bool(np.allclose(self.curvature, np.diag(np.diag(self.curvature))))

    def value(self, x) -> float:
        x = _vec(x)
        return float(0.5 * x @ self.curvature @ x + self.linear @ x + self.offset)

    def grad(self, x) -> np.ndarray:
        return self.curvature @ _vec(x) + self.linear


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
        if self.price <= 0 or self.curvature <= 0:
            raise ValueError("price and curvature must be positive")
        object.__setattr__(self, "price", float(self.price))
        object.__setattr__(self, "curvature", float(self.curvature))

    @property
    def dim(self) -> int:
        return 1

    @property
    def threshold(self) -> float:
        return self.price / (2.0 * self.curvature)

    def value(self, x) -> float:
        x = float(_vec(x)[0])
        if x <= self.threshold:
            return self.curvature * x * x - self.price * x
        return -self.price**2 / (4.0 * self.curvature)


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
        if self.strong_convexity is None:
            if isinstance(self.base, QuadraticFunction):
                sigma = self.base.strong_convexity
            else:
                sigma = 2.0 * self.base.curvature
            object.__setattr__(self, "strong_convexity", float(sigma))
        if self.effective_domain is not None and self.effective_domain.dim != self.base.dim:
            raise ValueError("effective domain dimension mismatch")

    @property
    def dim(self) -> int:
        return self.base.dim

    def value(self, x) -> float:
        return self.base.value(x)


# ---------------------------------------------------------------------------
# elementary proximal operators
# ---------------------------------------------------------------------------


def prox_l1(u, alpha: float, weight: float = 1.0) -> np.ndarray:
    """Soft-thresholding: prox of ``weight * ||.||_1`` with parameter ``alpha``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = _vec(u)
    return np.sign(u) * np.maximum(np.abs(u) - alpha * weight, 0.0)


def project_box(u, box: BoxSet) -> np.ndarray:
    """Euclidean projection onto a box (prox of its indicator, any alpha)."""
    return box.project(u)


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

    def value(self, x) -> float:
        x = _vec(x)
        if self.box is not None and not self.box.contains(x):
            return INF
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sum(np.abs(x)))
        return self.quad.value(x)

    def prox(self, u, alpha: float) -> np.ndarray:
        """Exact prox with parameter ``alpha > 0``."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        u = _vec(u)
        if self.kind == "zero":
            v = u
        elif self.kind == "l1":
            v = prox_l1(u, alpha, self.weight)
        else:  # quadratic: (I + alpha C) v = u - alpha q
            if self.box is None:
                mat = np.eye(self.quad.dim) + alpha * self.quad.curvature
                return np.linalg.solve(mat, u - alpha * self.quad.linear)
            diag = np.diag(self.quad.curvature)
            v = (u - alpha * self.quad.linear) / (1.0 + alpha * diag)
        if self.box is not None:
            v = self.box.project(v)
        return v

    def conjugate(self, v) -> float:
        """Conjugate value ``sup_x (v'x - g(x))`` as an extended real."""
        v = _vec(v)
        if self.kind == "zero":
            if self.box is not None:
                return float(np.sum(np.maximum(v * self.box.lower, v * self.box.upper)))
            scale = 1.0 + float(np.max(np.abs(v))) if v.size else 1.0
            return 0.0 if np.all(np.abs(v) <= _ZERO_ATOL * scale) else INF
        if self.kind == "l1":
            if self.box is None:
                return 0.0 if np.all(np.abs(v) <= self.weight + _ZERO_ATOL) else INF
            w = self.weight
            lo, hi = self.box.lower, self.box.upper
            cand = np.maximum(v * lo - w * np.abs(lo), v * hi - w * np.abs(hi))
            inside = (lo <= 0) & (hi >= 0)
            cand = np.where(inside, np.maximum(cand, 0.0), cand)
            return float(np.sum(cand))
        # quadratic
        x = self.conjugate_argmax(v)
        return float(v @ x - self.value(x))

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
                    return np.linalg.solve(self.quad.curvature, v - self.quad.linear)
                except np.linalg.LinAlgError:
                    raise UnboundedConjugateError("singular curvature in conjugate argmax")
            diag = np.diag(self.quad.curvature)
            if np.any(diag <= 0):
                raise NonStronglyConvexError("box-constrained quadratic needs positive diagonal")
            return self.box.project((v - self.quad.linear) / diag)
        if self.kind == "zero":
            if self.box is not None:
                lo, hi = self.box.lower, self.box.upper
                scale = 1.0 + np.abs(v)
                out = np.where(v > _ZERO_ATOL * scale, hi, np.where(v < -_ZERO_ATOL * scale, lo, np.clip(ref, lo, hi)))
                return out
            scale = 1.0 + float(np.max(np.abs(v))) if v.size else 1.0
            if np.any(np.abs(v) > _ZERO_ATOL * scale):
                raise UnboundedConjugateError("support of all-space is unbounded")
            return ref
        # l1 (+ optional box), separable
        w = self.weight
        lo = self.box.lower if self.box is not None else np.full_like(v, -INF)
        hi = self.box.upper if self.box is not None else np.full_like(v, INF)
        out = np.empty_like(v)
        for m in range(v.size):
            out[m] = _l1_support_argmax_1d(v[m], w, lo[m], hi[m], ref[m])
        return out


def _l1_support_argmax_1d(v: float, w: float, lo: float, hi: float, ref: float) -> float:
    """Maximizer of ``v*x - w|x|`` over ``[lo, hi]`` with tie-break to ``ref``."""
    tol = _ZERO_ATOL * (1.0 + abs(v) + w)
    if v > w + tol:
        if np.isinf(hi):
            raise UnboundedConjugateError("l1 support unbounded above")
        return hi
    if v < -w - tol:
        if np.isinf(lo):
            raise UnboundedConjugateError("l1 support unbounded below")
        return lo
    if abs(v - w) <= tol and hi > 0:  # tie on the nonnegative ray
        top = hi if not np.isinf(hi) else max(ref, 0.0)
        return min(max(ref, max(lo, 0.0)), top)
    if abs(v + w) <= tol and lo < 0:  # tie on the nonpositive ray
        bot = lo if not np.isinf(lo) else min(ref, 0.0)
        return max(min(ref, min(hi, 0.0)), bot)
    # strict interior of the dead zone: unique maximizer at 0 if feasible
    if lo <= 0.0 <= hi:
        return 0.0
    # 0 outside the box: best endpoint by direct comparison
    cands = [c for c in (lo, hi) if np.isfinite(c)]
    best = max(cands, key=lambda x: v * x - w * abs(x))
    return best


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
        if dom is None:
            if base.strong_convexity <= 0:
                raise UnboundedConjugateError("quadratic lacks curvature on unbounded domain")
            return np.linalg.solve(base.curvature, u - base.linear)
        if not base.is_diagonal:
            raise NonStronglyConvexError("box-domain argmax implemented for diagonal curvature")
        diag = np.diag(base.curvature)
        if np.any(diag <= 0):
            raise NonStronglyConvexError("box-domain argmax needs positive diagonal curvature")
        return dom.project((u - base.linear) / diag)
    # piecewise quadratic utility, scalar
    s = float(u[0])
    thr = base.threshold
    if dom is None and s > 0:
        raise UnboundedConjugateError("positive slope on the unbounded flat branch")
    lo = -INF if dom is None else float(dom.lower[0])
    hi = INF if dom is None else float(dom.upper[0])
    stat = (s + base.price) / (2.0 * base.curvature)  # quadratic-branch stationary point
    cands = {min(max(stat, lo), min(thr, hi)), min(max(thr, lo), hi)}
    if np.isfinite(lo):
        cands.add(lo)
    if np.isfinite(hi):
        cands.add(hi)
    best_x, best_v = None, -INF
    for x in sorted(cands):
        val = s * x - base.value(x)
        if val > best_v + _TIE_TOL:
            best_x, best_v = x, val
    return np.array([best_x])


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


def prox_conjugate_via_moreau(g: ProxFriendlyFunction, v, c: float) -> np.ndarray:
    """Prox of the conjugate ``g*`` with parameter ``c``, via the direct prox.

    Uses the decomposition ``prox^c_{g*}(v) = v - c * prox^{1/c}_g(v/c)``,
    so the conjugate's prox is never evaluated directly.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    v = _vec(v)
    return v - c * g.prox(v / c, 1.0 / c)
