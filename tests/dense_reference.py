"""Dense references for the dual operators, written from the math.

Nothing here touches the compiled instance or the catalog's groups: the
coupling matrix is assembled block by block into a dense ``A`` with
``C = [-A', -I]``, every smooth argmax and conjugate comes from its own
closed form, and the conjugate prox comes from the hand-derived oracle of
the reproduction suite.

The ``reference_*`` kernels at the end are different: they keep the
catalog's own formulas as they were before per-group constants were bound
once, the per-class ``stack`` constructors that formed the groups before
``convex.group`` and the nonsmooth quadratic's own argmax, the rate-bound
verifier as the per-agent loop it was before it went array-at-a-time, and
the solver loop as it was before it evaluated the objective a delay window
at a time, ``with_box`` as it was before it kept its own box, the kind
groups and their finiteness check as the compiled instance built them
agent by agent before the instance grouped its agents, the CSR
entries as ``np.broadcast_to`` formed them, and the trace writer as it was
before it formatted its own lines, and the nonsmooth kernels as they were
while each kind had a group of its own, so the new code can be checked
against them bit for bit.
"""

import csv
import json
import math

import numpy as np

import dualprox.engine
from dualprox import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    RateBoundReport,
    SmoothConjugable,
)
from dualprox.errors import (
    HistoryUnderflowError,
    InsufficientTraceError,
    NonStronglyConvexError,
    SingularScaleError,
    UnboundedConjugateError,
)
from dualprox.repro import conjugate_prox_oracle


def dense_A(inst) -> np.ndarray:
    """``A`` with agent ``i``'s rows ``[A_0^(i) ... A_{N-1}^(i)]``, neighbourhood blocks only."""
    N, M, B = inst.n_agents, inst.M, inst.B
    # a set of pairs: ``(i, l) in array`` would test elementwise, not by row
    edges = set(map(tuple, inst.topology.edges.tolist()))
    A = np.zeros((N * B, N * M))
    for i, l, block in zip(inst.owner.tolist(), inst.l.tolist(), inst.blocks):
        if l == i or (min(i, l), max(i, l)) in edges:
            A[i * B:(i + 1) * B, l * M:(l + 1) * M] = block
    return A


def dense_C(inst) -> np.ndarray:
    """The stacked row maps ``C = [-A', -I]``, agent ``i``'s rows ``i*M .. i*M + M - 1``."""
    n_x = inst.n_agents * inst.M
    return np.hstack([-dense_A(inst).T, -np.eye(n_x)])


def dense_b(inst) -> np.ndarray:
    return inst.rhs.ravel()


def smooth_argmax(f, u) -> np.ndarray:
    """``argmax_x u'x - f(x)`` over the effective domain, in closed form."""
    base, dom = f.base, f.effective_domain
    if not isinstance(base, PiecewiseQuadraticUtility):
        if dom is None:
            return np.linalg.solve(base.curvature, u - base.linear)
        return np.clip((u - base.linear) / np.diag(base.curvature), dom.lower, dom.upper)
    s, pi, vs = float(u[0]), base.price, base.curvature
    lo = -np.inf if dom is None else float(dom.lower[0])
    hi = np.inf if dom is None else float(dom.upper[0])
    thr = pi / (2 * vs)
    if s > 0 and np.isinf(hi):
        raise UnboundedConjugateError("flat branch unbounded")

    def gain(x):
        return s * x - (vs * x * x - pi * x if x <= thr else -pi * pi / (4 * vs))

    cands = []
    if lo <= min(thr, hi):  # concave quadratic branch on [lo, min(thr, hi)]
        cands.append(min(max((s + pi) / (2 * vs), lo), min(thr, hi)))
    if hi >= thr:  # linear flat branch on [max(thr, lo), hi]
        cands.append(hi if s > 0 else max(thr, lo))
    return np.array([max(sorted(cands), key=gain)])


def smooth_value(f, x) -> float:
    base = f.base
    if isinstance(base, PiecewiseQuadraticUtility):
        x = float(x[0])
        thr = base.price / (2 * base.curvature)
        if x <= thr:
            return base.curvature * x * x - base.price * x
        return -base.price ** 2 / (4 * base.curvature)
    return float(0.5 * x @ base.curvature @ x + base.linear @ x + base.offset)


def nonsmooth_conjugate(g, v) -> float:
    """``g*(v)`` coordinate by coordinate (``g`` has diagonal curvature, if any)."""
    total = 0.0
    for m, vm in enumerate(v):
        lo = -np.inf if g.box is None else g.box.lower[m]
        hi = np.inf if g.box is None else g.box.upper[m]
        if g.kind == "zero":
            if g.box is None:
                term = 0.0 if abs(vm) <= 1e-12 * (1 + np.max(np.abs(v))) else np.inf
            else:
                term = max(vm * lo, vm * hi)
        elif g.kind == "l1":
            w = g.weight
            if g.box is None:
                term = 0.0 if abs(vm) <= w + 1e-12 else np.inf
            else:
                term = max(vm * lo - w * abs(lo), vm * hi - w * abs(hi))
                if lo <= 0 <= hi:
                    term = max(term, 0.0)
        else:
            a, q = g.quad.curvature[m, m], g.quad.linear[m]
            x = min(max((vm - q) / a, lo), hi)
            term = vm * x - (0.5 * a * x * x + q * x)
        total += term
    return total


def dense_objective(inst, lam):
    """``(Psi, x_hat)`` at ``lam``."""
    N, M, B = inst.n_agents, inst.M, inst.B
    u = (dense_C(inst) @ lam).reshape(N, M)
    theta = lam[:N * B].reshape(N, B)
    mu = lam[N * B:].reshape(N, M)
    b = dense_b(inst).reshape(N, B)
    x_hat = np.array([smooth_argmax(a.f, u[i]) for i, a in enumerate(inst.agents)])
    psi = 0.0
    for i, a in enumerate(inst.agents):
        psi += u[i] @ x_hat[i] - smooth_value(a.f, x_hat[i]) + b[i] @ theta[i]
        psi += nonsmooth_conjugate(a.g.with_box(a.omega), mu[i])
    return psi, x_hat


def dense_round(inst, lam, x_snap, c) -> np.ndarray:
    """``theta - c (b - A x)`` and ``prox_{c g*}(mu + c x)`` for every agent."""
    N, M, B = inst.n_agents, inst.M, inst.B
    x = x_snap.ravel()
    theta = lam[:N * B] - np.repeat(c, B) * (dense_b(inst) - dense_A(inst) @ x)
    mu = lam[N * B:].reshape(N, M)
    mu_next = [conjugate_prox_oracle(a.g.with_box(a.omega), mu[i] + c[i] * x_snap[i], c[i])
               for i, a in enumerate(inst.agents)]
    return np.concatenate([theta, np.ravel(mu_next)])


def dense_lipschitz(inst):
    """``(h, per_agent)`` from the spectral norm of each agent's full row map."""
    C = dense_C(inst)
    M = inst.M
    per_agent = [np.linalg.norm(C[i * M:(i + 1) * M], 2) ** 2 / a.f.strong_convexity
                 for i, a in enumerate(inst.agents)]
    return float(sum(per_agent)), per_agent


# ---------------------------------------------------------------------------
# the catalog kernels as they stood before their constants were bound once
# ---------------------------------------------------------------------------

_TIE_TOL = 1e-12


def reference_quadratic_value(q, x):
    """``QuadraticFunction.value`` written with the full sums, for any ``M``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    half_xC = ((0.5 * x)[..., :, None] * q.curvature).sum(axis=-2)
    val = (half_xC * x).sum(axis=-1) + (q.linear * x).sum(axis=-1) + q.offset
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def reference_conjugate_argmax(f, u) -> np.ndarray:
    """``conjugate_argmax`` computing every candidate and check on each call."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    base, dom = f.base, f.effective_domain
    if not isinstance(base, PiecewiseQuadraticUtility):
        if dom is None and not bool(np.all(np.asarray(base.strong_convexity) > 0)):
            raise UnboundedConjugateError("quadratic lacks curvature on unbounded domain")
        if not base.is_diagonal:
            if dom is not None:
                raise NonStronglyConvexError("box-domain argmax implemented for diagonal curvature")
            return np.linalg.solve(base.curvature, (u - base.linear)[..., None])[..., 0]
        diag = np.diagonal(base.curvature, axis1=-2, axis2=-1)
        if (diag <= 0).any():
            raise NonStronglyConvexError("box-domain argmax needs positive diagonal curvature")
        x = (u - base.linear) / diag
        return x if dom is None else np.clip(x, dom.lower, dom.upper)
    s = u[..., 0]
    lo = -np.inf if dom is None else dom.lower[..., 0]
    hi = np.inf if dom is None else dom.upper[..., 0]
    if ((s > 0) & np.isinf(hi)).any():
        raise UnboundedConjugateError("positive slope on the unbounded flat branch")
    stat = (s + base.price) / (2.0 * base.curvature)
    x_thr = np.minimum(np.maximum(base.price / (2.0 * base.curvature), lo), hi)
    x_quad = np.minimum(np.maximum(stat, lo), x_thr)
    cands = np.empty((4,) + s.shape)
    cands[0] = np.where(np.isinf(lo), x_quad, lo)
    cands[1] = x_quad
    cands[2] = x_thr
    cands[3] = np.where(np.isinf(hi), x_thr, hi)
    flat = -np.float_power(base.price, 2) / (4.0 * base.curvature)
    vals = s * cands - np.where(cands <= base.price / (2.0 * base.curvature),
                                base.curvature * cands * cands - base.price * cands, flat)
    best_x, best_v = cands[0], vals[0]
    for x, val in zip(cands[1:], vals[1:]):  # ascending; ties keep the smaller x
        better = val > best_v + _TIE_TOL
        best_x = np.where(better, x, best_x)
        best_v = np.where(better, val, best_v)
    return best_x[..., None]


def reference_group(members):
    """The group of ``members`` as the per-class ``stack`` constructors built it."""
    first = members[0]
    if isinstance(first, BoxSet):
        return BoxSet(np.array([b.lower for b in members]),
                      np.array([b.upper for b in members]))
    if isinstance(first, QuadraticFunction):
        return QuadraticFunction(np.array([q.curvature for q in members]),
                                 np.array([q.linear for q in members]),
                                 np.array([q.offset for q in members]))
    if isinstance(first, PiecewiseQuadraticUtility):
        return PiecewiseQuadraticUtility(np.array([u.price for u in members]),
                                         np.array([u.curvature for u in members]))
    if isinstance(first, SmoothConjugable):
        domain = None
        if first.effective_domain is not None:
            domain = reference_group([f.effective_domain for f in members])
        return SmoothConjugable(reference_group([f.base for f in members]), domain)
    quad = None if first.quad is None else reference_group([g.quad for g in members])
    box = None if first.box is None else reference_group([g.box for g in members])
    return ProxFriendlyFunction(first.kind, np.array([g.weight for g in members]), quad, box)


def reference_with_box(g, box):
    """``g.with_box(box)`` intersecting every box, its own included."""
    if box is None:
        return g
    if g.box is not None:
        box = BoxSet(np.maximum(g.box.lower, box.lower), np.minimum(g.box.upper, box.upper))
    if g.kind == "quadratic":
        return ProxFriendlyFunction.quadratic(g.quad, box)
    return ProxFriendlyFunction(g.kind, weight=g.weight, box=box)


def reference_groups(members, key) -> tuple:
    """``(agents, group)`` for each key, in order of first member, as the
    compiled instance formed them before the instance grouped its agents
    (from the stack constructors here).  ``agents`` is a ``slice`` when
    they are consecutive, else their index array."""
    by_key = {}
    for i, member in enumerate(members):
        by_key.setdefault(key(member), []).append(i)
    return tuple((slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1
                  else np.array(idx), reference_group([members[i] for i in idx]))
                 for idx in by_key.values())


def reference_checked_groups(part: str, members, key) -> tuple:
    """:func:`reference_groups`, each constant of ``part`` ("f" or "g") that a round or
    Psi reads computed with overflow silenced; :class:`SingularScaleError` names the
    first agent and one not finite, as the compiled instance checked them."""
    groups = reference_groups(members, key)
    with np.errstate(all="ignore"):
        for idx, fn in groups:
            base = fn.base if part == "f" else fn.quad
            named = {"strong convexity": fn.strong_convexity} if part == "f" else {}
            if isinstance(base, PiecewiseQuadraticUtility):
                named.update({"threshold price / (2 curvature)": base.threshold,
                              "flat value -price^2 / (4 curvature)": base._flat_value})
            elif base is not None:
                named.update({"linear": base.linear, "offset": base.offset,
                              "linear / diagonal curvature": base.linear / base._diagonal})
            if named and not np.isfinite(np.concatenate(list(named.values()), axis=None)).all():
                for k, i in enumerate(np.arange(len(members))[idx].tolist()):
                    for name, value in named.items():
                        if not np.isfinite(value[k]).all():
                            raise SingularScaleError(f"agent {i}: {part} {name} is not finite")
    return groups


def reference_kind_groups(inst) -> tuple:
    """``(f_groups, g_groups, sigma)`` of ``inst`` as the compiled instance built
    them, agent by agent, before the instance grouped its agents: each g
    intersected with its omega by ``with_box``."""
    f_groups = reference_checked_groups("f", [a.f for a in inst.agents],
                                        lambda f: (type(f.base), f.effective_domain is None))
    g_groups = reference_checked_groups("g", [a.g.with_box(a.omega) for a in inst.agents],
                                        lambda g: (g.kind, g.box is None))
    return f_groups, g_groups, np.array([a.f.strong_convexity for a in inst.agents])


def reference_g_quadratic_argmax(g, v) -> np.ndarray:
    """The nonsmooth quadratic's argmax as it was before it went through
    ``conjugate_argmax``: a solve without a box, a clamped division with one."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if g.box is None:
        try:
            return np.linalg.solve(g.quad.curvature, (v - g.quad.linear)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise UnboundedConjugateError("singular curvature in conjugate argmax")
    diag = np.diagonal(g.quad.curvature, axis1=-2, axis2=-1)
    if not (diag > 0).all():
        raise NonStronglyConvexError("box-constrained quadratic needs positive diagonal")
    return ((v - g.quad.linear) / diag).clip(g.box.lower, g.box.upper)


def reference_g_quadratic_conjugate(g, v):
    """Its conjugate as it was: ``v'x - g(x)`` at that argmax, ``g`` +inf off the box."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = reference_g_quadratic_argmax(g, v)
    val = g.quad.value(x)
    if g.box is not None:
        inside = np.all((x >= g.box.lower) & (x <= g.box.upper), axis=-1)
        val = np.where(inside, val, np.inf)
    val = (v * x).sum(axis=-1) - val
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


# ---------------------------------------------------------------------------
# the nonsmooth kernels as they stood while each kind had a group of its own
# ---------------------------------------------------------------------------

_ZERO_ATOL = 1e-12


def reference_g_prox(g, u, alpha) -> np.ndarray:
    """``ProxFriendlyFunction.prox`` of one kind, as it was."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if g.kind == "zero":
        v = u
    elif g.kind == "l1":
        v = np.sign(u) * np.maximum(np.abs(u) - np.asarray(np.multiply(alpha, g.weight))[..., None],
                                    0.0)
    else:
        a = np.asarray(alpha, dtype=float)[..., None]
        if not g.quad.is_diagonal:
            mat = np.eye(g.quad.dim) + a[..., None] * g.quad.curvature
            return np.linalg.solve(mat, (u - a * g.quad.linear)[..., None])[..., 0]
        diag = np.diagonal(g.quad.curvature, axis1=-2, axis2=-1)
        v = (u - a * g.quad.linear) / (1.0 + a * diag)
    return v if g.box is None else np.clip(v, g.box.lower, g.box.upper)


def _reference_end_terms(v, box, w=None) -> list:
    """``v e - w |e|`` at each end ``e`` of ``box``, as one formula for the whole box: a box
    with an infinite end takes ``(v - w sign(e)) e``, 0 where that coefficient is 0 or, at an
    infinite end, within ``1e-12 (1 + |v| + w)`` on the side where the term grows."""
    ends = (box.lower, box.upper)
    if np.isfinite(box.lower).all() and np.isfinite(box.upper).all():
        return [v * e if w is None else v * e - w * np.abs(e) for e in ends]
    tol = _ZERO_ATOL * (1.0 + np.abs(v) + (0.0 if w is None else w))
    terms = []
    for e in ends:
        c = v if w is None else v - w * np.sign(e)
        grows = np.isinf(e) & (np.abs(c) <= tol) & (np.sign(c) == np.sign(e))
        terms.append(np.multiply(c, e, out=np.zeros(c.shape), where=(c != 0) & ~grows))
    return terms


def reference_g_conjugate(g, v):
    """``ProxFriendlyFunction.conjugate`` of one kind, as it was, with the tolerance at an
    infinite box end and l1's relative bound ``w + 1e-12 (1 + |v| + w)`` without a box."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if g.kind == "zero":
        if g.box is not None:
            val = np.maximum(*_reference_end_terms(v, g.box)).sum(axis=-1)
        else:
            scale = 1.0 + np.abs(v).max(axis=-1, keepdims=True)
            val = np.where((np.abs(v) <= _ZERO_ATOL * scale).all(axis=-1), 0.0, np.inf)
    elif g.kind == "l1":
        w = np.asarray(g.weight, dtype=float)[..., None]
        if g.box is None:
            a = np.abs(v)
            val = np.where((a <= w + _ZERO_ATOL * (1.0 + a + w)).all(axis=-1), 0.0, np.inf)
        else:
            cand = np.maximum(*_reference_end_terms(v, g.box, w))
            inside = (g.box.lower <= 0) & (g.box.upper >= 0)
            val = np.where(inside, np.maximum(cand, 0.0), cand).sum(axis=-1)
    else:
        x = reference_conjugate_argmax(SmoothConjugable(g.quad, g.box), v)
        val = (v * x).sum(axis=-1) - reference_quadratic_value(g.quad, x)
    return val if isinstance(val, np.ndarray) and val.ndim else float(val)


def reference_g_argmax(g, v, ref=None) -> np.ndarray:
    """``ProxFriendlyFunction.conjugate_argmax`` of one kind, as it was (``np.select``), with
    zero in a box unbounded where ``v`` points past an infinite end."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if g.kind == "quadratic":
        return reference_conjugate_argmax(SmoothConjugable(g.quad, g.box), v)
    ref = np.zeros_like(v) if ref is None else np.atleast_1d(np.asarray(ref, dtype=float))
    lo = g.box.lower if g.box is not None else -np.inf
    hi = g.box.upper if g.box is not None else np.inf
    if g.kind == "zero":
        if g.box is not None:
            scale = 1.0 + np.abs(v)
            if ((v > _ZERO_ATOL * scale) & np.isinf(hi)).any():
                raise UnboundedConjugateError("box support unbounded above")
            if ((v < -_ZERO_ATOL * scale) & np.isinf(lo)).any():
                raise UnboundedConjugateError("box support unbounded below")
            return np.where(v > _ZERO_ATOL * scale, hi,
                            np.where(v < -_ZERO_ATOL * scale, lo, np.clip(ref, lo, hi)))
        scale = 1.0 + np.abs(v).max(axis=-1, keepdims=True)
        if (np.abs(v) > _ZERO_ATOL * scale).any():
            raise UnboundedConjugateError("support of all-space is unbounded")
        return ref
    w = np.asarray(g.weight, dtype=float)[..., None]
    tol = _ZERO_ATOL * (1.0 + np.abs(v) + w)
    above, below = v > w + tol, v < -w - tol
    if (above & np.isinf(hi)).any():
        raise UnboundedConjugateError("l1 support unbounded above")
    if (below & np.isinf(lo)).any():
        raise UnboundedConjugateError("l1 support unbounded below")
    top = np.where(np.isinf(hi), np.maximum(ref, 0.0), hi)
    bot = np.where(np.isinf(lo), np.minimum(ref, 0.0), lo)
    with np.errstate(invalid="ignore", over="ignore"):
        lower_wins = v * lo - w * np.abs(lo) >= v * hi - w * np.abs(hi)
    endpoint = np.where(np.isfinite(lo) & (np.isinf(hi) | lower_wins), lo, hi)
    return np.select(
        [above, below, (np.abs(v - w) <= tol) & (hi > 0), (np.abs(v + w) <= tol) & (lo < 0),
         (lo <= 0.0) & (0.0 <= hi)],
        [hi, lo, np.minimum(np.maximum(ref, np.maximum(lo, 0.0)), top),
         np.maximum(np.minimum(ref, np.minimum(hi, 0.0)), bot), 0.0],
        endpoint)


# ---------------------------------------------------------------------------
# the rate-bound verifier as the loop it was before it went array-at-a-time
# ---------------------------------------------------------------------------


def reference_verify_rate_bounds(trace, lam_star, psi_star, h, steps, D) -> RateBoundReport:
    """``verify_rate_bounds`` as one Python loop per quantity, row by row.

    The window sums of the delay count are spelled out as ``+=`` from ``0``:
    before Python 3.12 ``sum`` added floats that way, and since then it
    compensates, which would round differently.
    """
    if steps.values.size != trace.n_agents:
        raise ValueError(f"{steps.values.size} step sizes for {trace.n_agents} agents")
    if trace.n_transitions < 1:
        raise InsufficientTraceError("trace has no transitions")
    if len(trace.tau) < trace.n_transitions:
        raise InsufficientTraceError("read instants missing from trace")
    lam_star = np.asarray(lam_star, dtype=float)

    dist0_sq = float(np.sum((trace.lam[0] - lam_star) ** 2))
    d2 = [float(np.sum((trace.lam[k + 1] - trace.lam[k]) ** 2))
          for k in range(trace.n_transitions)]

    no_delay = []
    for K in range(1, trace.n_records):
        bound = h * dist0_sq / (2.0 * K)
        measured = trace.psi[K] - psi_star
        no_delay.append((K, bound, measured, bound - measured))

    delayed = []
    traj_const = None
    if trace.n_transitions >= D // 2 + 1:
        traj_const = reference_delayed_bound_constant(trace, lam_star, steps, h, D)
        for K in range(max(math.ceil(D / 2), 1), trace.n_records - 1):
            bound = traj_const / (K + 1)
            measured = trace.psi[K + 1] - psi_star
            delayed.append((K, bound, measured, bound - measured))

    count_rows = []
    weighted_rows = []
    lhs_c = rhs_c = lhs_w = rhs_w = 0.0
    for k in range(trace.n_transitions):
        inner = 0
        for j in range(trace.tau[k], k + 1):
            inner += d2[j]
        lhs_c += inner
        rhs_c += (D + 1) * d2[k]
        lhs_w += k * inner
        rhs_w += (2 * k + D) * (D + 1) / 2.0 * d2[k]
        count_rows.append((k, lhs_c, rhs_c, rhs_c - lhs_c))
        weighted_rows.append((k, lhs_w, rhs_w, rhs_w - lhs_w))

    return RateBoundReport(traj_const, no_delay, delayed, count_rows, weighted_rows)


def reference_delayed_bound_constant(trace, lam_star, steps, h, D) -> float:
    """``delayed_bound_constant`` as a loop over ``(k, agent)``, then over agents."""
    half = D // 2
    if trace.n_transitions < half + 1:
        raise InsufficientTraceError(
            f"need {half + 1} transitions for the trajectory constant, have {trace.n_transitions}")
    n, B, M = trace.n_agents, trace.B, trace.M

    def agent_sq_dist(a, b, i):
        th = slice(i * B, (i + 1) * B)
        mu = slice(n * B + i * M, n * B + (i + 1) * M)
        return float(np.sum((a[th] - b[th]) ** 2) + np.sum((a[mu] - b[mu]) ** 2))

    total = 0.0
    for k in range(half + 1):
        for i in range(n):
            coeff = h * (2 * k + D) * (D + 1) ** 2 / 4.0 - k / steps.values[i]
            total += coeff * agent_sq_dist(trace.lam[k + 1], trace.lam[k], i)
    star = np.asarray(lam_star, dtype=float)
    for i in range(n):
        total += agent_sq_dist(trace.lam[0], star, i) / (2.0 * steps.values[i])
    return float(total)


# ---------------------------------------------------------------------------
# the solver loop as it was before it evaluated Psi a delay window at a time
# ---------------------------------------------------------------------------


def reference_run(inst, schedule, steps, k_max, tol, lam0=None):
    """``run``'s loop with one ``dual_objective`` per round, right after it.

    Takes the resolved schedule and step sizes, and returns ``(lam, psi,
    tau, step_norm_inf, stop_reason)``.  The objective is looked up on
    ``dualprox.engine`` at each call, as ``run`` looks it up, so a test that
    patches it there patches both.
    """
    lam = np.zeros(inst.dual_dim) if lam0 is None else np.array(lam0, dtype=float)
    obj = dualprox.engine.dual_objective(inst, lam)
    lams, psis, taus, step_norms = [lam], [obj.psi], [], []
    xhat_cache = {0: obj.x_hat}
    stop_reason = "k_max"
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            tk = schedule.tau(k)
            if tk not in xhat_cache:
                raise HistoryUnderflowError(f"snapshot {tk} evicted before use at round {k}")
            lam = lams[k]
            lam_next = dualprox.engine._round(inst, lam, xhat_cache[tk], steps)
            step = float(np.abs(lam_next - lam).max())
            psi_next = math.nan
            if math.isfinite(step) or np.isfinite(lam_next).all():
                obj = dualprox.engine.dual_objective(inst, lam_next)
                psi_next = obj.psi
            lams.append(lam_next)
            psis.append(psi_next)
            taus.append(tk)
            step_norms.append(step)
            if not math.isfinite(psi_next):
                stop_reason = "nonfinite"
                break
            xhat_cache[k + 1] = obj.x_hat
            xhat_cache.pop(k - schedule.bound, None)
            if step <= tol:
                stop_reason = "tol"
                break
    return lams, psis, taus, step_norms, stop_reason


# ---------------------------------------------------------------------------
# the CSR entries and the trace writer as they were
# ---------------------------------------------------------------------------


def reference_csr(groups, others, mats):
    """``model._csr`` with ``rows`` and ``cols`` from ``np.broadcast_to``."""
    _, R, K = mats.shape
    r, c = np.arange(R)[:, None], np.arange(K)
    rows = np.broadcast_to(groups[:, None, None] * R + r, mats.shape).ravel()
    cols = np.broadcast_to(others[:, None, None] * K + c, mats.shape).ravel()
    if R == 1:
        return rows, cols, mats.ravel()
    counts = np.bincount(groups)
    n = counts[groups][:, None, None]
    start = (np.cumsum(counts) - counts)[groups][:, None, None]
    rank = np.arange(groups.size)[:, None, None] - start
    order = np.empty(mats.size, dtype=np.intp)
    order[((start * R + r * n + rank) * K + c).ravel()] = np.arange(mats.size)
    return rows[order], cols[order], mats.ravel()[order]


def reference_to_csv(trace, path) -> None:
    """``IterationTrace.to_csv`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dualprox.engine._columns(trace.n_agents, trace.B, trace.M))
        writer.writerows([k, psi, eps, step, *lam.tolist()] for k, psi, eps, step, lam in zip(
            range(trace.n_records), trace.psi, trace.epsilon, [0.0, *trace.step_norm_inf],
            trace.lam))


def reference_save(trace, csv_path, meta_path) -> None:
    """``IterationTrace.save`` with ``json.dump`` writing the metadata."""
    reference_to_csv(trace, csv_path)
    with open(meta_path, "w") as fh:
        json.dump(trace.metadata(), fh, indent=2)
