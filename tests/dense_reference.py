"""Dense references for the dual operators, written from the math.

Nothing here touches the compiled instance or the catalog's groups: the
coupling matrix is assembled block by block into a dense ``A`` with
``C = [-A', -I]``, every smooth argmax and conjugate comes from its own
closed form, and the conjugate prox comes from the hand-derived oracle of
the reproduction suite.

The ``reference_*`` kernels at the end are different: they keep the
catalog's own formulas as they were before per-group constants were bound
once, and the rate-bound verifier as the per-agent loop it was before it
went array-at-a-time, so the new code can be checked against them bit for
bit.
"""

import math

import numpy as np

from dualprox import PiecewiseQuadraticUtility, RateBoundReport
from dualprox.errors import InsufficientTraceError, NonStronglyConvexError, UnboundedConjugateError
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
        psi += nonsmooth_conjugate(a.effective_g, mu[i])
    return psi, x_hat


def dense_round(inst, lam, x_snap, c) -> np.ndarray:
    """``theta - c (b - A x)`` and ``prox_{c g*}(mu + c x)`` for every agent."""
    N, M, B = inst.n_agents, inst.M, inst.B
    x = x_snap.ravel()
    theta = lam[:N * B] - np.repeat(c, B) * (dense_b(inst) - dense_A(inst) @ x)
    mu = lam[N * B:].reshape(N, M)
    mu_next = [conjugate_prox_oracle(a.effective_g, mu[i] + c[i] * x_snap[i], c[i])
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
