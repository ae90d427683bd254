"""Dense references for the dual operators, written from the math.

Nothing here touches the compiled instance or the catalog's groups: the
coupling matrix is assembled block by block into a dense ``A`` with
``C = [-A', -I]``, every smooth argmax and conjugate comes from its own
closed form, and the conjugate prox comes from the hand-derived oracle of
the reproduction suite.
"""

import numpy as np

from dualprox import PiecewiseQuadraticUtility
from dualprox.errors import UnboundedConjugateError
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
