"""Desk-scale reproduction suite: one callable check per acceptance criterion.

Shared expensive artifacts (the reference market traces and their
rate-bound reports) are computed once per :class:`ReproContext` and reused
across criteria.  Each criterion returns a :class:`CriterionResult`; the
CLI and the test suite both drive these functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convex import (
    BoxSet,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    cached_property,
    conjugate_argmax,
    conjugate_value,
)
from .engine import (
    DelaySchedule,
    StepSizes,
    recover_primal,
    run,
    verify_rate_bounds,
)
from .model import (
    AgentSpec,
    ProblemInstance,
    Topology,
    lipschitz_constant,
)
from .scenarios import build_market, build_scenario

# Published reference values for the market scenario.  The recovered primal
# point reproduces REFERENCE_X exactly; the dual objective measured at the
# converged point is 1108.115 (equal, as it must be, to the negated primal
# optimum), so the REFERENCE_PSI check documents the discrepancy rather than
# confirming the constant.
REFERENCE_X = np.array([0.0, 150.0, 48.5, 50.2, 51.3])
REFERENCE_PSI = 756.53
DELAY_SET = (0, 3, 5, 10, 15)

SLACK_TOL = 1e-9


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


class ReproContext:
    """Shared artifacts for the reproduction suite, each computed on first use."""

    def __init__(self):
        self._async = {}  # D -> the worst-case async trace
        self._reports = {}  # None (the sync trace) or D -> its RateBoundReport

    @cached_property
    def market(self) -> ProblemInstance:
        return build_market()

    @cached_property
    def h(self) -> float:
        return lipschitz_constant(self.market)[0]

    @cached_property
    def sync_trace(self):
        return run(self.market, mode="sync", tol=1e-10, k_max=100_000)

    @property
    def psi_star(self) -> float:
        return self.sync_trace.psi_star

    @property
    def lam_star(self) -> np.ndarray:
        return self.sync_trace.lam[-1]

    def async_trace(self, D: int):
        """The run with delay bound ``D`` and its default steps ``1/(h (D+1)^2)``."""
        if D not in self._async:
            self._async[D] = run(self.market, mode="async", schedule=DelaySchedule.worst_case(D),
                                 tol=1e-9, k_max=200_000, psi_star=self.psi_star)
        return self._async[D]

    def rate_report(self, D: int | None = None):
        """The rate-bound report of the sync trace (``D=None``) or of the
        async trace with delay bound ``D``, at the steps the run recorded."""
        if D not in self._reports:
            trace = self.sync_trace if D is None else self.async_trace(D)
            steps = StepSizes(trace.meta["step_mode"], trace.meta["step_sizes"])
            self._reports[D] = verify_rate_bounds(trace, self.lam_star, self.psi_star,
                                                  self.h, steps, trace.meta["D"])
        return self._reports[D]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def conjugate_prox_oracle(g: ProxFriendlyFunction, v: np.ndarray, c: float) -> np.ndarray:
    """Prox of the conjugate ``g*`` from hand-derived stationarity conditions.

    Minimizes ``g*(w) + ||w - v||^2 / (2c)`` coordinatewise by solving
    ``0 in (w - v)/c + d(g*)(w)`` branch by branch for each catalog kind,
    never invoking the package's prox or the Moreau decomposition.  The
    l1-plus-box branch assumes ``lo < 0 < hi`` (true for all sampled cases).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty_like(v)
    for m in range(v.size):
        vm = v[m]
        lo = hi = None
        if g.box is not None:
            lo, hi = float(g.box.lower[m]), float(g.box.upper[m])
        if g.kind == "zero":
            if g.box is None:
                # g* is the indicator of {0}
                out[m] = 0.0
            else:
                # g* is the box support: slope hi for w > 0, lo for w < 0
                if vm - c * hi > 0:
                    out[m] = vm - c * hi
                elif vm - c * lo < 0:
                    out[m] = vm - c * lo
                else:
                    out[m] = 0.0
        elif g.kind == "l1":
            wgt = g.weight
            if g.box is None:
                # g* is the indicator of [-wgt, wgt]
                out[m] = min(max(vm, -wgt), wgt)
            else:
                # g* is flat on [-wgt, wgt], slope hi above, lo below
                if vm - c * hi > wgt:
                    out[m] = vm - c * hi
                elif vm - c * lo < -wgt:
                    out[m] = vm - c * lo
                else:
                    out[m] = min(max(vm, -wgt), wgt)
        else:
            a = float(g.quad.curvature[m, m])
            q = float(g.quad.linear[m])
            if g.box is None:
                # (g*)'(w) = (w - q)/a
                out[m] = (q * c + vm * a) / (a + c)
            else:
                # (g*)'(w) = clip((w - q)/a, lo, hi)
                mid = (q * c + vm * a) / (a + c)
                if q + a * lo <= mid <= q + a * hi:
                    out[m] = mid
                elif vm - c * hi >= q + a * hi:
                    out[m] = vm - c * hi
                else:
                    out[m] = vm - c * lo
    return out


def catalog_samples(rng: np.random.Generator, n_cases: int):
    """Randomized (g, u, alpha) triples spanning the nonsmooth catalog."""
    kinds = ("zero", "indicator_box", "l1", "l1_plus_box", "quadratic", "quadratic_box")
    for _ in range(n_cases):
        kind = kinds[rng.integers(len(kinds))]
        dim = int(rng.integers(1, 4)) if kind not in ("quadratic", "quadratic_box") else 1
        lo = -rng.uniform(0.5, 8.0, dim)
        hi = rng.uniform(0.5, 8.0, dim)
        w = float(rng.uniform(0.1, 4.0))
        if kind == "zero":
            g = ProxFriendlyFunction.zero()
        elif kind == "indicator_box":
            g = ProxFriendlyFunction.indicator_box(BoxSet(lo, hi))
        elif kind == "l1":
            g = ProxFriendlyFunction.l1(w)
        elif kind == "l1_plus_box":
            g = ProxFriendlyFunction.l1_plus_box(w, BoxSet(lo, hi))
        else:
            quad = QuadraticFunction(rng.uniform(0.2, 5.0), [rng.uniform(-2, 2)])
            box = BoxSet(lo[:1], hi[:1]) if kind == "quadratic_box" else None
            g = ProxFriendlyFunction.quadratic(quad, box)
        u = rng.uniform(-10.0, 10.0, g.box.dim if g.box is not None else dim)
        alpha = float(rng.uniform(1e-3, 10.0))
        yield g, u, alpha


def smooth_conjugable_pool(rng: np.random.Generator):
    """Strongly convex smooth parts, including the market's agents."""
    pool = [a.f for a in build_market().agents]
    for _ in range(6):
        curv = float(rng.uniform(0.5, 6.0))
        lin = float(rng.uniform(-3, 3))
        pool.append(SmoothConjugable(QuadraticFunction(curv, [lin])))
        lo, hi = sorted(rng.uniform(-8, 8, 2))
        pool.append(SmoothConjugable(
            QuadraticFunction(curv, [lin]), BoxSet([lo], [hi + 1.0])))
    return pool


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_market_sync(ctx: ReproContext) -> CriterionResult:
    rec = recover_primal(ctx.market, ctx.lam_star)
    x = np.array([float(xi[0]) for xi in rec.x_hat])
    x_err = float(np.max(np.abs(x - REFERENCE_X)))
    psi = ctx.sync_trace.psi[-1]
    psi_err = abs(psi - REFERENCE_PSI)
    passed = x_err <= 0.1 and psi_err <= 0.5
    return CriterionResult(
        1, "market reproduction (sync)", passed,
        f"max|x - ref| = {x_err:.3g} (tol 0.1); "
        f"|Psi - {REFERENCE_PSI}| = {psi_err:.6g} (tol 0.5, measured Psi = {psi:.6f}); "
        f"{ctx.sync_trace.n_transitions} rounds")


def criterion_2_market_async(ctx: ReproContext) -> CriterionResult:
    kc = ctx.sync_trace.n_transitions
    traces = [ctx.async_trace(D) for D in DELAY_SET]
    eps_at_kc = [trace.epsilon[min(kc, trace.n_records - 1)] for trace in traces]
    eps_final = [trace.epsilon[-1] for trace in traces]
    converge_ok = all(e <= 1e-4 for e in eps_final)
    order_ok = all(b >= a - 1e-9 * (1 + abs(a))
                   for a, b in zip(eps_at_kc, eps_at_kc[1:]))
    return CriterionResult(
        2, "market reproduction (async)", converge_ok and order_ok,
        f"final eps per D {dict(zip(DELAY_SET, [f'{e:.2e}' for e in eps_final]))}; "
        f"eps at checkpoint k={kc}: {[f'{e:.4g}' for e in eps_at_kc]} "
        f"(nondecreasing in D: {order_ok})")


def criterion_3_no_delay_rate(ctx: ReproContext) -> CriterionResult:
    rows = ctx.rate_report().no_delay_rate
    worst = min(r[3] for r in rows)
    return CriterionResult(
        3, "no-delay rate bound", worst >= -SLACK_TOL,
        f"min slack over K = {worst:.3e} across {len(rows)} checkpoints")


def criterion_4_delayed_rate(ctx: ReproContext) -> CriterionResult:
    worsts = {D: min(r[3] for r in ctx.rate_report(D).delayed_rate) for D in DELAY_SET}
    passed = all(w >= -SLACK_TOL for w in worsts.values())
    return CriterionResult(
        4, "delayed rate bound", passed,
        "min slack per D: " + ", ".join(f"{d}: {w:.3e}" for d, w in worsts.items()))


def criterion_5_delay_counts(ctx: ReproContext) -> CriterionResult:
    reports = {D: ctx.rate_report(D) for D in (None, *DELAY_SET)}  # None: the sync trace
    worst = min(r[3] for report in reports.values()
                for r in report.delay_count + report.weighted_delay_count)
    eq_gap = max(abs(r[2] - r[1]) for D in (None, 0) for r in reports[D].delay_count)
    passed = worst >= -SLACK_TOL and eq_gap <= 1e-12
    return CriterionResult(
        5, "delay-counting inequalities", passed,
        f"min slack = {worst:.3e}; D=0 equality gap = {eq_gap:.3e}")


def criterion_6_reduction(ctx: ReproContext) -> CriterionResult:
    # the default async step at D = 0, 1/h, is the sync step bit for bit
    async0 = run(ctx.market, mode="async", schedule=DelaySchedule.worst_case(0),
                 tol=1e-10, k_max=100_000, psi_star=ctx.psi_star)
    sync = ctx.sync_trace
    if async0.n_records != sync.n_records:
        return CriterionResult(6, "async D=0 reduces to sync", False,
                               f"record counts differ: {async0.n_records} vs {sync.n_records}")
    gap = max(float(np.max(np.abs(a - b)))
              for a, b in zip(async0.lam, sync.lam))
    return CriterionResult(6, "async D=0 reduces to sync", gap <= 1e-12,
                           f"max per-coordinate gap = {gap:.3e} over {sync.n_records} records")


def criterion_7_moreau(ctx: ReproContext, n_cases: int = 1000) -> CriterionResult:
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for g, u, alpha in catalog_samples(rng, n_cases):
        left = alpha * conjugate_prox_oracle(g, u / alpha, 1.0 / alpha)
        right = g.prox(u, alpha)
        worst = max(worst, float(np.max(np.abs(left + right - u))))
    return CriterionResult(
        7, "Moreau decomposition identity", worst <= 1e-9,
        f"max residual over {n_cases} randomized cases = {worst:.3e}")


def criterion_8_conjugate_gradient(ctx: ReproContext) -> CriterionResult:
    rng = np.random.default_rng(7)
    pool = smooth_conjugable_pool(rng)
    worst_rel = 0.0
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 20_000:
        attempts += 1
        f = pool[rng.integers(len(pool))]
        u = float(rng.uniform(-25, 25))
        step = 1e-5 * (1 + abs(u))
        if not _smooth_region(f, u, 4 * step):
            continue
        grad = float(conjugate_argmax(f, [u])[0])
        fd = (conjugate_value(f, [u + step]) - conjugate_value(f, [u - step])) / (2 * step)
        rel = abs(fd - grad) / max(1.0, abs(grad))
        worst_rel = max(worst_rel, rel)
        accepted += 1
    grad_ok = accepted == 200 and worst_rel <= 1e-5

    # the Lipschitz inequality presumes strong convexity, so the saturating
    # utilities (flat branch) are excluded from the pair sample
    strong = [f for f in pool if isinstance(f.base, QuadraticFunction)]
    worst_lip = -math.inf
    for _ in range(1000):
        f = strong[rng.integers(len(strong))]
        u, v = rng.uniform(-25, 25, 2)
        du = float(np.abs(conjugate_argmax(f, [u]) - conjugate_argmax(f, [v]))[0])
        slack = abs(u - v) / f.strong_convexity - du
        worst_lip = max(worst_lip, -slack)
    lip_ok = worst_lip <= 1e-10
    return CriterionResult(
        8, "conjugate gradient checks", grad_ok and lip_ok,
        f"max FD relative error = {worst_rel:.3e} over {accepted} points; "
        f"max Lipschitz violation = {worst_lip:.3e} over 1000 pairs")


def _smooth_region(f: SmoothConjugable, u: float, margin: float) -> bool:
    """True when the conjugate is twice differentiable around ``u``.

    Rejects points whose maximizer sits at (or numerically near) a domain
    endpoint or the utility's saturation threshold.
    """
    for uu in (u - margin, u + margin):
        x = float(conjugate_argmax(f, [uu])[0])
        pad = margin / f.strong_convexity + 1e-6
        dom = f.effective_domain
        if dom is not None:
            if x < dom.lower[0] + pad or x > dom.upper[0] - pad:
                return False
        if hasattr(f.base, "threshold") and abs(x - f.base.threshold) < pad:
            return False
    return True


def _two_agent_instance() -> ProblemInstance:
    """M = B = 1 pair with quadratic smooth parts and wide boxes.

    Global constraint ``x_0 - x_1 = 1`` interpreted with transforms 1 and
    -2; the analytic optimum is ``x = (5/6, -1/6)`` (boxes inactive).
    """
    box = BoxSet([-10.0], [10.0])
    f0 = SmoothConjugable(QuadraticFunction(2.0, [1.0]))
    f1 = SmoothConjugable(QuadraticFunction(4.0, [-2.0]))
    agents = (AgentSpec(f0, ProxFriendlyFunction.zero(), box),
              AgentSpec(f1, ProxFriendlyFunction.zero(), box))
    blocks = [[[1.0]], [[-1.0]], [[-2.0]], [[2.0]]]
    return ProblemInstance(Topology(2, [(0, 1)]), agents, 1, 1,
                           [0, 0, 1, 1], [0, 1, 0, 1], blocks, [[1.0], [-2.0]])


def _two_agent_dual_grid_min(levels: int = 9, points: int = 13) -> float:
    """Refined dense grid search over the stacked dual vector.

    Written from first principles against the two-agent instance above:
    closed-form conjugates of the quadratics and box support functions, no
    engine code on the evaluation path.
    """
    T = np.array([1.0, -2.0])
    A = np.array([1.0, -1.0])      # global row; agent blocks are T_i * A
    b = np.array([1.0, -2.0])      # transformed right-hand sides
    curv = np.array([2.0, 4.0])
    lin = np.array([1.0, -2.0])
    lo, hi = -10.0, 10.0

    def psi(th0, th1, mu0, mu1):
        s = T[0] * th0 + T[1] * th1
        val = b[0] * th0 + b[1] * th1
        for i, (u, c, q) in enumerate(zip(
                (-A[0] * s - mu0, -A[1] * s - mu1), curv, lin)):
            val = val + (u - q) ** 2 / (2.0 * c)          # quadratic conjugate
        for mu in (mu0, mu1):
            val = val + np.maximum(mu * lo, mu * hi)      # box support
        return val

    center = np.zeros(4)
    radius = 5.0
    best = np.inf
    for _ in range(levels):
        axes = [np.linspace(c - radius, c + radius, points) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = psi(*grids)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = float(vals[idx])
        center = np.array([axes[d][idx[d]] for d in range(4)])
        radius *= 2.0 / (points - 1)
    return best


def criterion_9_brute_force(ctx: ReproContext) -> CriterionResult:
    inst = _two_agent_instance()
    trace = run(inst, mode="sync", tol=1e-12, k_max=200_000)
    psi_engine = trace.psi[-1]
    psi_grid = _two_agent_dual_grid_min()
    rec = recover_primal(inst, trace.lam[-1])
    x = np.array([float(v[0]) for v in rec.x_hat])
    x_ref = np.array([5.0 / 6.0, -1.0 / 6.0])  # KKT solution of the equality QP
    psi_gap = abs(psi_engine - psi_grid)
    x_gap = float(np.max(np.abs(x - x_ref)))
    return CriterionResult(
        9, "brute-force oracle equivalence", psi_gap <= 1e-3 and x_gap <= 1e-4,
        f"|Psi_engine - Psi_grid| = {psi_gap:.3e} (tol 1e-3); "
        f"max|x - x_qp| = {x_gap:.3e} (tol 1e-4)")


def criterion_10_consensus(ctx: ReproContext) -> CriterionResult:
    inst = build_scenario("consensus", {"targets": [0.0, 3.0, 6.0]})
    trace = run(inst, mode="sync", tol=1e-12, k_max=200_000)
    rec = recover_primal(inst, trace.lam[-1])
    x = np.array([float(v[0]) for v in rec.x_hat])
    pair_gap = max(abs(a - b) for a, b in itertools.combinations(x, 2))
    mean_gap = float(np.max(np.abs(x - 3.0)))
    return CriterionResult(
        10, "consensus scenario", pair_gap <= 1e-4 and mean_gap <= 1e-4,
        f"max pairwise gap = {pair_gap:.3e}; max gap to mean = {mean_gap:.3e}")


ALL_CRITERIA = (
    criterion_1_market_sync,
    criterion_2_market_async,
    criterion_3_no_delay_rate,
    criterion_4_delayed_rate,
    criterion_5_delay_counts,
    criterion_6_reduction,
    criterion_7_moreau,
    criterion_8_conjugate_gradient,
    criterion_9_brute_force,
    criterion_10_consensus,
)


def run_all(ctx: ReproContext | None = None):
    ctx = ctx or ReproContext()
    return [fn(ctx) for fn in ALL_CRITERIA]
