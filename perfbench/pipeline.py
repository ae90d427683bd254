"""Workloads, the timed pipeline of one operation, and its output checks.

One operation is the whole user pipeline on one instance: build the
instance, validate it and compute its smoothness constant (set-up), run the
solver and recover the primal point (solve), save the trace (write), read it
back and verify the rate bounds (replay).  Only public names of the
``dualprox`` package are called, so the benchmark keeps working when the
engine behind them is rewritten.

An op is kept short (tens of milliseconds at most) so that a run holds
hundreds of them; see ``harness`` for why.  A workload whose answer needs a
long solve runs that solve once per run, untimed, checks its answer and
checks that every timed op reproduces its first rounds bitwise.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import dualprox
from dualprox import (
    BoxSet,
    DelaySchedule,
    IterationTrace,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    StepSizes,
    Topology,
    build_consensus,
    build_market,
    recover_primal,
    step_size_async,
    step_size_sync,
    validate_instance,
    verify_rate_bounds,
)
from dualprox.repro import REFERENCE_X

# The dual optimum of the market scenario, reproduced by the sync run at
# tol 1e-10 and by the independent oracles of the reproduction suite.  The
# published 756.53 disagrees with the published allocation and is not used.
MARKET_PSI_STAR = 1108.114974
MARKET_PSI_TOL = 1e-6
MARKET_X_TOL = 0.1
SLACK_TOL = 1e-9
DENSE_LAM_TOL = 1e-12
# Psi may rise by round-off only; a later kernel may sum in another order.
PSI_MONOTONE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def market_instance(n_agents: int, seed: int):
    """The paper's 5-agent market; it is fixed, so size and seed are unused."""
    return build_market()


def path_targets(n_agents: int, seed: int):
    """Targets and curvatures of the path-consensus locals, from the seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-10.0, 10.0, n_agents), rng.uniform(0.5, 2.0, n_agents)


def _scalar_quadratic(curv: float, target: float, domain: BoxSet | None = None):
    """``0.5 curv (x - target)^2`` as a smooth part, optionally on a box."""
    base = QuadraticFunction(curv, [-curv * target], 0.5 * curv * target * target)
    return SmoothConjugable(base, domain)


def path_instance(n_agents: int, seed: int):
    targets, curvs = path_targets(n_agents, seed)
    locals_f = [_scalar_quadratic(c, t) for t, c in zip(targets, curvs)]
    return build_consensus(Topology.path(n_agents), locals_f)


def mixed_instance(n_agents: int, seed: int):
    """Path consensus whose agents cycle through the nonsmooth catalog.

    Agent ``i`` has kind ``i % 4``: zero, l1, quadratic-on-box with an
    indicator box ``omega``, l1 plus box.  The boxed kinds also restrict the
    smooth part to the box, which takes the clipped conjugate argmax.
    """
    rng = np.random.default_rng(seed)
    targets = rng.uniform(-5.0, 5.0, n_agents)
    curvs = rng.uniform(0.5, 2.0, n_agents)
    weights = rng.uniform(0.1, 1.0, n_agents)
    g_curvs = rng.uniform(0.2, 2.0, n_agents)
    wide = BoxSet([-8.0], [8.0])
    narrow = BoxSet([-6.0], [7.0])
    locals_f, locals_g, omegas = [], [], []
    for i in range(n_agents):
        kind = i % 4
        boxed = kind in (2, 3)
        locals_f.append(_scalar_quadratic(curvs[i], targets[i], wide if boxed else None))
        omegas.append(narrow if kind == 2 else None)
        if kind == 0:
            locals_g.append(ProxFriendlyFunction.zero())
        elif kind == 1:
            locals_g.append(ProxFriendlyFunction.l1(weights[i]))
        elif kind == 2:
            quad = QuadraticFunction(g_curvs[i], [0.0])
            locals_g.append(ProxFriendlyFunction.quadratic(quad, wide))
        else:
            locals_g.append(ProxFriendlyFunction.l1_plus_box(weights[i], wide))
    return build_consensus(Topology.path(n_agents), locals_f, locals_g, omegas)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: an instance family and how it is solved."""

    name: str
    why: str
    build: Callable[[int, int], object]
    n_agents: int
    mode: str  # "sync" | "async"
    delay: int = 0
    schedule: str = "worst"  # "worst" | "random"
    tol: float = 0.0
    k_max: int = 100_000
    # > 0: once per run, solve the same problem with this many rounds at most
    # and check the answer; every timed op must be its prefix
    converge_k_max: int = 0
    # the reduced size used for the warm-up op and the self-tests
    smoke: dict = field(default_factory=dict)

    def small(self) -> "Workload":
        return replace(self, **self.smoke)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "market-async",
            "5-agent market, async worst-case D=5, 10 rounds of the 6636 to tol 1e-9: "
            "per-round cost is call overhead in the engine round and convex argmax/prox",
            market_instance, 5, "async", delay=5, schedule="worst", tol=1e-9,
            k_max=10, converge_k_max=200_000, smoke={"delay": 0, "k_max": 5}),
        Workload(
            "consensus-path",
            "path graph N=48, sync, 2 rounds: model-layer topology work "
            "(neighbors, apply_C) grows with N per round",
            path_instance, 48, "sync", k_max=2, smoke={"n_agents": 12}),
        Workload(
            "consensus-mixed",
            "path graph N=12 cycling every g kind, async seeded random D=4, "
            "6 rounds: all convex kinds, the tau cache and random read instants",
            mixed_instance, 12, "async", delay=4, schedule="random", k_max=6,
            smoke={"k_max": 3}),
    )
}


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    setup_s: float
    solve_s: float
    write_s: float
    replay_s: float
    valid: bool
    trace: object
    recovery: object
    replayed: object
    min_slack: float


def _no_span(name):
    return contextlib.nullcontext()


def setup(w: Workload, seed: int, span=_no_span):
    """Build, validate and size the step: what the CLI does before solving."""
    with span("scenarios.build"):
        inst = w.build(w.n_agents, seed)
    with span("model.validate"):
        valid = validate_instance(inst).ok
    with span("model.lipschitz"):
        h, _ = dualprox.model.lipschitz_constant(inst)
    if w.mode == "sync":
        schedule = None
        steps = StepSizes.uniform(step_size_sync(h), inst.n_agents)
    else:
        schedule = (DelaySchedule.worst_case(w.delay) if w.schedule == "worst"
                    else DelaySchedule.seeded(w.delay, seed))
        steps = step_size_async(h, w.delay, n_agents=inst.n_agents)
    return inst, valid, schedule, steps


def gated_min_slack(trace) -> float:
    """Minimum slack over the bounds ``dualprox verify`` gates on.

    Like the CLI, the reference point and value come from the trace itself.
    """
    meta = trace.meta
    D = int(meta["D"])
    steps = StepSizes(meta["step_mode"], np.asarray(meta["step_sizes"], dtype=float))
    report = verify_rate_bounds(trace, trace.lam[-1], float(np.min(trace.psi)),
                                meta["h"], steps, D)
    gated = ["delayed_rate", "delay_count", "weighted_delay_count"]
    if D == 0:
        gated.append("no_delay_rate")
    mins = report.min_slacks()
    return min(mins[name] for name in gated if mins[name] is not None)


def solve(w: Workload, inst, schedule, steps, k_max: int):
    return dualprox.engine.run(inst, mode=w.mode, schedule=schedule, steps=steps,
                               k_max=k_max, tol=w.tol)


def run_op(w: Workload, seed: int, workdir: Path, span=_no_span) -> OpResult:
    """One full pipeline, timed stage by stage with ``perf_counter``."""
    clock = time.perf_counter
    t0 = clock()
    inst, valid, schedule, steps = setup(w, seed, span)
    t1 = clock()
    with span("engine.run"):
        trace = solve(w, inst, schedule, steps, w.k_max)
    with span("engine.recover_primal"):
        recovery = recover_primal(inst, trace.lam[-1])
    t2 = clock()
    # a trace goes to new files, as after a new run: truncating the last
    # op's files costs the file system more, and more erratically
    csv_path, meta_path = workdir / "trace.csv", workdir / "trace_meta.json"
    csv_path.unlink(missing_ok=True)
    meta_path.unlink(missing_ok=True)
    t_write = clock()
    with span("engine.save"):
        trace.save(csv_path, meta_path)
    t3 = clock()
    with span("engine.from_csv"):
        replayed = IterationTrace.from_csv(csv_path, meta_path)
    with span("engine.verify"):
        min_slack = gated_min_slack(replayed)
    t4 = clock()
    return OpResult(t1 - t0, t2 - t1, t3 - t_write, t4 - t3, valid, trace, recovery,
                    replayed, min_slack)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def same_trace(a, b) -> bool:
    """True when every serialized field of two traces is bitwise equal."""
    return (
        (a.n_agents, a.B, a.M) == (b.n_agents, b.B, b.M)
        and len(a.lam) == len(b.lam)
        and _bits(a.lam) == _bits(b.lam)
        and _bits(a.psi) == _bits(b.psi)
        and _bits(a.epsilon) == _bits(b.epsilon)
        and _bits(a.step_norm_inf) == _bits(b.step_norm_inf)
        and _bits([a.psi_star]) == _bits([b.psi_star])
        and list(a.tau) == list(b.tau)
        and list(a.message_counts) == list(b.message_counts)
    )


def dense_path_reference(n_agents: int, seed: int, rounds: int) -> np.ndarray:
    """Final dual vector of the sync iteration on the path, from the math.

    Dense Laplacian ``L`` (agent ``i`` owns row ``i``), ``C = [-L', -I]``,
    ``h = sum_i ||C_i||^2 / sigma_i``, step ``1/h``.  Each round:
    ``x = t + (C lam) / sigma``, ``theta -= (b - L x) / h`` with ``b = 0``,
    and ``mu = 0``, the prox of the indicator of ``{0}`` (``g = 0``).
    """
    targets, curvs = path_targets(n_agents, seed)
    L = np.zeros((n_agents, n_agents))
    for i in range(n_agents - 1):
        L[i, i + 1] = L[i + 1, i] = -1.0
    L[np.diag_indices(n_agents)] = -L.sum(axis=1)
    C = np.hstack([-L.T, -np.eye(n_agents)])
    h = sum(np.linalg.norm(C[i:i + 1], 2) ** 2 / curvs[i] for i in range(n_agents))
    lam = np.zeros(2 * n_agents)
    for _ in range(rounds):
        x = targets + (C @ lam) / curvs
        theta = lam[:n_agents] + (L @ x) / h
        lam = np.concatenate([theta, np.zeros(n_agents)])
    return lam


def is_prefix(head, full) -> bool:
    """True when ``head`` holds bitwise the first rounds of ``full``."""
    n = len(head.lam)
    return (
        n <= len(full.lam)
        and _bits(head.lam) == _bits(full.lam[:n])
        and _bits(head.psi) == _bits(full.psi[:n])
        and _bits(head.step_norm_inf) == _bits(full.step_norm_inf[:n - 1])
        and list(head.tau) == list(full.tau[:n - 1])
        and list(head.message_counts) == list(full.message_counts[:n - 1])
    )


def check_converged(w: Workload, trace, recovery) -> list:
    """Names of the checks a converged solve failed (empty when all pass)."""
    failed = []
    if not trace.step_norm_inf or not trace.step_norm_inf[-1] <= w.tol:
        failed.append("converged")
    if w.build is market_instance:
        x = np.array([float(xi[0]) for xi in recovery.x_hat])
        if not np.max(np.abs(x - REFERENCE_X)) <= MARKET_X_TOL:
            failed.append("market_x")
        if not abs(trace.psi[-1] - MARKET_PSI_STAR) <= MARKET_PSI_TOL:
            failed.append("market_psi")
    return failed


def expectations(w: Workload, seed: int) -> dict:
    """Reference values an op is checked against, computed once per run.

    ``converged`` is the untimed solve to tolerance of a workload that has
    one, and ``converged_failed`` the checks its answer failed.
    """
    out = {}
    if w.build is path_instance:
        out["lam"] = dense_path_reference(w.n_agents, seed, w.k_max)
    if w.converge_k_max:
        inst, _, schedule, steps = setup(w, seed)
        trace = solve(w, inst, schedule, steps, w.converge_k_max)
        out["converged"] = trace
        out["converged_failed"] = check_converged(
            w, trace, recover_primal(inst, trace.lam[-1]))
    return out


def check_op(w: Workload, res: OpResult, expected: dict) -> list:
    """Names of the output checks this op failed (empty when all pass)."""
    failed = []
    trace = res.trace
    if not res.valid:
        failed.append("validate")
    if not all(math.isfinite(p) for p in trace.psi):
        failed.append("psi_finite")
    if not res.min_slack >= -SLACK_TOL:
        failed.append("rate_slack")
    if not same_trace(trace, res.replayed):
        failed.append("replay_bitwise")
    if "converged" in expected:
        failed += expected["converged_failed"]
        if not is_prefix(trace, expected["converged"]):
            failed.append("prefix")
    if "lam" in expected:
        psi = np.asarray(trace.psi)
        if not np.all(np.diff(psi) <= PSI_MONOTONE_RTOL * (1.0 + np.abs(psi[:-1]))):
            failed.append("psi_monotone")
        if not np.max(np.abs(trace.lam[-1] - expected["lam"])) <= DENSE_LAM_TOL:
            failed.append("dense_lam")
    return failed
