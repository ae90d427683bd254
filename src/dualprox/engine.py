"""Dual proximal gradient iterations, delay scheduling, traces, bound checks.

The engine iterates deterministically on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]``.  A round reads the local
maximizers ``x_hat`` of one snapshot ``lam(tau(k))``, which is the current
iterate in sync mode and at most ``D`` rounds old in async mode.  From it
every agent takes a gradient step in ``theta`` and a proximal step in ``mu``
(through the Moreau shortcut), both anchored at its latest values.  One
round function serves both modes.  A round is a handful of numpy calls on
the compiled instance: ``u = C lam``, the argmax of each kind group,
``b - A x_hat``, the ``theta`` step and the prox of each kind group, the
last two written into one new dual vector.  Each agent sums its coupling
terms in ascending agent id, so traces are bitwise reproducible.

On a few scalar agents a round costs numpy calls, not arithmetic, so the
kernels keep their calls few.  Each kind group binds what does not depend
on the round once, on first use (see :mod:`dualprox.convex`): the
utility's clamped threshold and endpoint candidates with their values, the
quadratic's diagonal and whether it is positive.  A group of consecutive
agents is read through a slice.  :func:`run` leaves the ``x_hat`` of its
last iterate on the instance, and :func:`recover_primal` reuses it when
called at a bytewise equal ``lam``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .convex import conjugate_argmax, prox_conjugate_via_moreau
from .errors import (
    HistoryUnderflowError,
    InsufficientTraceError,
    MalformedTraceError,
    NonFiniteInitialError,
    StepSizeViolationError,
)
from .model import ProblemInstance, apply_C, instance_hash, lipschitz_constant, sum_in_order

PRNG_NAME = "numpy-PCG64"


# ---------------------------------------------------------------------------
# small value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSizes:
    """Uniform or per-agent positive step sizes."""

    mode: str  # "uniform" | "per_agent"
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all((vals > 0) & (vals < math.inf)):  # NaN fails too
            raise ValueError("step sizes must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def uniform(c: float, n_agents: int) -> "StepSizes":
        return StepSizes("uniform", np.full(n_agents, float(c)))

    @staticmethod
    def per_agent(values) -> "StepSizes":
        return StepSizes("per_agent", np.asarray(values, dtype=float))

    def satisfies_async_rule(self, h: float, D: int) -> bool:
        """Delay-aware admissibility: ``1/c_i >= h (D+1)^2`` for every agent."""
        return bool(np.all(1.0 / self.values >= h * (D + 1) ** 2 * (1 - 1e-12)))


def step_size_sync(h: float) -> float:
    """Synchronous step size ``c = 1/h``."""
    if h <= 0:
        raise ValueError("h must be positive")
    return 1.0 / h


def step_size_async(h: float, D: int, margins=None, n_agents: int = 1) -> StepSizes:
    """Per-agent sizes ``c_i = margin_i / (h (D+1)^2)`` with margins in (0, 1]."""
    if h <= 0:
        raise ValueError("h must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    margins = np.ones(n_agents) if margins is None else np.atleast_1d(margins).astype(float)
    if margins.size != n_agents:
        raise ValueError(f"{margins.size} margins for {n_agents} agents")
    if not np.all((margins > 0) & (margins <= 1)):  # NaN fails too
        raise ValueError("margins must lie in (0, 1]")
    return StepSizes.per_agent(margins / (h * (D + 1) ** 2))


@dataclass
class DelaySchedule:
    """The read-instant map ``k -> tau(k)`` with staleness bound ``D``.

    Delays are uniform across agents at each instant.  ``worst_case`` uses
    ``tau(k) = max(0, k - D)``, so ``worst_case(0)`` reads the current
    iterate, as a synchronous run does; ``seeded_random`` draws each delay
    from ``{0..D}`` with a named PRNG so schedules are reproducible.
    """

    bound: int
    kind: str = "worst_case"  # "worst_case" | "seeded_random"
    seed: int | None = None
    _cache: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("delay bound must be nonnegative")
        if self.kind not in ("worst_case", "seeded_random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "seeded_random" and self.seed is None:
            raise ValueError("seeded_random schedule needs a seed")
        self._rng = np.random.Generator(np.random.PCG64(self.seed or 0))

    @staticmethod
    def worst_case(D: int) -> "DelaySchedule":
        return DelaySchedule(D, "worst_case")

    @staticmethod
    def seeded(D: int, seed: int) -> "DelaySchedule":
        return DelaySchedule(D, "seeded_random", seed)

    def tau(self, k: int) -> int:
        if self.kind == "worst_case":
            return max(0, k - self.bound)
        while len(self._cache) <= k:
            j = len(self._cache)
            delay = int(self._rng.integers(0, self.bound + 1))
            self._cache.append(max(0, j - delay))
        return self._cache[k]


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def _maximizers(instance: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """Every agent's conjugate argmax of its smooth part at ``u_i``, stacked."""
    x_hat = np.empty_like(u)
    for idx, f in instance.compiled.f_groups:
        x_hat[idx] = conjugate_argmax(f, u[idx])
    return x_hat


def grad_P_block(instance: ProblemInstance, x_hat: np.ndarray):
    """The gradient ``(grad_theta, grad_mu)`` of the dual smooth part, stacked.

    ``grad_theta_i = b^(i) - sum_l A_l^(i) x_hat_l`` over agent ``i``'s
    nonzero blocks, subtracted in ascending ``l``, shaped ``(N, B)``;
    ``grad_mu_i = -x_hat_i``.
    """
    comp = instance.compiled
    rows, cols, vals = comp.A
    grad_theta = comp.b.copy()
    np.subtract.at(grad_theta, rows, vals * x_hat.ravel()[cols])
    return grad_theta.reshape(comp.n_agents, comp.B), -x_hat


def _round(instance: ProblemInstance, lam: np.ndarray, x_hat: np.ndarray,
           steps: StepSizes) -> np.ndarray:
    """One round from the snapshot maximizers ``x_hat``, anchored at ``lam``."""
    comp = instance.compiled
    theta, mu = comp.split(lam)
    g_theta, g_mu = grad_P_block(instance, x_hat)
    c = steps.values[:, None]
    lam_next = np.empty_like(lam)
    theta_next, mu_next = comp.split(lam_next)
    np.subtract(theta, c * g_theta, out=theta_next)
    v = mu - c * g_mu
    for idx, g in comp.g_groups:
        mu_next[idx] = prox_conjugate_via_moreau(g, v[idx], steps.values[idx])
    return lam_next


# ---------------------------------------------------------------------------
# dual objective and primal recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualObjective:
    psi: float
    p_part: float
    q_part: float
    x_hat: np.ndarray


def dual_objective(instance: ProblemInstance, lam: np.ndarray) -> DualObjective:
    """Evaluate ``Psi = P + Q`` and the local maximizers ``x_hat`` at ``lam``.

    ``P`` adds, agent by agent, ``u_i'x_hat_i - f_i(x_hat_i)`` and then
    ``b^(i)'theta_i``; ``Q`` adds the conjugates ``g_i*(mu_i)``.  ``Q`` is an
    extended real: ``inf`` when some ``mu_i`` leaves the domain of its
    nonsmooth conjugate.  An unbounded smooth conjugate raises
    :class:`~dualprox.errors.UnboundedConjugateError` from the argmax.
    """
    comp = instance.compiled
    theta, mu = comp.split(lam)
    u = apply_C(instance, lam)
    x_hat = _maximizers(instance, u)
    f_val = np.empty(comp.n_agents)
    for idx, f in comp.f_groups:
        f_val[idx] = f.value(x_hat[idx])
    q_val = np.empty(comp.n_agents)
    for idx, g in comp.g_groups:
        q_val[idx] = g.conjugate(mu[idx])
    # P's terms in the order they are added: per agent, u_i'x_i - f_i(x_i), b_i'theta_i
    p_terms = np.empty((comp.n_agents, 2))
    p_terms[:, 0] = (u * x_hat).sum(axis=1) - f_val
    p_terms[:, 1] = (comp.b.reshape(theta.shape) * theta).sum(axis=1)
    p_part = sum_in_order(p_terms)
    q_part = sum_in_order(q_val)
    return DualObjective(p_part + q_part, p_part, q_part, x_hat)


@dataclass(frozen=True)
class PrimalRecovery:
    x_hat: np.ndarray
    z_hat: np.ndarray
    mismatch: float


def recover_primal(instance: ProblemInstance, lam: np.ndarray) -> PrimalRecovery:
    """Recover ``(x_hat, z_hat)``, each ``(N, M)``, from a (near-)optimal dual point.

    ``x_hat_i`` maximizes the smooth Lagrangian part; ``z_hat_i`` maximizes
    ``mu_i' z - (g_i + indicator(omega_i))(z)`` with ties broken toward
    ``x_hat_i``.  The mismatch ``||x_hat - z_hat||`` is a convergence
    diagnostic, reported rather than raised.  When ``lam`` is bytewise the
    last iterate of the last :func:`run` on this instance, as
    ``trace.lam[-1]`` is, the run's ``x_hat`` there is reused.
    """
    comp = instance.compiled
    lam = np.asarray(lam, dtype=float)
    _, mu = comp.split(lam)
    key, last = comp.last_x_hat
    if key == lam.tobytes():
        x_hat = last.copy()
    else:
        x_hat = _maximizers(instance, apply_C(instance, lam))
    z_hat = np.empty_like(x_hat)
    for idx, g in comp.g_groups:
        z_hat[idx] = g.conjugate_argmax(mu[idx], ref=x_hat[idx])
    mismatch = math.sqrt(sum_in_order(((x_hat - z_hat) ** 2).sum(axis=1)))
    return PrimalRecovery(x_hat, z_hat, mismatch)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@dataclass
class IterationTrace:
    """Per-round record of the dual trajectory and its diagnostics.

    ``lam[k]`` is the state entering round ``k`` (so ``len(lam) == K + 1``
    after ``K`` rounds), and ``psi``/``epsilon`` are aligned with it.
    Transition arrays (``tau``, ``step_norm_inf``, ``message_counts``) have
    length ``K``: entry ``k`` describes the move from ``lam[k]`` to
    ``lam[k+1]``, read from the snapshot ``lam[tau[k]]`` with
    ``message_counts[k]`` neighbour maximizers.  ``meta`` holds the run's
    configuration, its ``stop_reason`` (``"tol"``, ``"k_max"`` or
    ``"nonfinite"``) and ``psi_star_source`` (``"given"`` or
    ``"best_observed"``).
    """

    n_agents: int
    B: int
    M: int
    psi_star: float
    meta: dict = field(default_factory=dict)
    lam: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    epsilon: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    step_norm_inf: list = field(default_factory=list)
    message_counts: list = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return len(self.lam)

    @property
    def n_transitions(self) -> int:
        return len(self.step_norm_inf)

    # -- serialization --

    def column_names(self):
        cols = ["k", "psi", "epsilon", "step_norm_inf"]
        for i in range(self.n_agents):
            cols += [f"theta_{i}_{b}" for b in range(self.B)]
        for i in range(self.n_agents):
            cols += [f"mu_{i}_{m}" for m in range(self.M)]
        return cols

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names())
            for k in range(self.n_records):
                step = self.step_norm_inf[k - 1] if k > 0 else 0.0
                row = [k, repr(self.psi[k]), repr(self.epsilon[k]), repr(step)]
                row += [repr(float(x)) for x in self.lam[k]]
                writer.writerow(row)

    def metadata(self) -> dict:
        meta = dict(self.meta)
        meta.update({
            "n_agents": self.n_agents,
            "B": self.B,
            "M": self.M,
            "psi_star": self.psi_star,
            "tau": self.tau,
            "message_counts": self.message_counts,
            "prng": PRNG_NAME,
        })
        return meta

    def save(self, csv_path, meta_path) -> None:
        self.to_csv(csv_path)
        with open(meta_path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2)

    @staticmethod
    def from_csv(csv_path, meta_path=None) -> "IterationTrace":
        meta = {}
        if meta_path is not None:
            try:
                with open(meta_path) as fh:
                    meta = json.load(fh)
            except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise MalformedTraceError(f"cannot read trace metadata {meta_path}: {exc}")
            if not isinstance(meta, dict):
                raise MalformedTraceError(f"trace metadata {meta_path} is not a JSON object")
        try:
            with open(csv_path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = [row for row in reader if row]
        except (OSError, StopIteration) as exc:
            raise MalformedTraceError(f"cannot read trace {csv_path}: {exc}")
        if header[:4] != ["k", "psi", "epsilon", "step_norm_inf"]:
            raise MalformedTraceError("unexpected trace header")
        n_theta = sum(1 for c in header if c.startswith("theta_"))
        n_mu = sum(1 for c in header if c.startswith("mu_"))
        n_agents = meta.get("n_agents")
        if n_agents is None:
            n_agents = len({c.split("_")[1] for c in header if c.startswith("theta_")})
        if (type(n_agents) is not int or not n_theta or not n_agents
                or n_theta % n_agents or n_mu % n_agents):
            raise MalformedTraceError(
                f"trace has {n_theta} theta and {n_mu} mu columns, which do not split "
                f"over {n_agents!r} agents")
        B = n_theta // n_agents
        M = n_mu // n_agents
        trace = IterationTrace(n_agents, B, M, meta.get("psi_star", float("nan")), meta)
        expected = 4 + n_theta + n_mu
        for row in rows:
            if len(row) != expected:
                raise MalformedTraceError(f"row of length {len(row)}, expected {expected}")
            try:
                trace.psi.append(float(row[1]))
                trace.epsilon.append(float(row[2]))
                trace.lam.append(np.array([float(x) for x in row[4:]]))
            except ValueError as exc:
                raise MalformedTraceError(f"unparseable value in trace: {exc}")
        for k in range(1, trace.n_records):
            diff = trace.lam[k] - trace.lam[k - 1]
            trace.step_norm_inf.append(float(np.max(np.abs(diff))) if diff.size else 0.0)
        tau, counts = meta.get("tau", []), meta.get("message_counts", [])
        if type(tau) is not list or type(counts) is not list or any(
                type(t) is not int or not 0 <= t <= k for k, t in enumerate(tau)):
            raise MalformedTraceError("trace metadata: tau and message_counts must be lists, "
                                      "with read instants 0 <= tau[k] <= k")
        trace.tau, trace.message_counts = list(tau), list(counts)
        return trace


# ---------------------------------------------------------------------------
# the solver loop
# ---------------------------------------------------------------------------


def run(instance: ProblemInstance, mode: str = "sync",
        schedule: DelaySchedule | None = None, steps: StepSizes | None = None,
        k_max: int = 100_000, tol: float = 1e-8, lam0: np.ndarray | None = None,
        psi_star: float | None = None, allow_step_violation: bool = False) -> IterationTrace:
    """Execute the solver in ``sync`` or ``async`` mode and record a full trace.

    Runs until the step norm ``||lam(k+1) - lam(k)||_inf`` drops to ``tol``,
    ``k_max`` rounds elapse, or ``lam`` or ``Psi`` turns non-finite (the
    round that did so is recorded, with ``Psi`` nan for a non-finite
    ``lam``); ``meta["stop_reason"]`` says which.  ``epsilon`` records
    ``Psi(lam(k)) - psi_star``; when no reference is supplied the best
    finite observed value is used.  The run is deterministic given
    (instance, mode, schedule, steps, lam0).
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown mode {mode!r}")
    if steps is not None and steps.values.size != instance.n_agents:
        raise ValueError(f"{steps.values.size} step sizes for {instance.n_agents} agents")
    h, _ = lipschitz_constant(instance)
    if mode == "sync":
        if schedule is not None and (schedule.bound > 0 or schedule.kind == "seeded_random"):
            raise ValueError("sync mode takes no delay schedule; use mode='async'")
        schedule = DelaySchedule.worst_case(0)
        if steps is None:
            steps = StepSizes.uniform(step_size_sync(h), instance.n_agents)
    else:
        if schedule is None:
            raise ValueError("async mode requires a delay schedule")
        if steps is None:
            steps = step_size_async(h, schedule.bound, n_agents=instance.n_agents)
        if not allow_step_violation and not steps.satisfies_async_rule(h, schedule.bound):
            raise StepSizeViolationError(
                "step sizes violate 1/c_i >= h (D+1)^2; pass allow_step_violation to override")

    if lam0 is None:
        lam = np.zeros(instance.dual_dim)
    else:
        lam = np.array(lam0, dtype=float)
        if lam.shape != (instance.dual_dim,):
            raise ValueError(f"lam0 has shape {lam.shape}; expected a vector of "
                             f"length dual_dim = {instance.dual_dim}")
        if not np.isfinite(lam).all():
            raise NonFiniteInitialError("lam(0) is not finite")
    obj = dual_objective(instance, lam)
    if not np.isfinite(obj.psi):
        raise NonFiniteInitialError(f"Psi(lam(0)) = {obj.psi}")

    n_msgs = instance.compiled.n_messages
    trace = IterationTrace(instance.n_agents, instance.B, instance.M,
                           psi_star if psi_star is not None else float("nan"))
    trace.meta = {
        "instance_hash": instance_hash(instance),
        "mode": mode,
        "D": schedule.bound,
        "schedule": schedule.kind,
        "seed": schedule.seed,
        "step_mode": steps.mode,
        "step_sizes": steps.values.tolist(),
        "tol": tol,
        "k_max": k_max,
        "h": h,
        "stopping": "step_norm_inf",
        "psi_star_source": "best_observed" if psi_star is None else "given",
    }
    trace.lam.append(lam)
    trace.psi.append(obj.psi)

    # maximizers of the last D + 1 iterates, the snapshots a round may read
    xhat_cache = {0: obj.x_hat}
    stop_reason = "k_max"
    # a diverging run overflows on its way to the non-finite round that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            tk = schedule.tau(k)
            if tk not in xhat_cache:
                raise HistoryUnderflowError(f"snapshot {tk} evicted before use at round {k}")
            lam = trace.lam[k]
            lam_next = _round(instance, lam, xhat_cache[tk], steps)
            step = float(np.abs(lam_next - lam).max())
            psi_next = math.nan
            # a finite step needs finite iterates; an infinite one may be an overflow
            if math.isfinite(step) or np.isfinite(lam_next).all():
                obj = dual_objective(instance, lam_next)
                psi_next = obj.psi
            trace.lam.append(lam_next)
            trace.psi.append(psi_next)
            trace.tau.append(tk)
            trace.step_norm_inf.append(step)
            trace.message_counts.append(n_msgs)

            if not math.isfinite(psi_next):
                stop_reason = "nonfinite"
                break
            xhat_cache[k + 1] = obj.x_hat
            xhat_cache.pop(k - schedule.bound, None)

            if step <= tol:
                stop_reason = "tol"
                break

    trace.meta["stop_reason"] = stop_reason
    if stop_reason != "nonfinite":  # else obj may belong to the iterate before
        instance.compiled.last_x_hat = (trace.lam[-1].tobytes(), obj.x_hat.copy())
    if psi_star is None:
        psi = np.asarray(trace.psi)
        trace.psi_star = float(np.min(psi[np.isfinite(psi)]))
    trace.epsilon = [p - trace.psi_star for p in trace.psi]
    return trace


# ---------------------------------------------------------------------------
# rate-bound verification
# ---------------------------------------------------------------------------


@dataclass
class RateBoundReport:
    """Measured-versus-bound slacks for the convergence guarantees.

    Slack is ``bound - measured``; nonnegative slack (up to round-off) means
    the guarantee held.  The trajectory constant for the delayed bound is
    formed from the trace's own early step norms, as its definition requires.
    """

    trajectory_constant: float | None
    no_delay_rate: list  # (K, bound, measured, slack)
    delayed_rate: list  # (K, bound, measured, slack)
    delay_count: list  # (K, lhs, rhs, slack)
    weighted_delay_count: list  # (K, lhs, rhs, slack)

    FIELDS = ("no_delay_rate", "delayed_rate", "delay_count", "weighted_delay_count")

    def min_slacks(self) -> dict:
        out = {}
        for name in self.FIELDS:
            rows = getattr(self, name)
            out[name] = min((r[3] for r in rows), default=None)
        return out

    def to_json(self) -> dict:
        doc = {
            "trajectory_constant": self.trajectory_constant,
            "min_slacks": self.min_slacks(),
        }
        for name in self.FIELDS:
            doc[name] = [list(r) for r in getattr(self, name)]
        return doc


def delayed_bound_constant(trace: IterationTrace, lam_star: np.ndarray,
                           steps: StepSizes, h: float, D: int) -> float:
    """Trajectory constant of the delayed-rate bound.

    ``sum_{k<=floor(D/2)} sum_i (h(2k+D)(D+1)^2/4 - k/c_i) ||dlam_i(k)||^2
    + sum_i ||lam_i(0) - lam_i*||^2 / (2 c_i)``.
    """
    half = D // 2
    if trace.n_transitions < half + 1:
        raise InsufficientTraceError(
            f"need {half + 1} transitions for the trajectory constant, have {trace.n_transitions}")
    n, B, M = trace.n_agents, trace.B, trace.M

    def agent_sq_dist(a, b, i):
        """``||(theta_i, mu_i)(a) - (theta_i, mu_i)(b)||^2``."""
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


def verify_rate_bounds(trace: IterationTrace, lam_star: np.ndarray,
                       psi_star: float, h: float, steps: StepSizes,
                       D: int) -> RateBoundReport:
    """Check the rate guarantees and the delay-counting inequalities.

    The no-delay rate is evaluated at every ``K >= 1``; the delayed rate at
    every ``K >= ceil(D/2)`` with the trajectory constant from the early
    steps; the two delay-counting inequalities (plain and iteration
    weighted) are accumulated from the recorded step norms using the trace's
    own read instants.
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
    half_up = math.ceil(D / 2)
    if trace.n_transitions >= D // 2 + 1:
        traj_const = delayed_bound_constant(trace, lam_star, steps, h, D)
        for K in range(max(half_up, 1), trace.n_records - 1):
            bound = traj_const / (K + 1)
            measured = trace.psi[K + 1] - psi_star
            delayed.append((K, bound, measured, bound - measured))

    count_rows = []
    weighted_rows = []
    lhs_c = rhs_c = lhs_w = rhs_w = 0.0
    for k in range(trace.n_transitions):
        inner = sum(d2[j] for j in range(trace.tau[k], k + 1))
        lhs_c += inner
        rhs_c += (D + 1) * d2[k]
        lhs_w += k * inner
        rhs_w += (2 * k + D) * (D + 1) / 2.0 * d2[k]
        count_rows.append((k, lhs_c, rhs_c, rhs_c - lhs_c))
        weighted_rows.append((k, lhs_w, rhs_w, rhs_w - lhs_w))

    return RateBoundReport(traj_const, no_delay, delayed, count_rows, weighted_rows)
