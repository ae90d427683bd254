"""Dual proximal gradient iterations, delay scheduling, traces, bound checks.

The engine iterates deterministically on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]``.  A round reads the local
maximizers ``x_hat`` of one snapshot ``lam(tau(k))``, which is the current
iterate in sync mode and at most ``D`` rounds old in async mode.  From it
every agent takes a gradient step in ``theta`` and a proximal step in ``mu``
(through the Moreau shortcut), both anchored at its latest values.  One
round function serves both modes: ``u = C lam``, the argmax of each smooth
kind group, ``b - A x_hat``, the ``theta`` step and the prox of the one
nonsmooth group (dense quadratics have a second), written into one new dual
vector; each operator is a member of the instance, built on first use.
Each agent sums its coupling terms in ascending agent id, so traces are
bitwise reproducible.  On a few scalar agents a round costs numpy calls,
not arithmetic: each group binds what does not depend on the round once,
on first use (see :mod:`dualprox.convex`), as :class:`StepSizes` binds its
column and reciprocals, and the nonsmooth group evaluates every kind
present in one call.  :func:`run` leaves the ``x_hat`` of its last iterate
on the instance (``last_x_hat``), and :func:`recover_primal` reuses it when
called at a bytewise equal ``lam``.

Nothing in a round reads ``Psi``, so :func:`run` runs the two stages of
:func:`dual_objective` apart: the x_hat stage when a round first reads an
iterate, with every newer one, in one call over their stack (``_read``),
and the value stage over the stack of up to 64 read iterates (``_flush``);
``lam(0)`` is read and valued like every iterate.  A stack's rows run the
one-vector kernels, so traces stay bitwise.

The rate-bound verifier works an array at a time: it stacks the trace's
``lam`` once, and computes each bound, measured value and running total for
all rows together.  That is ``O(K W)`` array work for ``K`` transitions and
the trace's widest read window ``W``, and every report field is bitwise
what a loop over rounds and agents gives, sums added in the loop's order.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .convex import conjugate_argmax
from .errors import (
    HistoryUnderflowError,
    InsufficientTraceError,
    MalformedTraceError,
    NonFiniteInitialError,
    StepSizeViolationError,
    UnboundedConjugateError,
)
from .model import ProblemInstance, apply_C, instance_hash, lipschitz_constant, sum_in_order

PRNG_NAME = "numpy-PCG64"


# ---------------------------------------------------------------------------
# small value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSizes:
    """Uniform or per-agent positive step sizes, checked once and read-only; a round
    reads the column ``values[:, None]`` and the reciprocals ``1 / values``, made once."""

    mode: str  # "uniform" | "per_agent"
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, ndmin=1)  # a copy, made read-only
        if not np.all((vals > 0) & (vals < math.inf)):  # NaN fails too
            raise ValueError("step sizes must be finite and strictly positive")
        vals.flags.writeable = False
        self.__dict__.update(values=vals, _column=vals[:, None], _reciprocal=1.0 / vals)

    @staticmethod
    def uniform(c: float, n_agents: int) -> "StepSizes":
        return StepSizes("uniform", np.full(n_agents, float(c)))

    @staticmethod
    def per_agent(values) -> "StepSizes":
        return StepSizes("per_agent", np.asarray(values, dtype=float))

    def satisfies_async_rule(self, h: float, D: int) -> bool:
        """Delay-aware admissibility: ``1/c_i >= h (D+1)^2`` for every agent."""
        return bool(np.all(self._reciprocal >= h * (D + 1) ** 2 * (1 - 1e-12)))


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
        if self.kind == "seeded_random":  # a worst-case schedule draws nothing
            if self.seed is None:
                raise ValueError("seeded_random schedule needs a seed")
            self._rng = np.random.Generator(np.random.PCG64(self.seed))

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


def _by_group(groups, fn, x) -> np.ndarray:
    """``fn(group, x[agents])`` of each ``(agents, group)``, the agents on the next-to-last
    axis of ``x``, in one array: a single group's own result where it holds every agent."""
    (idx, g), *rest = groups
    if not rest and type(idx) is slice and idx == slice(0, x.shape[-2]):
        return fn(g, x)
    out = None
    for idx, g in groups:
        idx = idx if x.ndim == 2 else (slice(None), idx)  # a stack's group
        value = fn(g, x[idx])
        out = np.empty(x.shape[:-1] + value.shape[x.ndim - 1:]) if out is None else out
        out[idx] = value
    return out


def _xhat_stage(instance: ProblemInstance, lam: np.ndarray) -> tuple:
    """``(u, x_hat)`` at ``lam``: ``u = C lam`` and every agent's conjugate argmax of its
    smooth part at ``u_i``, each stacked ``(N, M)``, or ``(K, N, M)`` for a stack."""
    u = apply_C(instance, lam)
    return u, _by_group(instance.f_groups, conjugate_argmax, u)


def grad_P_block(instance: ProblemInstance, x_hat: np.ndarray):
    """The gradient ``(grad_theta, grad_mu)`` of the dual smooth part, stacked.

    ``grad_theta_i = b^(i) - sum_l A_l^(i) x_hat_l`` over agent ``i``'s
    nonzero blocks, subtracted in ascending ``l``, shaped ``(N, B)``;
    ``grad_mu_i = -x_hat_i``.
    """
    rows, cols, vals = instance.A
    grad_theta = instance.rhs.copy()
    np.subtract.at(grad_theta.ravel(), rows, vals * x_hat.ravel()[cols])  # through a view
    return grad_theta, -x_hat


def _round(instance: ProblemInstance, lam: np.ndarray, x_hat: np.ndarray,
           steps: StepSizes) -> np.ndarray:
    """One round from the snapshot maximizers ``x_hat``, anchored at ``lam``."""
    theta, mu = instance.split(lam)
    g_theta, g_mu = grad_P_block(instance, x_hat)
    c, alpha = steps._column, steps._reciprocal
    lam_next = np.empty_like(lam)
    theta_next, mu_next = instance.split(lam_next)
    np.subtract(theta, c * g_theta, out=theta_next)
    v = mu - c * g_mu
    for idx, g in instance.g_groups:  # Moreau: prox_{c g*}(v) = v - c prox_{g/c}(v/c)
        mu_next[idx] = v[idx] - c[idx] * g.prox(v[idx] / c[idx], alpha[idx])
    return lam_next


# ---------------------------------------------------------------------------
# dual objective and primal recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualObjective:
    psi: float | np.ndarray
    p_part: float | np.ndarray
    q_part: float | np.ndarray
    x_hat: np.ndarray


def dual_objective(instance: ProblemInstance, lam: np.ndarray) -> DualObjective:
    """Evaluate ``Psi = P + Q`` and the local maximizers ``x_hat`` at ``lam``.

    ``P`` adds, agent by agent, ``u_i'x_hat_i - f_i(x_hat_i)`` and then
    ``b^(i)'theta_i``; ``Q`` adds the conjugates ``g_i*(mu_i)``.  ``Q`` is an
    extended real: ``inf`` when some ``mu_i`` leaves the domain of its
    nonsmooth conjugate.  An unbounded smooth conjugate raises
    :class:`~dualprox.errors.UnboundedConjugateError` from the argmax.
    A stack ``(K, dual_dim)`` gives per-row fields, bitwise each row's own.
    It is the two stages :func:`run` calls apart, :func:`_xhat_stage` then
    :func:`_value_stage`.
    """
    return _value_stage(instance, lam, *_xhat_stage(instance, lam))


def _value_stage(instance: ProblemInstance, lam: np.ndarray, u: np.ndarray,
                 x_hat: np.ndarray) -> DualObjective:
    """:func:`dual_objective` at ``lam`` from its ``u`` and ``x_hat``: the smooth parts'
    values, the nonsmooth conjugates and the sums in order."""
    theta, mu = instance.split(lam)
    f_val = _by_group(instance.f_groups, lambda f, x: f.value(x), x_hat)
    q_val = _by_group(instance.g_groups, lambda g, v: g.conjugate(v), mu)
    # P's terms in the order they are added: per agent, u_i'x_i - f_i(x_i), b_i'theta_i
    p_terms = np.empty(lam.shape[:-1] + (2 * instance.n_agents,))
    p_terms[..., 0::2] = (u * x_hat).sum(axis=-1) - f_val
    p_terms[..., 1::2] = (instance.rhs * theta).sum(axis=-1)
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
    ``x_hat_i``, one argmax of the nonsmooth group for every kind.  The
    mismatch ``||x_hat - z_hat||`` is a convergence diagnostic, reported
    rather than raised.  When ``lam`` is bytewise the last iterate of the
    last :func:`run` on this instance, as ``trace.lam[-1]`` is, the run's
    ``x_hat`` there is reused.
    """
    lam = np.asarray(lam, dtype=float)
    _, mu = instance.split(lam)
    key, last = instance.last_x_hat
    if key == lam.tobytes():
        x_hat = last.copy()
    else:
        x_hat = _xhat_stage(instance, lam)[1]
    z_hat = np.empty_like(x_hat)  # its own array: an argmax may return ref itself
    for idx, g in instance.g_groups:
        z_hat[idx] = g.conjugate_argmax(mu[idx], ref=x_hat[idx])
    with np.errstate(over="ignore"):  # huge points: the mismatch is inf
        mismatch = math.sqrt(sum_in_order(((x_hat - z_hat) ** 2).sum(axis=1)))
    return PrimalRecovery(x_hat, z_hat, mismatch)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


@functools.cache
def _columns(n_agents: int, B: int, M: int) -> tuple:
    """The trace header for a shape: ``k, psi, epsilon, step_norm_inf``, theta, mu."""
    return ("k", "psi", "epsilon", "step_norm_inf",
            *(f"theta_{i}_{b}" for i in range(n_agents) for b in range(B)),
            *(f"mu_{i}_{m}" for i in range(n_agents) for m in range(M)))


@dataclass
class IterationTrace:
    """Per-round record of the dual trajectory and its diagnostics.

    ``lam[k]`` is the state entering round ``k`` (so ``len(lam) == K + 1``
    after ``K`` rounds), and ``psi`` is aligned with it; ``epsilon`` is
    ``psi - psi_star``, derived on access.  Transition arrays (``tau``,
    ``step_norm_inf``) have length ``K``: entry ``k`` describes the move
    from ``lam[k]`` to ``lam[k+1]``, read from the snapshot ``lam[tau[k]]``.
    Every round reads the same ``n_messages`` neighbour maximizers, fixed by
    the block pattern, so the count is stored once.
    ``meta`` holds the run's configuration, its ``stop_reason`` (``"tol"``,
    ``"k_max"`` or ``"nonfinite"``) and ``psi_star_source`` (``"given"`` or
    ``"best_observed"``).  :meth:`save` writes the trace as two files, a
    row per record and the rest as JSON; :meth:`from_csv` reads them back.
    """

    n_agents: int
    B: int
    M: int
    psi_star: float
    meta: dict = field(default_factory=dict)
    lam: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    step_norm_inf: list = field(default_factory=list)
    n_messages: int = 0

    @property
    def n_records(self) -> int:
        return len(self.lam)

    @property
    def n_transitions(self) -> int:
        return len(self.step_norm_inf)

    @property
    def message_counts(self) -> list:
        """``n_messages`` once per transition, built on each access; the benchmark reads it."""
        return [self.n_messages] * self.n_transitions

    @property
    def epsilon(self) -> list:
        """``Psi(lam(k)) - psi_star`` for every record."""
        return [p - self.psi_star for p in self.psi]

    # -- serialization --

    def to_csv(self, path) -> None:
        """Write the header, then a line per record: the bytes ``csv.writer`` writes."""
        header, psi_star = _columns(self.n_agents, self.B, self.M), self.psi_star
        row = "%d" + ",%s" * (len(header) - 1) + "\r\n"  # k, then str of every other cell
        steps = self.step_norm_inf  # steps[k - 1] moved lam[k - 1] to lam[k]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(row % (k, psi, psi - psi_star, steps[k - 1] if k else 0.0, *lam.tolist())
                          for k, (psi, lam) in enumerate(zip(self.psi, self.lam)))

    def metadata(self) -> dict:
        return {
            **self.meta,
            "n_agents": self.n_agents,
            "B": self.B,
            "M": self.M,
            "psi_star": self.psi_star,
            "tau": self.tau,
            "n_messages": self.n_messages,
            "prng": PRNG_NAME,
        }

    def save(self, csv_path, meta_path) -> None:
        """Write :meth:`to_csv`'s file and :meth:`metadata` as one line of ``json.dumps``
        output: without ``indent``, json runs its C encoder."""
        self.to_csv(csv_path)
        with open(meta_path, "w") as fh:
            fh.write(json.dumps(self.metadata()))

    @staticmethod
    def from_csv(csv_path, meta_path) -> "IterationTrace":
        """Read back the two files :meth:`save` wrote, or raise a one-line
        :class:`~dualprox.errors.MalformedTraceError`.

        The metadata fixes the shape, ``psi_star``, ``n_messages`` and the read instants.
        The CSV must carry the header written for that shape and rows
        numbered ``0..K``; ``lam`` is their theta and mu columns, one array.
        """
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            with open(csv_path, newline="") as fh:
                reader = csv.reader(fh)
                header, rows = next(reader), [row for row in reader if row]
        except (OSError, ValueError, StopIteration, csv.Error) as exc:  # JSONDecodeError too
            raise MalformedTraceError(f"cannot read trace {csv_path} with metadata {meta_path}: "
                                      f"{exc}")
        if not isinstance(meta, dict):
            raise MalformedTraceError(f"trace metadata {meta_path} is not a JSON object")
        shape = tuple(meta.get(key) for key in ("n_agents", "B", "M"))
        psi_star, tau, n_msgs = meta.get("psi_star"), meta.get("tau"), meta.get("n_messages")
        if not all(type(v) is int and v > 0 for v in shape):
            raise MalformedTraceError(f"trace metadata: n_agents, B and M = {shape} are not "
                                      "positive integers")
        if type(psi_star) not in (int, float):
            raise MalformedTraceError(f"trace metadata: psi_star = {psi_star!r} is not a number")
        if type(n_msgs) is not int or n_msgs < 0:
            raise MalformedTraceError(f"trace metadata: n_messages = {n_msgs!r} is not a "
                                      "nonnegative integer")
        if type(tau) is not list or any(
                type(t) is not int or not 0 <= t <= k for k, t in enumerate(tau)):
            raise MalformedTraceError("trace metadata: tau must be a list of read instants "
                                      "0 <= tau[k] <= k")
        n, B, M = shape  # the width first: a huge shape must not build its header
        if len(header) != 4 + n * (B + M) or tuple(header) != _columns(n, B, M):
            raise MalformedTraceError(f"trace {csv_path} does not have the header written for "
                                      f"n_agents, B and M = {shape}")
        if not rows:
            raise MalformedTraceError(f"trace {csv_path} has a header but no rows")
        try:
            body = np.array(rows, dtype=float)
        except ValueError as exc:  # a ragged row, or a cell that is no number
            raise MalformedTraceError(f"trace {csv_path} rows are not {len(header)} numbers "
                                      f"each: {exc}")
        if body.shape[1] != len(header) or not np.array_equal(body[:, 0], np.arange(len(body))):
            raise MalformedTraceError(f"trace {csv_path} rows are not {len(header)} numbers "
                                      "each, numbered 0..K in order")
        if len(tau) != len(body) - 1:
            raise MalformedTraceError(f"trace metadata lists {len(tau)} tau entries for the "
                                      f"{len(body) - 1} transitions of {csv_path}")
        lam = body[:, 4:]
        step_norm_inf = np.abs(np.diff(lam, axis=0)).max(axis=1).tolist()
        return IterationTrace(*shape, float(psi_star), meta, lam, body[:, 1].tolist(), tau,
                              step_norm_inf, n_msgs)


# ---------------------------------------------------------------------------
# the solver loop
# ---------------------------------------------------------------------------


_PENDING = 64  # the most read iterates whose Psi waits for the value stage


class _NonFinitePsi(Exception):
    """An iterate's Psi is not finite: the trace ends there."""


def _flush(instance: ProblemInstance, trace: IterationTrace, pending: list) -> None:
    """Evaluate ``Psi`` of the iterates after ``trace.psi``'s from their ``pending`` ``(u,
    x_hat)``, in one value stage over their stack; at a non-finite one, cut the trace there
    and raise :class:`_NonFinitePsi`, or :class:`NonFiniteInitialError` at ``lam(0)``."""
    start, n = len(trace.psi), len(pending)
    if n:
        u, x_hat = map(np.array, zip(*pending))
        pending.clear()
        trace.psi += _value_stage(instance, np.array(trace.lam[start:start + n]), u,
                                  x_hat).psi.tolist()
    for j in range(start, len(trace.psi)):
        if not math.isfinite(trace.psi[j]):
            if j == 0:
                raise NonFiniteInitialError(f"Psi(lam(0)) = {trace.psi[0]}")
            del trace.psi[j + 1:], trace.lam[j + 1:], trace.tau[j:], trace.step_norm_inf[j:]
            raise _NonFinitePsi


def _read(instance: ProblemInstance, trace: IterationTrace, xhat_cache: dict, pending: list,
          end: int) -> None:
    """Run the x_hat stage on the iterates up to ``end`` not read yet, over their stack; cache
    each ``x_hat`` and queue ``(u, x_hat)`` for :func:`_flush`.  A stack that raises is read
    one iterate at a time, flushing before the one that raises."""
    start = len(trace.psi) + len(pending)
    lams = trace.lam[start:end]
    try:
        rows = zip(*_xhat_stage(instance, np.array(lams))) if len(lams) > 1 else None
    except UnboundedConjugateError:
        rows = None
    for j, lam in enumerate(lams, start):
        try:
            u, x_hat = next(rows) if rows else _xhat_stage(instance, lam)
        except UnboundedConjugateError:
            _flush(instance, trace, pending)
            raise
        xhat_cache[j] = x_hat
        pending.append((u, x_hat))
        if len(pending) == _PENDING:
            _flush(instance, trace, pending)


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
    (instance, mode, schedule, steps, lam0).  ``Psi`` is evaluated up to 64
    rounds late, ``Psi(lam(0))`` too; rounds run past a non-finite one are
    dropped, and an error is raised only where a loop that evaluates ``Psi``
    each round meets it, :class:`NonFiniteInitialError` at ``lam(0)``.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown mode {mode!r}")
    if k_max < 0:
        raise ValueError(f"k_max = {k_max} is negative")
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"tol = {tol} is not a nonnegative number")
    if not (psi_star is None or math.isfinite(psi_star)):
        raise ValueError(f"psi_star = {psi_star} is not finite")
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

    trace = IterationTrace(instance.n_agents, instance.B, instance.M,
                           psi_star if psi_star is not None else float("nan"),
                           n_messages=instance.n_messages)
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

    # maximizers of the last D + 1 read iterates, the snapshots a round may read, and
    # (u, x_hat) of the read iterates whose Psi is not evaluated yet
    xhat_cache, pending = {}, []
    D, stop_reason = schedule.bound, "k_max"
    # a diverging run overflows on its way to the non-finite round that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(k_max):
                tk = schedule.tau(k)
                if tk not in xhat_cache:
                    _read(instance, trace, xhat_cache, pending, k + 1)
                if tk not in xhat_cache:  # evicted, not pending
                    _flush(instance, trace, pending)
                    raise HistoryUnderflowError(f"snapshot {tk} evicted before use at round {k}")
                lam = trace.lam[k]
                lam_next = _round(instance, lam, xhat_cache[tk], steps)
                step = float(np.abs(lam_next - lam).max())
                trace.lam.append(lam_next)
                trace.tau.append(tk)
                trace.step_norm_inf.append(step)
                xhat_cache.pop(k - D, None)
                # a finite step needs finite iterates; an infinite one may be an overflow
                if not (math.isfinite(step) or np.isfinite(lam_next).all()):
                    stop_reason = "nonfinite"
                    break
                if step <= tol:
                    stop_reason = "tol"
                    break
            # every iterate not read yet, but a non-finite last one: its Psi is nan, unevaluated
            _read(instance, trace, xhat_cache, pending,
                  len(trace.lam) - (stop_reason == "nonfinite"))
            _flush(instance, trace, pending)
            if stop_reason == "nonfinite":
                trace.psi.append(math.nan)
        except _NonFinitePsi:  # an iterate up to the last has a non-finite Psi
            stop_reason = "nonfinite"

    trace.meta["stop_reason"] = stop_reason
    if stop_reason != "nonfinite":
        object.__setattr__(instance, "last_x_hat", (trace.lam[-1].tobytes(),
                                                    xhat_cache[trace.n_records - 1].copy()))
    if psi_star is None:
        psi = np.asarray(trace.psi)
        trace.psi_star = float(np.min(psi[np.isfinite(psi)]))
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
        return {name: min((r[3] for r in getattr(self, name)), default=None)
                for name in self.FIELDS}

    def to_json(self) -> dict:
        return {"trajectory_constant": self.trajectory_constant, "min_slacks": self.min_slacks(),
                **{name: [list(r) for r in getattr(self, name)] for name in self.FIELDS}}


def delayed_bound_constant(trace: IterationTrace, lam_star: np.ndarray,
                           steps: StepSizes, h: float, D: int) -> float:
    """Trajectory constant of the delayed-rate bound.

    ``sum_{k<=floor(D/2)} sum_i (h(2k+D)(D+1)^2/4 - k/c_i) ||dlam_i(k)||^2
    + sum_i ||lam_i(0) - lam_i*||^2 / (2 c_i)``, added k-major, then by
    agent, then the ``lam*`` terms, as a loop over ``(k, i)`` adds them.
    """
    half = D // 2
    if trace.n_transitions < half + 1:
        raise InsufficientTraceError(
            f"need {half + 1} transitions for the trajectory constant, have {trace.n_transitions}")
    n, B, M = trace.n_agents, trace.B, trace.M
    lam = np.asarray(trace.lam[:half + 2], dtype=float)
    # rows dlam(0..half), then lam(0) - lam*; per agent, its theta squares plus its mu squares
    sq = np.concatenate((lam[1:] - lam[:-1], [lam[0] - np.asarray(lam_star, dtype=float)])) ** 2
    dist = sq[:, :n * B].reshape(-1, n, B).sum(axis=2) + sq[:, n * B:].reshape(-1, n, M).sum(axis=2)
    k, c = np.arange(half + 1)[:, None], steps.values
    coeff = h * (2 * k + D) * (D + 1) ** 2 / 4.0 - k / c
    return sum_in_order(np.concatenate(((coeff * dist[:-1]).ravel(), dist[-1] / (2.0 * c))))


def _rows(*columns) -> list:
    """Row tuples of equal-length columns, each entry a Python int or float."""
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def verify_rate_bounds(trace: IterationTrace, lam_star: np.ndarray,
                       psi_star: float, h: float, steps: StepSizes,
                       D: int) -> RateBoundReport:
    """Check the rate guarantees and the delay-counting inequalities.

    The no-delay rate is evaluated at every ``K >= 1``; the delayed rate at
    every ``K >= ceil(D/2)`` with the trajectory constant from the early
    steps; the two delay-counting inequalities (plain and iteration
    weighted) are accumulated from the recorded step norms using the trace's
    own read instants.  Each is computed for all rows at once, bitwise as a
    loop over the rows does: ``O(K W)`` array work for ``K`` transitions and
    the trace's widest read window ``W = max_k (k - tau(k)) + 1``.
    """
    if steps.values.size != trace.n_agents:
        raise ValueError(f"{steps.values.size} step sizes for {trace.n_agents} agents")
    n = trace.n_transitions
    if n < 1:
        raise InsufficientTraceError("trace has no transitions")
    if len(trace.tau) < n:
        raise InsufficientTraceError("read instants missing from trace")
    lam, psi = np.asarray(trace.lam, dtype=float), np.asarray(trace.psi, dtype=float)
    dist0_sq = float(np.sum((lam[0] - np.asarray(lam_star, dtype=float)) ** 2))
    d2 = ((lam[1:n + 1] - lam[:n]) ** 2).sum(axis=1)

    K = np.arange(1, trace.n_records)
    bound, measured = h * dist0_sq / (2.0 * K), psi[K] - psi_star
    no_delay = _rows(K, bound, measured, bound - measured)
    delayed, traj_const = [], None
    if n >= D // 2 + 1:
        traj_const = delayed_bound_constant(trace, lam_star, steps, h, D)
        K = np.arange(max(math.ceil(D / 2), 1), trace.n_records - 1)
        bound, measured = traj_const / (K + 1), psi[K + 1] - psi_star
        delayed = _rows(K, bound, measured, bound - measured)

    # inner[k] = 0 + d2[tau_k] + ... + d2[k], added one offset into the windows at
    # a time; the widest window is the trace's own, whatever D claims, and the
    # padding keeps tau + offset in range where the mask skips the term
    k, tau = np.arange(n), np.asarray(trace.tau[:n], dtype=np.intp)
    lag = k - tau
    width = int(lag.max()) + 1
    d2_pad, inner = np.concatenate((d2, np.zeros(max(width - 1, 0)))), np.zeros(n)
    for offset in range(width):
        np.add(inner, d2_pad[tau + offset], out=inner, where=offset <= lag)
    # no term is -0.0, so a cumsum's totals are the loop's 0.0 + ... totals; below
    # 2**53 the factors of (2k + D)(D + 1) are exact floats, so the product rounds
    # once, as the loop's int product does, and a huge D cannot overflow it
    lhs_c, rhs_c = inner.cumsum(), ((D + 1) * d2).cumsum()
    lhs_w, rhs_w = (k * inner).cumsum(), ((2.0 * k + D) * (D + 1.0) / 2.0 * d2).cumsum()
    return RateBoundReport(traj_const, no_delay, delayed, _rows(k, lhs_c, rhs_c, rhs_c - lhs_c),
                           _rows(k, lhs_w, rhs_w, rhs_w - lhs_w))
