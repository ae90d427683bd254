"""``run`` against the loop that evaluated the objective once per round.

``run`` evaluates ``x_hat`` of an iterate only when a round reads it,
together with every newer iterate not read yet, or at the stop, and ``Psi``
of the read iterates 64 at a time, or sooner where the run stops or raises.
Every trace, stop reason and error must be what
:func:`dense_reference.reference_run` gives, bit for bit: on worst-case and
seeded schedules with ``D`` in 0..6, on a run whose ``Psi`` turns non-finite
inside a window or next to a flush of 64 values, on one whose ``lam`` does,
and when a window holds an iterate whose ``x_hat`` raises.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import dualprox.engine
from dualprox import (
    AgentSpec,
    BoxSet,
    DelaySchedule,
    ProblemInstance,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    StepSizes,
    Topology,
    build_consensus,
    build_market,
    build_scenario,
    dual_objective,
    lipschitz_constant,
    quadratic_local,
    recover_primal,
    run,
    step_size_async,
)
from dualprox.errors import DualproxError, HistoryUnderflowError, UnboundedConjugateError

from dense_reference import reference_run


def _mixed_path(n=8):
    """A path whose agents cycle through zero, l1, quadratic on a box and l1 on a box."""
    wide, narrow = BoxSet([-8.0], [8.0]), BoxSet([-6.0], [7.0])
    kinds = [ProxFriendlyFunction.zero(), ProxFriendlyFunction.l1(0.4),
             ProxFriendlyFunction.quadratic(QuadraticFunction(0.7, [0.0]), wide),
             ProxFriendlyFunction.l1_plus_box(0.6, wide)]
    locals_f = [quadratic_local([(-1.0) ** i * i], 0.5 + 0.2 * i) for i in range(n)]
    for i in range(2, n, 4):
        locals_f[i] = SmoothConjugable(locals_f[i].base, wide)
    return build_consensus(Topology.path(n), locals_f, [kinds[i % 4] for i in range(n)],
                           [narrow if i % 4 == 2 else None for i in range(n)])


def _schedule(kind, D):
    return DelaySchedule.worst_case(D) if kind == "worst" else DelaySchedule.seeded(D, 11 + D)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _same_as_reference(inst, make_schedule, steps, k_max, tol, mode="async", lam0=None):
    """Run both loops, each on a fresh schedule; return run's trace, or None on an error."""
    try:
        lam, psi, tau, step_norms, stop = reference_run(inst, make_schedule(), steps, k_max,
                                                        tol, lam0)
    except DualproxError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            run(inst, mode, make_schedule(), steps, k_max, tol, lam0,
                allow_step_violation=True)
        return None
    trace = run(inst, mode, make_schedule(), steps, k_max, tol, lam0, allow_step_violation=True)
    assert trace.meta["stop_reason"] == stop
    assert _bits(trace.lam) == _bits(lam)
    assert _bits(trace.psi) == _bits(psi)
    assert trace.tau == tau
    assert _bits(trace.step_norm_inf) == _bits(step_norms)
    assert trace.message_counts == [inst.n_messages] * len(tau)
    return trace


def _async_steps(inst, D):
    return step_size_async(lipschitz_constant(inst)[0], D, n_agents=inst.n_agents)


@pytest.mark.parametrize("kind", ["worst", "seeded"])
@pytest.mark.parametrize("D", range(7))
@pytest.mark.parametrize("build", [build_market, _mixed_path], ids=["market", "mixed"])
def test_run_matches_the_per_round_loop(build, D, kind):
    inst = build()
    trace = _same_as_reference(inst, lambda: _schedule(kind, D), _async_steps(inst, D), 60, 0.0)
    assert trace.meta["stop_reason"] == "k_max" and trace.n_transitions == 60


@pytest.mark.parametrize("mode, D", [("sync", 0), ("async", 2)])
def test_run_matches_the_per_round_loop_to_tolerance(mode, D):
    inst = build_market()
    steps = (StepSizes.uniform(1.0 / lipschitz_constant(inst)[0], 5) if mode == "sync"
             else _async_steps(inst, D))
    trace = _same_as_reference(inst, lambda: DelaySchedule.worst_case(D), steps, 5000, 1e-6,
                               mode=mode)
    assert trace.meta["stop_reason"] == "tol"
    # the last iterate's x_hat is the one recover_primal reuses
    assert _bits(inst.last_x_hat[1]) == _bits(
        dual_objective(build_market(), trace.lam[-1]).x_hat)


def _stacks(monkeypatch):
    """Record the shape of every ``lam`` the engine's x_hat stage and value stage evaluate."""
    shapes = {"xhat": [], "value": []}
    real_xhat, real_value = dualprox.engine._xhat_stage, dualprox.engine._value_stage

    def xhat(inst, lam):
        shapes["xhat"].append(np.shape(lam))
        return real_xhat(inst, lam)

    def value(inst, lam, u, x_hat):
        shapes["value"].append(np.shape(lam))
        return real_value(inst, lam, u, x_hat)

    monkeypatch.setattr(dualprox.engine, "_xhat_stage", xhat)
    monkeypatch.setattr(dualprox.engine, "_value_stage", value)
    return shapes


def _rows(shapes) -> int:
    return sum(s[0] if len(s) == 2 else 1 for s in shapes)


def test_psi_that_turns_non_finite_inside_a_window_drops_the_later_rows(monkeypatch):
    # 4-agent path, worst-case D=3, steps 40/h: Psi overflows near round 410
    inst = build_scenario("consensus", {"targets": [0.0, 3.0, 6.0, 9.0]})
    steps = StepSizes.uniform(40.0 / lipschitz_constant(inst)[0], 4)
    trace = _same_as_reference(inst, lambda: DelaySchedule.worst_case(3), steps, 3000, 1e-8)
    assert trace.meta["stop_reason"] == "nonfinite" and not math.isfinite(trace.psi[-1])
    shapes = _stacks(monkeypatch)["value"]
    run(inst, "async", DelaySchedule.worst_case(3), steps, 3000, 1e-8, allow_step_violation=True)
    # the stack of values that held the non-finite Psi also held later iterates, now dropped
    window = shapes[-1][0]
    assert shapes[-1] == (window, inst.dual_dim) and window > 1
    assert _rows(shapes) > trace.n_records


@pytest.mark.parametrize("kind", ["worst", "seeded"])
@pytest.mark.parametrize("D", [0, 2, 4])
def test_lam_that_turns_non_finite_stops_with_psi_nan(D, kind):
    # one agent on a box: Psi grows with theta but stays finite, and theta
    # overflows after two rounds of the stale gradient 0.5
    box = BoxSet([0.0], [0.1])
    inst = ProblemInstance(Topology.path(1), [AgentSpec(
        SmoothConjugable(QuadraticFunction(1.0, [0.0]), box), ProxFriendlyFunction.zero(), None)],
        1, 1, [0], [0], [[[1.0]]], [[0.5]])
    trace = _same_as_reference(inst, lambda: _schedule(kind, D), StepSizes.uniform(1.5e308, 1),
                               50, 1e-8)
    assert trace.meta["stop_reason"] == "nonfinite"
    assert math.isnan(trace.psi[-1]) and not np.isfinite(trace.lam[-1]).all()
    assert np.isfinite(trace.psi[:-1]).all()


def _faults(monkeypatch, psi_inf=(), raising=()):
    """Patch the engine's two stages, which ``dual_objective`` composes: the value stage
    gives ``Psi`` inf at each point of ``psi_inf``, and the x_hat stage raises on a stack or
    point holding one of ``raising``."""
    real_xhat, real_value = dualprox.engine._xhat_stage, dualprox.engine._value_stage

    def faulty_xhat(inst, lam):
        if any(np.array_equal(row, bad) for row in np.reshape(lam, (-1, inst.dual_dim))
               for bad in raising):
            raise UnboundedConjugateError("positive slope on the unbounded flat branch")
        return real_xhat(inst, lam)

    def faulty_value(inst, lam, u, x_hat):
        obj = real_value(inst, lam, u, x_hat)
        hit = [any(np.array_equal(row, bad) for bad in psi_inf)
               for row in np.reshape(lam, (-1, inst.dual_dim))]
        psi = np.where(hit, math.inf, obj.psi)
        return dataclasses.replace(obj, psi=psi if np.ndim(lam) == 2 else float(psi[0]))

    monkeypatch.setattr(dualprox.engine, "_xhat_stage", faulty_xhat)
    monkeypatch.setattr(dualprox.engine, "_value_stage", faulty_value)


@pytest.mark.parametrize("inf_at, raise_at", [(10, 11), (9, 12), (11, 10), (None, 10),
                                               (10, None)])
def test_a_window_that_raises_is_evaluated_one_iterate_at_a_time(monkeypatch, inf_at, raise_at):
    # worst-case D = 3 evaluates iterates 9..12 in one window
    inst = build_market()
    steps = _async_steps(inst, 3)
    clean = run(inst, "async", DelaySchedule.worst_case(3), steps, 30, 0.0).lam
    _faults(monkeypatch, [clean[inf_at]] if inf_at else (), [clean[raise_at]] if raise_at else ())
    trace = _same_as_reference(inst, lambda: DelaySchedule.worst_case(3), steps, 30, 0.0)
    if raise_at is None or (inf_at is not None and inf_at < raise_at):
        assert trace.meta["stop_reason"] == "nonfinite" and trace.n_records == inf_at + 1
    else:
        assert trace is None  # the error, as the per-round loop raises it


@pytest.mark.parametrize("mode, D, inf_at, raise_at", [
    ("sync", 0, 65, None),  # one row after the first flush of 64 values, lam(1..64)
    ("sync", 0, 64, None),  # the last row of that flush
    ("async", 3, 64, None),
    ("sync", 0, 70, 75),  # an x_hat error after a pending non-finite Psi
    ("async", 3, 70, 75),
    ("async", 3, 75, 70),  # the error first: it is raised
])
def test_psi_that_turns_non_finite_next_to_a_flush(monkeypatch, mode, D, inf_at, raise_at):
    inst = build_market()
    steps = _async_steps(inst, D)
    clean = run(inst, mode, DelaySchedule.worst_case(D), steps, 150, 0.0).lam
    _faults(monkeypatch, [clean[inf_at]], [clean[raise_at]] if raise_at else ())
    trace = _same_as_reference(inst, lambda: DelaySchedule.worst_case(D), steps, 150, 0.0,
                               mode=mode)
    if raise_at is None or inf_at < raise_at:
        assert trace.meta["stop_reason"] == "nonfinite" and trace.n_records == inf_at + 1
    else:
        assert trace is None


@pytest.mark.parametrize("D", [0, 1, 3, 5])
def test_a_read_beyond_the_last_d_plus_1_iterates_underflows(D):
    # x_hat is kept for the last D + 1 iterates only: one further back is gone,
    # and one not made yet is not there either
    inst = build_market()

    def reading(tau):
        sched = DelaySchedule.worst_case(D)
        sched.tau = tau
        return lambda: sched

    too_far, too_new = reading(lambda k: max(0, k - D - 1)), reading(lambda k: k + 1)
    for make, first in ((too_far, f"0 evicted before use at round {D + 1}"),
                        (too_new, "1 evicted before use at round 0")):
        assert _same_as_reference(inst, make, _async_steps(inst, D), 40, 0.0) is None
        with pytest.raises(HistoryUnderflowError, match=f"^snapshot {first}$"):
            run(inst, "async", make(), _async_steps(inst, D), 40, 0.0)


def test_each_window_is_one_evaluation(monkeypatch):
    inst = build_market()
    shapes = _stacks(monkeypatch)
    run(inst, "async", DelaySchedule.worst_case(5), k_max=10)
    # x_hat: lam(0); lam(1..6) at round 6; the rest at the stop.  Psi: lam(0), then the
    # other ten in one stack at the stop
    assert shapes == {"xhat": [(10,), (6, 10), (4, 10)], "value": [(10,), (10, 10)]}
    run(build_market(), "sync", k_max=10)
    assert shapes["xhat"][3:] == [(10,)] * 11  # sync: each iterate alone, as a vector
    assert shapes["value"][2:] == [(10,), (10, 10)]
    for stage in shapes.values():
        stage.clear()
    trace = run(inst, "async", DelaySchedule.seeded(4, 3), k_max=200)
    assert _rows(shapes["xhat"]) == _rows(shapes["value"]) == trace.n_records == 201
    assert max(s[0] for s in shapes["xhat"] if len(s) == 2) <= 5
    # never more than 64 values wait: lam(0), then lam(1..200) 64 at a time
    assert shapes["value"] == [(10,), (64, 10), (64, 10), (64, 10), (8, 10)]


def test_recover_primal_reuses_the_last_x_hat_after_a_window(monkeypatch):
    inst = build_market()
    for sched in (DelaySchedule.worst_case(5), DelaySchedule.seeded(3, 2)):
        lam = run(inst, "async", sched, k_max=23).lam[-1]
        expected = recover_primal(build_market(), lam)
        shapes = _stacks(monkeypatch)
        calls = []
        real_apply_C = dualprox.engine.apply_C
        monkeypatch.setattr(dualprox.engine, "apply_C",
                            lambda i, lam: calls.append(1) or real_apply_C(i, lam))
        got = recover_primal(inst, lam)
        assert calls == [] and shapes == {"xhat": [], "value": []}
        assert _bits(got.x_hat) == _bits(expected.x_hat)
        assert _bits(got.z_hat) == _bits(expected.z_hat) and got.mismatch == expected.mismatch
        monkeypatch.undo()
