import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import dualprox.engine
import dualprox.model

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
    grad_P_block,
    lipschitz_constant,
    quadratic_local,
    recover_primal,
    run,
    step_size_async,
    step_size_sync,
    verify_rate_bounds,
)
from dualprox.engine import IterationTrace, _round
from dualprox.errors import (
    HistoryUnderflowError,
    InsufficientTraceError,
    MalformedTraceError,
    NonFiniteInitialError,
    StepSizeViolationError,
)
from dualprox.repro import catalog_samples, conjugate_prox_oracle
from dualprox.scenarios import DEFAULT_TRANSFORMS, DEFAULT_UC_PARAMS, DEFAULT_USER_PARAMS

from dense_reference import reference_save, reference_to_csv

MARKET_T = np.array(DEFAULT_TRANSFORMS)
MARKET_A = np.array([1.0, 1.0, -1.0, -1.0, -1.0])


def _two_agent(b0=0.0):
    """Two coupled scalar agents with plain quadratic smooth parts."""
    agents = [AgentSpec(SmoothConjugable(QuadraticFunction(2.0, [0.0])),
                        ProxFriendlyFunction.zero(), None)] * 2
    return ProblemInstance(Topology(2, frozenset({(0, 1)})), agents, 1, 1, [0, 0, 1, 1],
                           [0, 1, 0, 1], [[[1.0]], [[-1.0]]] * 2, [[b0], [b0]])


def test_local_maximizer_at_origin():
    inst = _two_agent()
    np.testing.assert_allclose(dual_objective(inst, np.zeros(4)).x_hat[0], [0.0])


def test_local_maximizer_single_agent_example():
    f = SmoothConjugable(QuadraticFunction(2.0, [1.0]))
    agent = AgentSpec(f, ProxFriendlyFunction.zero(), None)
    inst = ProblemInstance(Topology(1, frozenset()), (agent,), 1, 1, [0], [0], [[[1.0]]], [[0.0]])
    lam = np.array([-3.0, 0.0])
    np.testing.assert_allclose(dual_objective(inst, lam).x_hat[0], [1.0])


def test_local_maximizer_market_generator_cap(ctx):
    # the cheap generator saturates at its capacity at the optimum
    x2 = dual_objective(ctx.market, ctx.lam_star).x_hat[1]
    assert x2[0] == pytest.approx(150.0, abs=1e-6)


def test_grad_block_zero_case():
    inst = _two_agent()
    g_theta, g_mu = grad_P_block(inst, np.zeros((2, 1)))
    np.testing.assert_array_equal(g_theta, [[0.0], [0.0]])
    np.testing.assert_array_equal(g_mu, [[0.0], [0.0]])


def test_grad_block_two_agent_example():
    inst = _two_agent()
    g_theta, _ = grad_P_block(inst, np.array([[3.0], [1.0]]))
    np.testing.assert_allclose(g_theta[0], [-2.0])


def test_coupling_blocks_skip_zero_and_non_neighbor_blocks():
    pair = _two_agent()
    inst = ProblemInstance(pair.topology, pair.agents, 1, 1, [0, 0, 1, 1], [1, 0, 0, 1],
                           [[[-1.0]], [[0.0]], [[1.0]], [[-1.0]]], pair.rhs)
    rows, cols, _ = inst.A
    assert cols[rows == 0].tolist() == [1]
    assert cols[rows == 1].tolist() == [0, 1]
    assert inst.n_messages == 2
    # a zero block off the neighbourhood (agent 0's on agent 2 of a path) builds; C, A and
    # the messages skip it, while C keeps the zero block in agent 1's neighbourhood
    path = ProblemInstance(Topology.path(3), [pair.agents[0]] * 3, 1, 1, [0, 0, 1, 1, 2],
                           [0, 2, 0, 1, 2], [[[1.0]], [[0.0]], [[0.0]], [[1.0]], [[1.0]]],
                           np.zeros((3, 1)))
    rows, cols, _ = path.A
    assert cols[rows == 0].tolist() == [0]
    assert cols[rows == 1].tolist() == [1]
    assert path.n_messages == 0
    rows, cols, _ = path.C  # row l holds the blocks on x_l, by owner
    assert cols[rows == 0].tolist() == [0, 1]
    assert cols[rows == 2].tolist() == [2]


def test_grad_block_matches_finite_differences():
    inst = _two_agent(b0=0.5)
    rng = np.random.default_rng(6)
    lam = rng.normal(size=4)

    # smooth dual part written out directly for this 2-agent layout
    def P(vec):
        th0, th1, mu0, mu1 = vec
        u0 = -(1.0 * th0 + 1.0 * th1) - mu0
        u1 = -(-1.0 * th0 + -1.0 * th1) - mu1
        val = 0.5 * u0**2 / 2.0 + 0.5 * u1**2 / 2.0  # conjugates of x^2
        val += 0.5 * th0 + 0.5 * th1
        return val

    g_theta, g_mu = grad_P_block(inst, dual_objective(inst, lam).x_hat)
    eps = 1e-6
    for i in range(2):
        for idx, got in ((i, g_theta[i, 0]), (2 + i, g_mu[i, 0])):
            lp, lm = lam.copy(), lam.copy()
            lp[idx] += eps
            lm[idx] -= eps
            fd = (P(lp) - P(lm)) / (2 * eps)
            assert got == pytest.approx(fd, abs=1e-7)


def test_dpg_fixed_point_at_origin():
    inst = _two_agent(b0=0.0)
    trace = run(inst, steps=StepSizes.uniform(0.1, 2), k_max=3)
    np.testing.assert_array_equal(trace.lam[1], np.zeros(4))
    assert trace.n_transitions == 1 and trace.meta["stop_reason"] == "tol"


def test_mu_vanishes_when_g_is_zero_on_all_space():
    # the conjugate of the zero function is the indicator of the origin,
    # so the proximal mu update lands exactly at zero every round
    inst = _two_agent(b0=1.0)
    lam = np.array([0.5, -0.3, 0.7, -0.2])
    nxt = _round(inst, lam, dual_objective(inst, lam).x_hat, StepSizes.uniform(0.1, 2))
    np.testing.assert_array_equal(nxt[2:], [0.0, 0.0])


def _mu_step(gs, mu, x_hat, c):
    """The instance and the ``mu`` of one :func:`_round` from ``x_hat`` at ``lam = [0, mu]``:
    agent ``i`` holds ``gs[i]`` and the step ``c[i]``, ``mu`` and ``x_hat`` stacked ``(N, M)``."""
    mu = np.asarray(mu, dtype=float).reshape(len(gs), -1)
    n, M = mu.shape
    agents = [AgentSpec(quadratic_local(np.zeros(M)), g, None) for g in gs]
    inst = ProblemInstance(Topology.path(n), agents, M, 1, range(n), range(n),
                           np.ones((n, 1, M)), np.zeros((n, 1)))
    lam = np.concatenate((np.zeros(n), mu.ravel()))
    steps = StepSizes.per_agent(np.broadcast_to(c, n))
    return inst, inst.split(_round(inst, lam, np.reshape(x_hat, (n, M)), steps))[1]


def test_round_mu_step_matches_the_conjugate_prox_oracle():
    # the round's Moreau step v - c prox_{g/c}(v/c), v = mu + c x_hat, is the prox of c g*
    rng = np.random.default_rng(5)
    for g, mu, c in catalog_samples(rng, 300):
        x_hat = rng.uniform(-3.0, 3.0, mu.size)
        _, got = _mu_step([g], mu, x_hat, c)
        np.testing.assert_allclose(got[0], conjugate_prox_oracle(g, mu + c * x_hat, c),
                                   rtol=0, atol=1e-9)


def test_round_mu_step_of_a_mixed_group_takes_each_agent_s_step():
    rng = np.random.default_rng(8)
    gs, mu, c = zip(*[case for case in catalog_samples(rng, 400) if case[1].size == 1][:48])
    x_hat = rng.uniform(-3.0, 3.0, len(gs))
    inst, got = _mu_step(gs, mu, x_hat, c)
    assert len(inst.g_groups) == 1 and len(set(c)) == len(gs)  # one group, a step per agent
    assert len({(g.kind, g.box is None) for g in gs}) == 6  # every kind, with and without box
    for i, g in enumerate(gs):
        np.testing.assert_allclose(got[i], conjugate_prox_oracle(g, mu[i] + c[i] * x_hat[i], c[i]),
                                   rtol=0, atol=1e-9)


def test_round_mu_step_examples():
    # the prox of c g* at v, through the round: mu = v and x_hat = 0
    def step(g, v, c):
        return _mu_step([g], v, np.zeros(len(v)), c)[1][0]
    np.testing.assert_allclose(step(ProxFriendlyFunction.l1(1.0), [2.0], 1.0), [1.0])
    np.testing.assert_allclose(
        step(ProxFriendlyFunction.indicator_box(BoxSet([0.0], [3.0])), [-1.0], 1.0), [-1.0])
    # l1 weight 1: conjugate is the indicator of [-1, 1], v inside stays put
    g = ProxFriendlyFunction.l1(1.0)
    np.testing.assert_allclose(step(g, [0.4], 2.0), [0.4])
    res = minimize_scalar(lambda w: (w - 0.4) ** 2 / 4.0, bounds=(-1, 1),
                          method="bounded", options={"xatol": 1e-12})
    assert abs(step(g, [0.4], 2.0)[0] - res.x) < 1e-7


def test_dpg_matches_scripted_dense_reference(ctx):
    """Five market rounds against a straight-line dense reimplementation."""
    inst = ctx.market
    h = ctx.h
    c = step_size_sync(h)
    uc = DEFAULT_UC_PARAMS
    users = DEFAULT_USER_PARAMS

    def ref_xhat(i, u):
        if i < 2:
            k, vt = uc[i]["kappa"], uc[i]["vartheta"]
            return min(max((u - vt) / (2 * k), 0.0), uc[i]["x_max"])
        p = users[i - 2]
        cand_stat = min(max((u + p["pi"]) / (2 * p["varsigma"]), 0.0),
                        min(p["pi"] / (2 * p["varsigma"]), p["x_max"]))
        best_x, best_v = None, -np.inf
        neg_u = lambda x: (p["varsigma"] * x * x - p["pi"] * x
                           if x <= p["pi"] / (2 * p["varsigma"])
                           else -p["pi"]**2 / (4 * p["varsigma"]))
        for x in sorted({cand_stat, min(p["pi"] / (2 * p["varsigma"]), p["x_max"]),
                         0.0, p["x_max"]}):
            val = u * x - neg_u(x)
            if val > best_v + 1e-12:
                best_x, best_v = x, val
        return best_x

    theta = np.zeros(5)
    mu = np.zeros(5)
    trace = run(inst, mode="sync", tol=0.0, k_max=5)
    assert trace.n_transitions == 5
    for k in range(5):
        u = np.array([-(MARKET_T * theta).sum() * MARKET_A[i] - mu[i] for i in range(5)])
        xh = np.array([ref_xhat(i, u[i]) for i in range(5)])
        grad_theta = np.array([-MARKET_T[i] * float(MARKET_A @ xh) for i in range(5)])
        theta = theta - c * grad_theta
        rho = mu + c * xh
        caps = [150.0, 150.0, 91.79, 147.29, 91.41]
        mu = rho - c * np.clip(rho / c, 0.0, caps)
        np.testing.assert_allclose(trace.lam[k + 1][:5], theta, atol=1e-12)
        np.testing.assert_allclose(trace.lam[k + 1][5:], mu, atol=1e-12)


def test_async_step_with_zero_delay_equals_sync():
    inst = _two_agent(b0=1.0)
    lam0 = np.array([0.2, 0.1, 0.0, 0.0])
    steps = StepSizes.uniform(0.05, 2)
    sync = run(inst, steps=steps, lam0=lam0, tol=0.0, k_max=20)
    async0 = run(inst, mode="async", schedule=DelaySchedule.worst_case(0),
                 steps=steps, lam0=lam0, tol=0.0, k_max=20)
    assert async0.tau == list(range(20))
    np.testing.assert_array_equal(np.array(sync.lam), np.array(async0.lam))


def test_async_step_reads_delayed_snapshot():
    assert DelaySchedule.worst_case(5).tau(1) == 0
    inst = _two_agent(b0=1.0)
    lam0 = np.array([0.2, 0.1, 0.0, 0.0])
    steps = step_size_async(lipschitz_constant(inst)[0], 5, n_agents=2)
    trace = run(inst, mode="async", schedule=DelaySchedule.worst_case(5),
                steps=steps, lam0=lam0, tol=0.0, k_max=2)
    assert trace.tau == [0, 0]
    # gradient from the k=0 snapshot applied to the k=1 anchor
    g_theta, _ = grad_P_block(inst, dual_objective(inst, lam0).x_hat)
    expected = trace.lam[1].copy()
    expected[:2] -= steps.values * g_theta[:, 0]
    expected[2:] = 0.0
    np.testing.assert_allclose(trace.lam[2], expected, atol=1e-15)


def test_async_step_history_underflow():
    # a schedule that reads further back than its bound hits run's guard
    sched = DelaySchedule.worst_case(1)
    sched.tau = lambda k: 0
    with pytest.raises(HistoryUnderflowError):
        run(_two_agent(b0=1.0), mode="async", schedule=sched, tol=0.0, k_max=5)


def test_async_step_size_rule_enforced():
    inst = _two_agent(b0=1.0)
    big = StepSizes.uniform(10.0, 2)
    with pytest.raises(StepSizeViolationError):
        run(inst, mode="async", schedule=DelaySchedule.worst_case(0), steps=big, k_max=1)
    # explicit override lets it through
    trace = run(inst, mode="async", schedule=DelaySchedule.worst_case(0), steps=big,
                k_max=1, allow_step_violation=True)
    assert trace.n_transitions == 1


def test_step_size_rules():
    assert step_size_sync(2.0) == 0.5
    assert step_size_sync(1.0) == 1.0
    with pytest.raises(ValueError):
        step_size_sync(0.0)
    assert step_size_async(1.0, 0, n_agents=3).values.tolist() == [1.0] * 3
    np.testing.assert_allclose(step_size_async(1.0, 3, n_agents=2).values, 1 / 16)
    with pytest.raises(ValueError):
        step_size_async(1.0, 2, margins=[1.5])
    with pytest.raises(ValueError):
        step_size_async(1.0, -1)


def test_step_sizes_of_the_wrong_length_are_refused():
    market = build_market()
    with pytest.raises(ValueError, match="1 step sizes for 5 agents"):
        run(market, steps=StepSizes.per_agent([1e-3]))
    with pytest.raises(ValueError, match="7 step sizes for 5 agents"):
        run(market, mode="async", schedule=DelaySchedule.worst_case(1),
            steps=StepSizes.per_agent([1e-6] * 7))
    trace = run(market, k_max=3)
    h = trace.meta["h"]
    for n in (1, 7):
        with pytest.raises(ValueError, match=f"{n} step sizes for 5 agents"):
            verify_rate_bounds(trace, trace.lam[-1], min(trace.psi), h,
                               StepSizes.uniform(1.0 / h, n), 0)
    with pytest.raises(ValueError, match="4 margins for 5 agents"):
        step_size_async(1.0, 3, margins=[1.0] * 4, n_agents=5)


def test_step_sizes_positive_only():
    with pytest.raises(ValueError):
        StepSizes.uniform(0.0, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_step_sizes_and_margins_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        StepSizes.uniform(bad, 2)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        StepSizes.per_agent([1e-3, bad])
    with pytest.raises(ValueError, match=r"margins must lie in \(0, 1\]"):
        step_size_async(1.0, 2, margins=[1.0, bad], n_agents=2)


def test_delay_schedule_invariants():
    sched = DelaySchedule.seeded(4, seed=123)
    for k in range(200):
        assert 0 <= k - sched.tau(k) <= 4
    again = DelaySchedule.seeded(4, seed=123)
    assert [again.tau(k) for k in range(200)] == [sched.tau(k) for k in range(200)]
    with pytest.raises(ValueError):
        DelaySchedule(3, "zero")
    with pytest.raises(ValueError):
        DelaySchedule(0, "zero")  # worst_case(0) is the no-delay schedule
    with pytest.raises(ValueError):
        DelaySchedule(3, "seeded_random")
    with pytest.raises(ValueError):
        DelaySchedule(-1, "worst_case")


def test_seeded_schedule_draws_the_pinned_read_instants():
    # the first 50 read instants of one seed, recorded before the generator
    # was built for seeded schedules only
    sched = DelaySchedule.seeded(4, 123)
    assert [sched.tau(k) for k in range(50)] == [
        0, 0, 0, 3, 0, 4, 5, 7, 7, 9, 9, 7, 10, 9, 12, 14, 13, 13, 14, 15, 20, 19, 21, 22, 23,
        21, 23, 26, 26, 26, 30, 28, 30, 29, 31, 34, 32, 34, 37, 37, 37, 40, 41, 43, 44, 43, 46,
        45, 46, 49]
    worst = DelaySchedule.worst_case(5)
    assert "_rng" not in vars(worst)  # it draws nothing, so it builds no generator
    assert [worst.tau(k) for k in (0, 4, 5, 6, 40)] == [0, 0, 0, 1, 35]


def test_dual_objective_zero_instance():
    inst = _two_agent(b0=0.0)
    obj = dual_objective(inst, np.zeros(4))
    assert obj.psi == 0.0 and obj.p_part == 0.0 and obj.q_part == 0.0
    np.testing.assert_array_equal(np.concatenate(obj.x_hat), [0.0, 0.0])


def test_dual_objective_l1_conjugate_saturates():
    topo = Topology(3, frozenset({(0, 1), (1, 2)}))
    locals_f = [quadratic_local([0.0]), quadratic_local([1.0]), quadratic_local([2.0])]
    gs = [ProxFriendlyFunction.l1(1.0)] * 3
    inst = build_consensus(topo, locals_f, locals_g=gs)
    lam = np.zeros(inst.dual_dim)
    inst.split(lam)[1][0] = 2.0  # outside the l1 conjugate's unit ball
    assert dual_objective(inst, lam).psi == float("inf")


def test_recover_primal_trivial_and_perturbed(ctx):
    inst = _two_agent(b0=0.0)
    rec = recover_primal(inst, np.zeros(4))
    assert rec.mismatch == 0.0
    np.testing.assert_array_equal(rec.x_hat[0], [0.0])

    perturbed = recover_primal(ctx.market, ctx.lam_star + 1e-2)
    assert perturbed.mismatch > 0.0  # reported, not raised


def _same_recovery(a, b):
    return (a.x_hat.tobytes() == b.x_hat.tobytes() and a.z_hat.tobytes() == b.z_hat.tobytes()
            and a.mismatch == b.mismatch)


def _counting_apply_C(monkeypatch):
    """Count the calls the engine makes to ``apply_C``."""
    calls = []
    original = dualprox.engine.apply_C

    def counted(instance, lam):
        calls.append(1)
        return original(instance, lam)

    monkeypatch.setattr(dualprox.engine, "apply_C", counted)
    return calls


def test_recover_primal_reuses_the_maximizers_of_the_last_iterate(monkeypatch):
    inst = build_market()
    trace = run(inst, mode="async", schedule=DelaySchedule.worst_case(5), k_max=40)
    lam = trace.lam[-1]
    fresh = recover_primal(build_market(), lam)
    calls = _counting_apply_C(monkeypatch)
    assert _same_recovery(recover_primal(inst, lam), fresh)
    assert _same_recovery(recover_primal(inst, lam.copy()), fresh)
    assert calls == []  # byte-equal to the point run evaluated last
    # one ulp away is another point: x_hat is computed for it
    near = lam.copy()
    near[0] = np.nextafter(near[0], np.inf)
    assert _same_recovery(recover_primal(inst, near), recover_primal(build_market(), near))
    assert len(calls) == 2


def test_recover_primal_never_returns_a_stale_maximizer():
    inst = build_market()
    lam = run(inst, mode="sync", k_max=30).lam[-1]
    lam[5:] += 1.0  # the caller moves the last iterate after the run
    assert _same_recovery(recover_primal(inst, lam), recover_primal(build_market(), lam))
    lam = run(inst, mode="sync", k_max=30).lam[-1]
    expected = recover_primal(build_market(), lam)
    dual_objective(inst, lam + 1.0)  # evaluating another point keeps the run's
    rec = recover_primal(inst, lam)
    assert _same_recovery(rec, expected)
    rec.x_hat[:] = 0.0  # nor may writing into a returned maximizer leak into the kept one
    assert _same_recovery(recover_primal(inst, lam), expected)


def test_recover_primal_reports_an_overflowing_mismatch_as_inf():
    # x_hat_0 = 1 / 1e-200 while l1's dead zone puts z_hat_0 at 0: the squared gap overflows
    f = SmoothConjugable(QuadraticFunction(1e-200, [-1.0]))
    inst = build_consensus(Topology.path(2), [f, quadratic_local([0.0])],
                           [ProxFriendlyFunction.l1(1.0), ProxFriendlyFunction.zero()])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = recover_primal(inst, np.zeros(inst.dual_dim))
    assert rec.x_hat[0, 0] > 1e199 and rec.z_hat[0, 0] == 0.0 and rec.mismatch == np.inf


@pytest.mark.parametrize("kwargs", [{"k_max": -3}, {"k_max": -1}, {"tol": float("nan")},
                                    {"tol": -1e-8}, {"tol": -float("inf")}])
def test_run_rejects_a_negative_round_cap_or_tolerance(kwargs):
    with pytest.raises(ValueError, match="k_max|tol"):
        run(_two_agent(b0=1.0), **kwargs)


@pytest.mark.parametrize("psi_star", [float("nan"), float("inf"), -float("inf")])
def test_run_refuses_a_non_finite_psi_star(psi_star):
    with pytest.raises(ValueError, match="psi_star"):
        run(_two_agent(b0=1.0), psi_star=psi_star)


def test_a_second_run_does_not_encode_the_instance_again(monkeypatch):
    inst = build_market()
    calls = []
    field = dualprox.model._field
    monkeypatch.setattr(dualprox.model, "_field", lambda *a: calls.append(a) or field(*a))
    first = run(inst, k_max=3)
    assert calls
    n_calls = len(calls)
    second = run(inst, k_max=3)
    assert len(calls) == n_calls
    assert second.meta["instance_hash"] == first.meta["instance_hash"]


def test_run_zero_rounds():
    inst = _two_agent(b0=1.0)
    trace = run(inst, k_max=0)
    assert trace.n_records == 1 and trace.n_transitions == 0
    assert trace.meta["stop_reason"] == "k_max"
    assert run(inst, tol=0.0, k_max=3).n_transitions == 3


def test_run_rejects_infinite_initial_objective():
    topo = Topology(2, frozenset({(0, 1)}))
    inst = build_consensus(topo, [quadratic_local([0.0]), quadratic_local([1.0])],
                           locals_g=[ProxFriendlyFunction.l1(1.0)] * 2)
    lam0 = np.zeros(inst.dual_dim)
    inst.split(lam0)[1][1] = 5.0
    with pytest.raises(NonFiniteInitialError):
        run(inst, lam0=lam0, k_max=10)


def test_run_checks_the_shape_of_lam0():
    market = build_market()
    for lam0 in (np.zeros(3), np.zeros((2, 5)), np.zeros((10, 1))):
        with pytest.raises(ValueError, match="length dual_dim = 10"):
            run(market, lam0=lam0, k_max=1)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_run_refuses_a_non_finite_lam0_before_evaluating_it(bad):
    lam0 = np.zeros(10)
    lam0[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from evaluating it
        with pytest.raises(NonFiniteInitialError, match="lam"):
            run(build_market(), lam0=lam0, k_max=1)


def test_run_requires_schedule_in_async_mode():
    with pytest.raises(ValueError):
        run(_two_agent(), mode="async")
    with pytest.raises(ValueError):
        run(_two_agent(), mode="nope")


def test_run_sync_rejects_delayed_schedule():
    for sched in (DelaySchedule.worst_case(7), DelaySchedule.seeded(2, 5),
                  DelaySchedule.seeded(0, 5)):
        with pytest.raises(ValueError):
            run(_two_agent(), mode="sync", schedule=sched)
    for sched in (None, DelaySchedule.worst_case(0)):
        trace = run(_two_agent(b0=1.0), mode="sync", schedule=sched, k_max=3)
        assert trace.meta["D"] == 0 and trace.meta["schedule"] == "worst_case"


def test_run_records_stop_reason():
    inst = _two_agent(b0=1.0)
    assert run(inst, tol=1e-10, k_max=500).meta["stop_reason"] == "tol"
    assert run(inst, tol=1e-10, k_max=3).meta["stop_reason"] == "k_max"


def _diverging_path_run():
    """4-agent path, worst-case D=3, steps 40/h: Psi overflows near round 410."""
    inst = build_scenario("consensus", {"targets": [0.0, 3.0, 6.0, 9.0]})
    h, _ = lipschitz_constant(inst)
    return run(inst, mode="async", schedule=DelaySchedule.worst_case(3),
               steps=StepSizes.uniform(40.0 / h, 4), allow_step_violation=True, k_max=3000)


def test_run_stops_on_nonfinite_values():
    trace = _diverging_path_run()
    assert trace.meta["stop_reason"] == "nonfinite"
    assert trace.n_transitions < 3000
    assert len(trace.lam) == len(trace.psi) == trace.n_transitions + 1
    assert not np.isfinite(trace.psi[-1])
    assert np.all(np.isfinite(trace.psi[:-1]))
    assert trace.psi_star == min(trace.psi[:-1])


def test_run_records_psi_star_source():
    inst = _two_agent(b0=1.0)
    observed = run(inst, k_max=5)
    assert observed.meta["psi_star_source"] == "best_observed"
    assert observed.psi_star == min(observed.psi)
    given = run(inst, k_max=5, psi_star=-2.0)
    assert given.meta["psi_star_source"] == "given" and given.psi_star == -2.0


def test_run_async_rejects_oversized_steps():
    inst = _two_agent(b0=1.0)
    h, _ = lipschitz_constant(inst)
    with pytest.raises(StepSizeViolationError):
        run(inst, mode="async", schedule=DelaySchedule.worst_case(2),
            steps=StepSizes.uniform(2.0 / h, 2), k_max=5)


def test_descent_certificate_on_sync_market(ctx):
    trace = ctx.sync_trace
    h = ctx.h
    c = step_size_sync(h)
    inst = ctx.market
    for k in range(trace.n_transitions):
        diff = trace.lam[k + 1] - trace.lam[k]
        d2 = float(np.sum(diff**2))
        d_theta, d_mu = inst.split(diff)
        per_agent_sq = [float(np.sum(d_theta[i] ** 2) + np.sum(d_mu[i] ** 2))
                        for i in range(inst.n_agents)]
        bound = trace.psi[k] + (h / 2) * d2 - sum(per_agent_sq) / c
        assert trace.psi[k + 1] <= bound + 1e-9


def test_feasibility_at_market_convergence(ctx):
    rec = recover_primal(ctx.market, ctx.lam_star)
    x = np.array([float(v[0]) for v in rec.x_hat])
    assert abs(float(MARKET_A @ x)) <= 1e-2
    assert rec.mismatch <= 1e-2


def test_trace_csv_roundtrip_bitwise(tmp_path):
    inst = _two_agent(b0=1.0)
    trace = run(inst, tol=1e-10, k_max=500)
    p1, m1 = tmp_path / "a.csv", tmp_path / "a.json"
    trace.save(p1, m1)
    reloaded = IterationTrace.from_csv(p1, m1)
    p2, m2 = tmp_path / "b.csv", tmp_path / "b.json"
    reloaded.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert reloaded.psi_star == trace.psi_star
    assert reloaded.tau == trace.tau


ODD_CELLS = [np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 5e-324, 0.1, -2.5, 0.0, 7.0]


def _odd_trace(number=float):
    """Two agents, B = M = 1, every odd cell in lam, psi and the step norms;
    ``number`` is the type of psi and the step norms."""
    cells = np.array(ODD_CELLS)
    K = len(cells) - 1
    return IterationTrace(
        2, 1, 1, 1e16, {"mode": "sync", "note": "odd"},
        [np.roll(cells, k)[:4] for k in range(K + 1)],
        [number(c) for c in np.roll(cells, 3)],
        [max(0, k - 2) for k in range(K)],
        [number(c) for c in np.roll(cells, 5)[:K]],
        2)


def _read_back(tmp_path):
    trace = run(build_market(), mode="async", schedule=DelaySchedule.worst_case(3), k_max=40)
    trace.save(tmp_path / "run.csv", tmp_path / "run.json")
    trace = IterationTrace.from_csv(tmp_path / "run.csv", tmp_path / "run.json")
    assert isinstance(trace.lam, np.ndarray) and trace.lam.ndim == 2
    return trace


TRACES = {
    "odd_cells": lambda tmp_path: _odd_trace(),
    "numpy_psi": lambda tmp_path: _odd_trace(np.float64),
    "float32_psi": lambda tmp_path: _odd_trace(np.float32),  # f"{np.float32(0.1)}" is not str
    "read_back": _read_back,
    "one_record": lambda tmp_path: run(_two_agent(b0=1.0), k_max=0),
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_saved_files_are_the_bytes_csv_writer_and_json_dump_write(name, tmp_path):
    trace = TRACES[name](tmp_path)
    trace.save(tmp_path / "a.csv", tmp_path / "a.json")
    reference_save(trace, tmp_path / "b.csv", tmp_path / "b.json")
    assert b"\n" not in (tmp_path / "a.json").read_bytes()  # one line
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    if name == "one_record":
        assert trace.n_records == 1 and (tmp_path / "a.csv").read_bytes().count(b"\r\n") == 2


CELLS = st.one_of(st.sampled_from(ODD_CELLS), st.floats())


@st.composite
def _any_traces(draw):
    """A trace of any shape up to 6 agents and B, M up to 3, with 0 or several
    transitions; odd and random cells, psi and the step norms of one number type."""
    n, B, M = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    K, number = draw(st.sampled_from([0, 1, 3, 8])), draw(st.sampled_from(
        [float, np.float64, np.float32]))
    width = n * (B + M)
    lam = [np.array(draw(st.lists(CELLS, min_size=width, max_size=width)))
           for _ in range(K + 1)]
    with np.errstate(over="ignore"):  # a float32 cast of 1e308 is inf
        psi = [number(draw(CELLS)) for _ in range(K + 1)]
        steps = [number(draw(CELLS)) for _ in range(K)]
    return IterationTrace(n, B, M, draw(CELLS), {}, lam, psi, [0] * K, steps, 0)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_any_traces())
def test_to_csv_writes_the_bytes_csv_writer_writes(tmp_path, trace):
    with np.errstate(all="ignore"):  # float32 casts overflow, inf - inf
        trace.to_csv(tmp_path / "a.csv")
        reference_to_csv(trace, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _to_csv_peak(n_rows, path) -> int:
    rng = np.random.default_rng(0)
    lam = list(rng.normal(size=(n_rows, 24)))
    trace = IterationTrace(4, 2, 4, 0.0, {}, lam, rng.normal(size=n_rows).tolist(),
                           [0] * (n_rows - 1), [1.0] * (n_rows - 1), 0)
    tracemalloc.start()
    try:
        trace.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # one line at a time: the peak must not hold the whole body
    small = _to_csv_peak(2_000, tmp_path / "small.csv")
    large = _to_csv_peak(20_000, tmp_path / "large.csv")
    assert large <= 2 * small, (small, large)


def test_trace_rejects_malformed_csv(tmp_path):
    bad, meta_path = tmp_path / "bad.csv", tmp_path / "bad.json"
    meta = {"n_agents": 1, "B": 1, "M": 1, "psi_star": 1.0, "tau": [], "n_messages": 0}
    meta_path.write_text(json.dumps(meta))
    bad.write_text("k,psi,epsilon,step_norm_inf,theta_0_0,mu_0_0\n0,1.0,0.0,0.0,0.0\n")
    with pytest.raises(MalformedTraceError, match="6 numbers each, numbered"):
        IterationTrace.from_csv(bad, meta_path)
    meta_path.write_text(json.dumps({**meta, "tau": [0]}))
    bad.write_text("k,psi,epsilon,step_norm_inf,theta_0_0,mu_0_0\n0,1,0,0,0,0\n1,1,0,0,0\n")
    with pytest.raises(MalformedTraceError, match="6 numbers each: "):
        IterationTrace.from_csv(bad, meta_path)
    meta_path.write_text(json.dumps(meta))
    bad.write_text("wrong,header\n")
    with pytest.raises(MalformedTraceError, match="header"):
        IterationTrace.from_csv(bad, meta_path)
    bad.write_text("k,psi,epsilon,step_norm_inf,theta_0_0,mu_0_0\n0,oops,0.0,0.0,0.0,0.0\n")
    with pytest.raises(MalformedTraceError, match="oops"):
        IterationTrace.from_csv(bad, meta_path)
    with pytest.raises(MalformedTraceError):
        IterationTrace.from_csv(tmp_path / "missing.csv", meta_path)
    bad.write_text("k," + "9" * 200_000 + "\n")  # a cell past the csv module's field limit
    with pytest.raises(MalformedTraceError, match="field larger"):
        IterationTrace.from_csv(bad, meta_path)
    # the metadata, not the header, fixes the shape
    bad.write_text("k,psi,epsilon,step_norm_inf,theta_0_0,mu_0_0\n0,1.0,0.0,0.0,0.0,0.0\n")
    assert IterationTrace.from_csv(bad, meta_path).lam.tolist() == [[0.0, 0.0]]
    for shape in ({"n_agents": "1"}, {"B": 0}, {"M": 1.0}, {"n_agents": True},
                  {"n_agents": None}, {"B": None}, {"M": None}):
        doc = {k: v for k, v in {**meta, **shape}.items() if v is not None}
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(MalformedTraceError, match="positive integers"):
            IterationTrace.from_csv(bad, meta_path)
    # a shape far wider than the header is refused before its header is built
    built = dualprox.engine._columns.cache_info().currsize
    meta_path.write_text(json.dumps({**meta, "n_agents": 10**5}))
    with pytest.raises(MalformedTraceError, match="header"):
        IterationTrace.from_csv(bad, meta_path)
    assert dualprox.engine._columns.cache_info().currsize == built


@pytest.mark.parametrize("n_messages", ["written before", -1, 2.0, True, "2"])
def test_trace_metadata_needs_a_nonnegative_integer_n_messages(tmp_path, n_messages):
    trace = run(_two_agent(b0=1.0), tol=0.0, k_max=3)
    trace.save(tmp_path / "t.csv", tmp_path / "t.json")
    meta = json.loads((tmp_path / "t.json").read_text())
    assert meta["n_messages"] == 2 and IterationTrace.from_csv(tmp_path / "t.csv",
                                                               tmp_path / "t.json").n_messages == 2
    if n_messages == "written before":  # a count per round, and no n_messages
        del meta["n_messages"]
        meta["message_counts"], n_messages = [2] * trace.n_transitions, None
    else:
        meta["n_messages"] = n_messages
    (tmp_path / "t.json").write_text(json.dumps(meta))
    with pytest.raises(MalformedTraceError) as exc:
        IterationTrace.from_csv(tmp_path / "t.csv", tmp_path / "t.json")
    assert str(exc.value) == (f"trace metadata: n_messages = {n_messages!r} is not a "
                              "nonnegative integer")


def test_trace_metadata_holds_no_per_round_key_but_tau():
    inst = build_market()
    trace = run(inst, mode="async", schedule=DelaySchedule.worst_case(3), tol=0.0, k_max=40)
    meta = trace.metadata()
    per_round = [key for key, value in meta.items()
                 if isinstance(value, list) and len(value) == trace.n_transitions]
    assert per_round == ["tau"] and len(meta["step_sizes"]) == inst.n_agents
    assert meta["n_messages"] == inst.n_messages == 20 and "message_counts" not in meta
    assert trace.message_counts == [20] * 40


def test_trace_epsilon_is_psi_minus_psi_star():
    trace = run(_two_agent(b0=1.0), tol=1e-10, k_max=50)
    assert trace.epsilon == [p - trace.psi_star for p in trace.psi]
    trace.psi_star = 0.5
    assert trace.epsilon == [p - 0.5 for p in trace.psi]


def test_verify_rate_bounds_needs_transitions():
    trace = IterationTrace(1, 1, 1, 0.0)
    trace.lam.append(np.zeros(2))
    trace.psi.append(0.0)
    with pytest.raises(InsufficientTraceError):
        verify_rate_bounds(trace, np.zeros(2), 0.0, 1.0, StepSizes.uniform(1.0, 1), 0)


def test_delay_count_checks_hold_for_seeded_schedule():
    inst = _two_agent(b0=1.0)
    h, _ = lipschitz_constant(inst)
    D = 4
    steps = step_size_async(h, D, n_agents=2)
    trace = run(inst, mode="async", schedule=DelaySchedule.seeded(D, 7),
                steps=steps, tol=1e-11, k_max=5000)
    lam_star = trace.lam[-1]
    psi_star = float(np.min(trace.psi))
    report = verify_rate_bounds(trace, lam_star, psi_star, h, steps, D)
    mins = report.min_slacks()
    assert mins["delay_count"] >= -1e-9
    assert mins["weighted_delay_count"] >= -1e-9
    assert mins["delayed_rate"] >= -1e-9
