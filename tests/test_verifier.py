"""The array-at-a-time rate-bound verifier against the per-agent loop it replaced.

``reference_verify_rate_bounds`` in ``dense_reference`` is that loop.  Every
field of the two reports must agree in every bit: the trajectory constant,
and each row's index, bound, measured value and slack.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprox import IterationTrace, StepSizes, delayed_bound_constant, verify_rate_bounds

from dense_reference import reference_delayed_bound_constant, reference_verify_rate_bounds


def _bits(value):
    """An int as itself, a float as its bytes, a row or list entry by entry."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if value is None or isinstance(value, int):
        return value
    return np.float64(value).tobytes()


def _assert_bitwise_equal(got, want):
    assert _bits(got.trajectory_constant) == _bits(want.trajectory_constant)
    for name in got.FIELDS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


def _trace(lam, psi, tau, n_agents, B, M, D):
    trace = IterationTrace(n_agents, B, M, float(np.min(psi)), {"D": D})
    trace.lam = list(lam)
    trace.psi = [float(p) for p in psi]
    trace.tau = tau
    trace.step_norm_inf = np.abs(np.diff(lam, axis=0)).max(axis=1).tolist()
    return trace


@st.composite
def cases(draw):
    """A random trajectory, read instants, step sizes and reference point.

    ``dual_dim`` falls on both sides of 128, where ``np.sum`` over a row
    switches to pairwise blocks; the read instants may be staler than ``D``.
    """
    B, M = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    per_agent = B + M
    small = 128 // per_agent
    n_agents = draw(st.integers(1, small) if draw(st.booleans()) and small
                    else st.integers(small + 1, small + 12))
    dim = n_agents * per_agent
    n = draw(st.integers(1, 40))
    D = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e4]))
    lam = np.cumsum(rng.normal(0.0, scale, (n + 1, dim)), axis=0)
    still = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))  # some rounds do not move
    lam[1:][still] = lam[:-1][still]
    bound = draw(st.sampled_from(["D", "any"]))
    tau = []
    for k in range(n):
        lag_max = k if bound == "any" else min(k, D)
        tau.append(k - int(rng.integers(0, lag_max + 1)))
    psi = 100.0 * rng.random(n + 1)
    steps = StepSizes.per_agent(rng.uniform(1e-3, 2.0, n_agents))
    lam_star = lam[-1] + rng.normal(0.0, scale, dim) * draw(st.sampled_from([0.0, 1.0]))
    psi_star = draw(st.sampled_from([float(np.min(psi)), float(rng.normal(0.0, 50.0))]))
    h = draw(st.floats(1e-3, 1e3))
    return _trace(lam, psi, tau, n_agents, B, M, D), lam_star, psi_star, h, steps, D


@settings(max_examples=300, deadline=None)
@given(cases())
def test_verifier_matches_the_loop_bitwise(case):
    trace, lam_star, psi_star, h, steps, D = case
    got = verify_rate_bounds(trace, lam_star, psi_star, h, steps, D)
    want = reference_verify_rate_bounds(trace, lam_star, psi_star, h, steps, D)
    _assert_bitwise_equal(got, want)
    if trace.n_transitions >= D // 2 + 1:
        assert _bits(delayed_bound_constant(trace, lam_star, steps, h, D)) == _bits(
            reference_delayed_bound_constant(trace, lam_star, steps, h, D))


def test_a_huge_D_sizes_nothing_and_matches_the_loop():
    # D sizes no window and no coefficient array: the read instants set the
    # window, and the trajectory constant needs D // 2 + 1 transitions first
    rng = np.random.default_rng(4)
    lam = np.cumsum(rng.normal(size=(30, 6)), axis=0)
    tau = [max(0, k - 3) for k in range(29)]
    steps = StepSizes.uniform(0.01, 3)
    for D in (0, 1, 10**12, 2**70):
        trace = _trace(lam, rng.random(30), tau, 3, 1, 1, D)
        got = verify_rate_bounds(trace, lam[-1], 0.0, 2.0, steps, D)
        want = reference_verify_rate_bounds(trace, lam[-1], 0.0, 2.0, steps, D)
        _assert_bitwise_equal(got, want)
        assert (got.trajectory_constant is None) == (D > 56)
