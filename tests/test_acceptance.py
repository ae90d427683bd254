"""The reproduction suite's criteria as individual tests.

Each test drives one criterion from :mod:`dualprox.repro` with its stated
tolerance baked into the criterion function itself, and reports the measured
detail on failure.
"""

from dualprox import repro


def _check(result):
    assert result.passed, f"criterion {result.cid} ({result.name}): {result.detail}"


def test_criterion_1_market_sync(ctx):
    _check(repro.criterion_1_market_sync(ctx))


def test_criterion_2_market_async(ctx):
    _check(repro.criterion_2_market_async(ctx))


def test_criterion_3_no_delay_rate_bound(ctx):
    _check(repro.criterion_3_no_delay_rate(ctx))


def test_criterion_4_delayed_rate_bound(ctx):
    _check(repro.criterion_4_delayed_rate(ctx))


def test_criterion_5_delay_counting_inequalities(ctx):
    _check(repro.criterion_5_delay_counts(ctx))


def test_criterion_6_async_reduces_to_sync(ctx):
    _check(repro.criterion_6_reduction(ctx))


def test_criterion_7_moreau_identity(ctx):
    _check(repro.criterion_7_moreau(ctx))


def test_criterion_8_conjugate_gradient_checks(ctx):
    _check(repro.criterion_8_conjugate_gradient(ctx))


def test_criterion_9_brute_force_equivalence(ctx):
    _check(repro.criterion_9_brute_force(ctx))


def test_criterion_10_consensus(ctx):
    _check(repro.criterion_10_consensus(ctx))


def test_criteria_3_to_5_verify_each_trajectory_once(monkeypatch):
    calls = []
    verify = repro.verify_rate_bounds
    monkeypatch.setattr(repro, "verify_rate_bounds",
                        lambda *args: calls.append(args[-1]) or verify(*args))
    ctx = repro.ReproContext()
    for criterion in (repro.criterion_3_no_delay_rate, repro.criterion_4_delayed_rate,
                      repro.criterion_5_delay_counts):
        criterion(ctx)
    assert calls == [0, *repro.DELAY_SET]  # the sync trace, then each async one
