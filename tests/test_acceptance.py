"""The reproduction suite's criteria as individual tests.

Each test drives one criterion from :mod:`dualprox.repro` with its stated
tolerance baked into the criterion function itself, checks its measured
detail against the one pinned below, and reports the detail on failure.
"""

from dualprox import repro

# each criterion's detail as ``dualprox repro --json`` prints it: a refactor must leave every
# measured number as it was, criterion 1's (which fails by design) too
DETAILS = {
    1: ("max|x - ref| = 0.0353 (tol 0.1); |Psi - 756.53| = 351.585 "
        "(tol 0.5, measured Psi = 1108.114974); 252 rounds"),
    2: ("final eps per D {0: '2.27e-13', 3: '7.05e-12', 5: '3.59e-11', 10: '4.13e-10', "
        "15: '1.86e-09'}; eps at checkpoint k=252: ['2.274e-13', '17.57', '77.93', '736.4', "
        "'1073'] (nondecreasing in D: True)"),
    3: "min slack over K = 3.673e+01 across 252 checkpoints",
    4: "min slack per D: 0: 4.132e+01, 3: 4.785e+01, 5: 5.021e+01, 10: 5.443e+01, 15: 5.750e+01",
    5: "min slack = -3.747e-16; D=0 equality gap = 0.000e+00",
    6: "max per-coordinate gap = 0.000e+00 over 253 records",
    7: "max residual over 1000 randomized cases = 3.553e-15",
    8: ("max FD relative error = 8.104e-11 over 200 points; "
        "max Lipschitz violation = 3.553e-15 over 1000 pairs"),
    9: "|Psi_engine - Psi_grid| = 3.553e-15 (tol 1e-3); max|x - x_qp| = 7.849e-14 (tol 1e-4)",
    10: "max pairwise gap = 2.378e-11; max gap to mean = 1.189e-11",
}


def _check(result):
    assert result.detail == DETAILS[result.cid]
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
