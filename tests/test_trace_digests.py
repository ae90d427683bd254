"""Bitwise pins of four reference trajectories and of their rate-bound reports.

The market and mixed digests were recorded from the engine that built every
round out of per-edge gradient messages (``_apply_round``), before the round
was reduced to a single kernel; the path consensus digest was recorded
before the catalog groups bound their constants once.  Any change to the
arithmetic of a round, to the order of its sums, to the read instants or to
the message counts changes them.

The ``report`` digest hashes the JSON of each trajectory's
``verify_rate_bounds`` report, checked as ``dualprox verify`` checks a trace
(the last iterate and the best ``Psi`` as the reference).  It was recorded
from the verifier that looped over rounds and agents, before it went
array-at-a-time.

``FILES`` pins the SHA-256 of the ``trace.csv`` and ``trace_meta.json`` that
``save`` writes for the same trajectories, and for one that turns
non-finite in its first round.  They were recorded from the writer that
formatted every cell with ``repr`` and read traces back with a per-row
parse.  A trace read back with ``from_csv`` must save to the same bytes.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from dualprox import (
    BoxSet,
    DelaySchedule,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    StepSizes,
    Topology,
    build_consensus,
    build_market,
    IterationTrace,
    run,
    verify_rate_bounds,
)

FIELDS = ("lam", "psi", "step_norm_inf", "tau", "message_counts")


def _report(trace):
    meta = trace.meta
    steps = StepSizes(meta["step_mode"], np.asarray(meta["step_sizes"], dtype=float))
    return verify_rate_bounds(trace, trace.lam[-1], float(np.min(trace.psi)), meta["h"],
                              steps, meta["D"])


def _digests(trace) -> dict:
    arrays = {
        "lam": np.asarray(trace.lam, dtype=np.float64),
        "psi": np.asarray(trace.psi, dtype=np.float64),
        "step_norm_inf": np.asarray(trace.step_norm_inf, dtype=np.float64),
        "tau": np.asarray(trace.tau, dtype=np.int64),
        "message_counts": np.asarray(trace.message_counts, dtype=np.int64),
    }
    digests = {name: hashlib.sha256(arrays[name].tobytes()).hexdigest()[:32]
               for name in FIELDS}
    report = json.dumps(_report(trace).to_json()).encode()
    digests["report"] = hashlib.sha256(report).hexdigest()[:32]
    return digests


def _mixed_path(n_agents=8, seed=3):
    """Path consensus whose agents cycle zero, l1, quadratic+box, l1+box."""
    rng = np.random.default_rng(seed)
    wide = BoxSet([-8.0], [8.0])
    narrow = BoxSet([-6.0], [7.0])
    locals_f, locals_g, omegas = [], [], []
    for i in range(n_agents):
        kind = i % 4
        curv, target = rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0)
        base = QuadraticFunction(curv, [-curv * target], 0.5 * curv * target * target)
        locals_f.append(SmoothConjugable(base, wide if kind in (2, 3) else None))
        omegas.append(narrow if kind == 2 else None)
        weight = rng.uniform(0.1, 1.0)
        locals_g.append((
            ProxFriendlyFunction.zero(),
            ProxFriendlyFunction.l1(weight),
            ProxFriendlyFunction.quadratic(QuadraticFunction(weight, [0.0]), wide),
            ProxFriendlyFunction.l1_plus_box(weight, wide),
        )[kind])
    return build_consensus(Topology.path(n_agents), locals_f, locals_g, omegas)


def _path_sync(n_agents=48, seed=5):
    """Sync consensus on a path: quadratic smooth parts on all of space, zero g."""
    rng = np.random.default_rng(seed)
    targets, curvs = rng.uniform(-10.0, 10.0, n_agents), rng.uniform(0.5, 2.0, n_agents)
    locals_f = [SmoothConjugable(QuadraticFunction(c, [-c * t], 0.5 * c * t * t))
                for t, c in zip(targets, curvs)]
    return run(build_consensus(Topology.path(n_agents), locals_f), mode="sync", tol=0.0,
               k_max=300)


def _market_sync():
    return run(build_market(), mode="sync", tol=1e-10, k_max=100_000)


def _market_async_d5():
    return run(build_market(), mode="async", schedule=DelaySchedule.worst_case(5),
               k_max=300)


def _mixed_seeded():
    return run(_mixed_path(), mode="async", schedule=DelaySchedule.seeded(4, 11),
               k_max=200)


def _market_nonfinite():
    """Steps of 1e306 overflow theta to +-inf in round one, and Psi turns nan."""
    return run(build_market(), mode="async", schedule=DelaySchedule.worst_case(5),
               steps=StepSizes.uniform(1e306, 5), allow_step_violation=True)


# see the module docstring for the engine each was recorded from
PINNED = {
    "market_sync": (_market_sync, 252, {
        "lam": "993c06ded9275a61ec8590159439fd60",
        "psi": "eaa9b766db2d543f4123afab6175b1d5",
        "step_norm_inf": "f98244496f11fff2ced14c1b2ad2e0c3",
        "tau": "29cc3b6fd2ff29f94173012d4483c7d4",
        "message_counts": "c449159644ab89abae7e385cdfe47705",
        "report": "d7957da28b1ee6836863de9add396aa7",
    }),
    "market_async_d5": (_market_async_d5, 300, {
        "lam": "ab6ab64d1198c6cc8272707530ce14b1",
        "psi": "19ef580d27f9e0158c3bd3438f870487",
        "step_norm_inf": "cc54ff460c56fdb9ecc2c1338299b992",
        "tau": "ce90b9d13e07cce240f1b3732a65a5f1",
        "message_counts": "215331023b189b4dba3262cba8c556fb",
        "report": "7d2ba4b729a4b99951c84d03e8f83c9a",
    }),
    "mixed_seeded_d4": (_mixed_seeded, 200, {
        "lam": "47f275445add038baf183ecc7ddbd09c",
        "psi": "4ec612fc4a47ccf2dab6c6a67d0254d0",
        "step_norm_inf": "20df789172af5308a5d806e79db34546",
        "tau": "e0811a59538c8dff4d4d606fd0c182c9",
        "message_counts": "a6d5a80e5a0b5f220859ade3a1a02ad7",
        "report": "45762e2c2d0dbbb7d3602b9949b6e193",
    }),
    "path_sync_n48": (_path_sync, 300, {
        "lam": "6e208df095ac7d72edffc2af00ab9073",
        "psi": "87e49d960d2a414a8e0d7283fa5d2dc5",
        "step_norm_inf": "508fc9a0a72f5ab4bb3b59b0b364b809",
        "tau": "98e038d3a30a991777ce2f66d2e9b9f3",
        "message_counts": "6ec7cbd9d3ea93c9e3a6a48059fd11d9",
        "report": "f11a27dd7b344b99cb9711c08955e401",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_matches_pinned_digests(name):
    build, rounds, expected = PINNED[name]
    trace = build()
    assert trace.n_transitions == rounds
    assert _digests(trace) == expected


FILES = {
    "market_sync": (_market_sync,
                    "b7d15ff521eae36a002d156270db4f7f2eadc09cc4032ac8d8deac62bc9b326f",
                    "d0479177e247d804e7b8f19999c4e8a1cd51bcdc6e9804c7b484ea89759abff8"),
    "market_async_d5": (_market_async_d5,
                        "93aa4ba53575bdc7a483c923a00b6d7835a24c9641f99e7a025c1f2120a7407f",
                        "6192ffc810d4cc924be5201912f2087fa81878a5d8b3bf5920c9f316a487d2c5"),
    "mixed_seeded_d4": (_mixed_seeded,
                        "bb008fab6b14d08b3ee76c969f851f8fc9dcfe7b135b7b12f784c506e147f844",
                        "dec1e1ab3239e32b9e9d41e264f7523f370a2929f389a462f8e4f488285858c6"),
    "path_sync_n48": (_path_sync,
                      "7c1ebdff58240e89dcdbd042463a62239143fe4861cb6cff7253daefd20784ed",
                      "b850f31c744849e72944a9c04761130407499d55be0a1fca9a458ea9267a60b8"),
    "market_nonfinite": (_market_nonfinite,
                         "a4339adbb9f223b5d854bc2ed75e9b59f1d629b07bdd24a300c863db16dec9aa",
                         "bcb93ee3b017d8e64dd20ce7ec7dd200ced8b00cae5aa1e382037af6fb98ffca"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FILES))
def test_saved_trace_files_match_pinned_digests(name, tmp_path):
    build, csv_digest, meta_digest = FILES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = build()
        trace.save(tmp_path / "a.csv", tmp_path / "a.json")
        assert (_sha256(tmp_path / "a.csv"), _sha256(tmp_path / "a.json")) == (
            csv_digest, meta_digest)
        IterationTrace.from_csv(tmp_path / "a.csv", tmp_path / "a.json").save(
            tmp_path / "b.csv", tmp_path / "b.json")
    for suffix in ("csv", "json"):
        assert (tmp_path / f"b.{suffix}").read_bytes() == (tmp_path / f"a.{suffix}").read_bytes()
