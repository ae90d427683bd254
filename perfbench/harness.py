"""Closed-loop measurement of one workload: timed ops, traced ops, report.

One client in one thread runs one op after another until the run's time is
spent; each op starts when the previous one has finished.  Untraced ops give
the end-to-end metrics.  With tracing on, traced ops (wrappers installed)
alternate with untraced ones, which give the tracing overhead.

A time is reported as a low quantile (``FAST_QUANTILE``) of its samples over
the run's ops, not as their median.  On the shared host the benchmark was
tuned on, the CPU runs the same code at one speed or at about half of it,
switching within milliseconds, and the share of slow time changes from
minute to minute; the median of a run follows that share, while the fast
end of the distribution moves far less.  Short ops, hundreds per run, give
the fast end enough samples.  The median is printed beside it.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

import dualprox
import numpy as np

from pipeline import OpResult, Workload, check_op, expectations, run_op
from spans import PHASES, Tracer, phase_seconds, span_table

END_TO_END = {
    "solve_s": "s",
    "rounds": "count",
    "us_per_round": "us",
    "setup_s": "s",
    "trace_write_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

CALLS = ("model.lipschitz", "model.neighbors", "model.apply_C",
         "convex.conjugate_argmax", "convex.prox", "convex.with_box",
         "convex.conjugate", "convex.f_value", "engine.grad_P_block", "engine.tau")
SELF = ("model.neighbors", "model.apply_C", "convex.conjugate_argmax",
        "convex.prox", "convex.conjugate", "engine.grad_P_block", "engine.run")
TOTAL = ("scenarios.build", "model.validate", "model.lipschitz",
         "model.instance_hash", "engine.recover_primal", "engine.save",
         "engine.from_csv", "engine.verify")

PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.self_s": "s" for n in SELF},
    **{f"{n}_s": "s" for n in TOTAL},
    "engine.messages": "count",
    **{f"phase.{p}_us": "us" for p in PHASES},
    "trace.overhead_frac": "ratio",
}

FAST_QUANTILE = 0.01
MIN_TRACED_OPS = 2


def fast(values) -> float:
    """The ``FAST_QUANTILE`` quantile of the samples (see the module doc)."""
    return float(np.quantile(np.asarray(list(values), dtype=float), FAST_QUANTILE))


class Op:
    """What is kept of one op once its outputs are checked."""

    def __init__(self, res: OpResult, failed: list, traced: Tracer | None = None):
        self.setup_s = res.setup_s
        self.solve_s = res.solve_s
        self.write_s = res.write_s
        self.replay_s = res.replay_s
        self.rounds = res.trace.n_transitions
        self.messages = int(sum(res.trace.message_counts))
        self.lam_bits = np.asarray(res.trace.lam[-1], dtype=float).tobytes()
        self.min_slack = res.min_slack
        self.failed = list(failed)
        self.layers = self.table = None
        if traced is not None:
            spans = traced.arrays()
            self.table = span_table(spans)
            self.layers = layer_metrics(spans, self.table, self.rounds, self.messages)

    def counts(self) -> tuple:
        """Exact counts that must repeat between ops at one seed."""
        base = (self.rounds, self.messages, self.lam_bits)
        if self.layers is None:
            return base
        return base + tuple(v for k, v in sorted(self.layers.items()) if k.endswith(".calls"))


def layer_metrics(spans: dict, table: dict, rounds: int, messages: int) -> dict:
    get = lambda name: table.get(name, (0, 0.0, 0.0))  # noqa: E731
    out = {f"{n}.calls": get(n)[0] for n in CALLS}
    out.update({f"{n}.self_s": get(n)[2] for n in SELF})
    out.update({f"{n}_s": get(n)[1] for n in TOTAL})
    out["engine.messages"] = messages
    out.update({f"phase.{p}_us": s / rounds * 1e6 for p, s in phase_seconds(spans).items()})
    return out


def one_op(w: Workload, seed: int, workdir: Path, expected: dict, tracer=None) -> Op:
    if tracer is None:
        res = run_op(w, seed, workdir)
    else:
        with tracer.installed():
            res = run_op(w, seed, workdir, span=tracer.span)
    return Op(res, check_op(w, res, expected), tracer)


def closed_loop(w: Workload, seed: int, seconds: float, workdir: Path, traced: bool,
                log=print) -> tuple:
    """Ops back to back until ``seconds`` have passed.

    Untraced only, or with tracing on: untraced, traced, traced, then
    alternating, with at least ``MIN_TRACED_OPS`` traced ops.  Returns
    ``(ops, n_raised)``.  The reference values and a warm-up op come first,
    outside the timed window.
    """
    expected = expectations(w, seed)
    if expected.get("converged_failed"):
        log(f"# the converged solve failed {expected['converged_failed']}")
    run_op(w, seed, workdir)  # warm-up: lazy imports, caches
    ops = []
    n_started = n_traced = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while not n_started or clock() < deadline or (traced and n_traced < MIN_TRACED_OPS):
        tracer = None
        if traced and (n_started in (1, 2) or (n_started > 2 and n_started % 2 == 0)):
            tracer = Tracer()
            tracer.op = n_started
            n_traced += 1
        n_started += 1
        try:
            op = one_op(w, seed, workdir, expected, tracer)
        except dualprox.errors.DualproxError as exc:
            log(f"# op {n_started - 1} raised {type(exc).__name__}: {exc}")
            continue
        if op.failed:
            log(f"# op {n_started - 1} failed {op.failed}")
        ops.append(op)
    gate_determinism(ops)
    return ops, n_started - len(ops)


def gate_determinism(ops: list) -> None:
    """Fail every op whose exact counts or final dual vector differ from the
    first op's."""
    traced = [op for op in ops if op.layers is not None]
    for group, key in ((ops, lambda op: (op.rounds, op.messages, op.lam_bits)),
                       (traced, Op.counts)):
        for op in group[1:]:
            if key(op) != key(group[0]) and "determinism" not in op.failed:
                op.failed.append("determinism")


# the stage times of an op, by end-to-end metric
STAGES = {
    "solve_s": lambda op: op.solve_s,
    "us_per_round": lambda op: op.solve_s / op.rounds * 1e6,
    "setup_s": lambda op: op.setup_s,
    "trace_write_s": lambda op: op.write_s,
    "replay_s": lambda op: op.replay_s,
}


def end_to_end(ops: list) -> dict:
    """Times are the fast quantile over the run's ops; counts are exact."""
    out = {name: fast(map(stage, ops)) for name, stage in STAGES.items()}
    out["rounds"] = ops[0].rounds
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: out[name] for name in END_TO_END}


def per_layer(ops: list) -> dict:
    traced = [op for op in ops if op.layers is not None]
    plain = [op for op in ops if op.layers is None]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = (fast(op.solve_s for op in traced)
                         / fast(op.solve_s for op in plain) - 1.0)
        elif name.endswith(".calls") or name == "engine.messages":
            out[name] = traced[0].layers[name]
        else:
            out[name] = fast(op.layers[name] for op in traced)
    return out


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            log=print) -> dict:
    """Run the closed loop and return the result: correct, attempted, failed, metrics."""
    ops, raised = closed_loop(w, seed, seconds, workdir, trace, log)
    attempted = len(ops) + raised
    failed = raised + sum(1 for op in ops if op.failed)
    kinds = {op.layers is not None for op in ops}
    if kinds != ({True, False} if trace else {False}):
        raise RuntimeError("no op of a needed kind finished; nothing to report")
    values = per_layer(ops) if trace else end_to_end(ops)
    units = PER_LAYER if trace else END_TO_END
    report(w, ops, values, units, failed, attempted, log)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def report(w: Workload, ops: list, values: dict, units: dict,
           failed: int, attempted: int, log) -> None:
    log(f"# {w.name}: fail_frac {failed / attempted:.4g} ({failed}/{attempted} ops); "
        f"min gated rate slack {min(op.min_slack for op in ops):+.4g}")
    plain = [op for op in ops if op.layers is None]
    log(f"# {len(ops)} ops, {len(plain)} untraced; times are the {FAST_QUANTILE:g} "
        f"quantile over the untraced ops (median in brackets)")
    for name, value in values.items():
        extra = ""
        if name in STAGES:
            extra = f"  ({float(np.median([STAGES[name](op) for op in plain])):.6g})"
        log(f"# {name:28s} {value:>16.6g} {units[name]}{extra}")
    traced = [op for op in ops if op.layers is not None]
    if traced:
        table = traced[0].table
        total_self = sum(s for _, _, s in table.values())
        log("# spans of the first traced op: name, calls, total_s, self_s, self share")
        layers = {}
        for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            log(f"#   {name:26s} {calls:>9d} {total:>10.4f} {own:>10.4f} {own / total_self:>7.1%}")
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
        log("# self-time share by layer: " + ", ".join(
            f"{layer} {own / total_self:.1%}"
            for layer, own in sorted(layers.items(), key=lambda kv: -kv[1])))
