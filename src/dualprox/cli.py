"""Command-line front end: run solvers, verify rate bounds, reproduce results.

Three subcommands:

* ``dualprox run``: build or load an instance, execute the solver, write
  ``trace.csv`` + ``trace_meta.json`` and print a summary that says whether
  the run reached its tolerance.
* ``dualprox verify``: recompute the rate-bound slacks for a saved trace and
  write a JSON report; exits nonzero when any slack is negative beyond 1e-9.
* ``dualprox repro``: run the desk-scale reproduction suite and print a
  pass/fail table; exits nonzero on any failing criterion.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .engine import (
    DelaySchedule,
    IterationTrace,
    StepSizes,
    recover_primal,
    run as engine_run,
    step_size_async,
    verify_rate_bounds,
)
from .errors import DualproxError
from .model import lipschitz_constant, load_instance
from .repro import SLACK_TOL, ReproContext, run_all
from .scenarios import SCENARIOS, build_scenario


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read_instance(path):
    path = Path(path)
    if not path.exists():
        _fail(f"instance file not found: {path}")
    try:
        return load_instance(path)
    except (DualproxError, ValueError) as exc:  # JSONDecodeError is a ValueError
        _fail(f"cannot load instance: {exc}")


def _parse_overrides(text):
    if text is None:
        return None
    try:
        over = json.loads(text)
    except ValueError as exc:
        _fail(f"--overrides is not valid JSON: {exc}")
    if not isinstance(over, dict):
        _fail("--overrides must be a JSON object")
    return over


def _load_problem(scenario, instance, overrides):
    if (scenario is None) == (instance is None):
        _fail("pass exactly one of --scenario or --instance")
    if instance is not None:
        return _read_instance(instance)
    overrides = _parse_overrides(overrides)
    try:
        return build_scenario(scenario, overrides)
    except KeyError as exc:
        _fail(f"cannot build scenario: an override lacks key {exc}")
    except (DualproxError, ValueError, TypeError) as exc:  # a wrongly typed override
        _fail(f"cannot build scenario: {exc}")


def _positive(v) -> bool:
    """A finite positive JSON number."""
    return type(v) in (int, float) and 0 < v < math.inf


def _parse_schedule(text: str, D: int) -> DelaySchedule:
    try:
        if text == "worst":
            return DelaySchedule.worst_case(D)
        if text.startswith("random:"):
            return DelaySchedule.seeded(D, int(text.split(":", 1)[1]))
    except ValueError as exc:  # a seed that is no integer or that the PRNG refuses, or D < 0
        _fail(f"bad delay schedule (--delay {D}, --schedule {text}): {exc}")
    _fail(f"unknown schedule {text!r}; expected worst or random:<seed>")


@click.group()
def main():
    """Dual proximal gradient solvers for coupled composite optimization."""


@main.command("run")
@click.option("--scenario", type=click.Choice(sorted(SCENARIOS)), default=None,
              help="Named scenario to build.")
@click.option("--instance", type=str, default=None, help="Instance JSON path.")
@click.option("--overrides", type=str, default=None,
              help="JSON dict of scenario parameter overrides.")
@click.option("--mode", type=click.Choice(["sync", "async"]), default="sync")
@click.option("--delay", "-D", type=int, default=0, help="Staleness bound D.")
@click.option("--schedule", default=None,
              help="Async delay schedule: worst (default) or random:<seed>.")
@click.option("--iters", type=int, default=100_000, help="Round cap.")
@click.option("--tol", type=float, default=1e-8, help="Step-norm stop tolerance.")
@click.option("--margin", type=float, default=None,
              help="Async step margin in (0, 1], default 1: c_i = margin / (h (D+1)^2).")
@click.option("--psi-star", type=float, default=None,
              help="Reference optimal dual value for the epsilon column "
                   "(default: the best observed Psi).")
@click.option("--out", type=str, default="out", help="Output directory.")
@click.option("--json", "as_json", is_flag=True, help="Print a JSON summary.")
def cmd_run(scenario, instance, overrides, mode, delay, schedule, iters, tol,
            margin, psi_star, out, as_json):
    """Run the solver and write trace.csv + trace_meta.json."""
    inst = _load_problem(scenario, instance, overrides)
    sched = steps = None  # run's own steps: 1/h, or 1/(h (D+1)^2) without --margin
    if mode == "sync":
        given = [flag for flag, value in (("--delay", delay or None), ("--schedule", schedule),
                                          ("--margin", margin)) if value is not None]
        if given:
            _fail(f"sync mode does not take {', '.join(given)}")
    else:
        sched = _parse_schedule("worst" if schedule is None else schedule, delay)
    if margin is not None:
        try:
            steps = step_size_async(lipschitz_constant(inst)[0], delay, n_agents=inst.n_agents,
                                    margins=np.full(inst.n_agents, margin))
        except (DualproxError, ValueError) as exc:
            _fail(str(exc))

    try:
        trace = engine_run(inst, mode=mode, schedule=sched, steps=steps,
                           k_max=iters, tol=tol, psi_star=psi_star)
    except (DualproxError, ValueError) as exc:  # ValueError: h of a malformed instance
        _fail(str(exc))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trace.csv"
    meta_path = out_dir / "trace_meta.json"
    trace.save(csv_path, meta_path)
    if trace.meta["stop_reason"] == "nonfinite":
        _fail(f"run diverged: lambda or Psi turned non-finite at round {trace.n_transitions}; "
              f"wrote {csv_path}")

    rec = recover_primal(inst, trace.lam[-1])
    x_flat = [float(v) for xi in rec.x_hat for v in xi]
    summary = {
        "rounds": trace.n_transitions,
        "stop_reason": trace.meta["stop_reason"],
        "psi": trace.psi[-1],
        "psi_star": trace.psi_star,
        "psi_star_source": trace.meta["psi_star_source"],
        "epsilon": trace.epsilon[-1],
        "x_hat": x_flat,
        "mismatch": rec.mismatch,
        "trace": str(csv_path),
        "metadata": str(meta_path),
    }
    if as_json:
        click.echo(json.dumps(summary, indent=2))
    else:
        final = trace.step_norm_inf[-1] if trace.step_norm_inf else 0.0
        if trace.meta["stop_reason"] == "tol":
            click.echo(f"converged in {trace.n_transitions} rounds "
                       f"(final step norm {final:.3e})")
        else:
            click.echo(f"stopped after {trace.n_transitions} rounds: --iters reached "
                       f"before tol {tol:g} (final step norm {final:.3e})")
        click.echo(f"Psi = {trace.psi[-1]:.6f}   epsilon = {trace.epsilon[-1]:.6e}")
        click.echo("x_hat = [" + ", ".join(f"{v:.4f}" for v in x_flat) + "]")
        click.echo(f"recovery mismatch = {rec.mismatch:.3e}")
        click.echo(f"wrote {csv_path} and {meta_path}")


@main.command("verify")
@click.option("--trace", "trace_path", required=True, type=str, help="Trace CSV path.")
@click.option("--meta", "meta_path", type=str, default=None,
              help="Metadata JSON (default: trace_meta.json beside the trace).")
@click.option("--instance", type=str, default=None,
              help="Instance JSON; when omitted the smoothness constant is "
                   "taken from the trace metadata.")
@click.option("--out", type=str, default="out", help="Output directory.")
@click.option("--json", "as_json", is_flag=True, help="Print the report JSON.")
def cmd_verify(trace_path, meta_path, instance, out, as_json):
    """Check the rate-bound guarantees recorded by a previous run.

    The reference point and value are taken from the trace itself (final iterate, best
    observed objective), so the slacks measure the guarantees against the converged run.
    The report goes to bound_report.json as one line of JSON; --json prints that line.
    """
    trace_path = Path(trace_path)
    if not trace_path.exists():
        _fail(f"trace file not found: {trace_path}")
    meta_path = meta_path or trace_path.with_name("trace_meta.json")
    try:
        trace = IterationTrace.from_csv(trace_path, meta_path)
    except DualproxError as exc:
        _fail(str(exc))

    meta = trace.meta
    h = meta.get("h")
    if instance is not None:
        inst = _read_instance(instance)
        try:
            h, _ = lipschitz_constant(inst)
        except (DualproxError, ValueError) as exc:
            _fail(f"bad instance: {exc}")
    if not _positive(h):
        _fail(f"smoothness constant h = {h!r} is not a positive number: "
              "pass --instance or keep h in the metadata file")
    c, D = meta.get("step_sizes"), meta.get("D", 0)
    if not (type(c) is list and len(c) == trace.n_agents and all(map(_positive, c))):
        _fail(f"trace metadata needs one positive step size per agent ({trace.n_agents})")
    if type(D) is not int or D < 0:
        _fail(f"trace metadata: D = {D!r} is not a nonnegative integer")
    steps = StepSizes(meta.get("step_mode", "per_agent"), np.asarray(c, dtype=float))
    lam_star = trace.lam[-1]
    psi_star = float(np.min(trace.psi))

    try:
        report = verify_rate_bounds(trace, lam_star, psi_star, h, steps, D)
    except DualproxError as exc:
        _fail(str(exc))

    payload = report.to_json()
    payload["gated_on"] = ["no_delay_rate", "delayed_rate"] if D == 0 else ["delayed_rate"]
    payload["gated_on"] += ["delay_count", "weighted_delay_count"]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "bound_report.json"
    text = json.dumps(payload)
    with open(report_path, "w") as fh:
        fh.write(text)

    mins = report.min_slacks()
    if as_json:
        click.echo(text)
    else:
        for name, slack in mins.items():
            shown = "n/a" if slack is None else f"{slack:+.3e}"
            click.echo(f"{name:10s} min slack {shown}")
        click.echo(f"wrote {report_path}")

    violated = [name for name in payload["gated_on"]
                if mins.get(name) is not None and mins[name] < -SLACK_TOL]
    if violated:
        _fail("negative slack beyond tolerance in: " + ", ".join(violated))


@main.command("repro")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable summary.")
def cmd_repro(as_json):
    """Run the full reproduction suite and print pass/fail per criterion."""
    results = run_all(ReproContext())
    if as_json:
        click.echo(json.dumps([{
            "criterion": r.cid, "name": r.name,
            "passed": bool(r.passed), "detail": r.detail,
        } for r in results], indent=2))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            click.echo(f"[{mark}] {r.cid:2d} {r.name}")
            click.echo(f"         {r.detail}")
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
