"""In-memory span tracing around the package's layer boundaries.

A traced op swaps wrappers in for the public names the engine calls (the
wrappers live here, not in the package) and puts them back when it ends, so
no untimed or timed op ever runs through them.  Each span is one row of
columnar arrays: name id, parent row, op id, start and end.  Self time is a
span's duration minus the durations of its direct children; spans are
strictly nested in this single-threaded process, so the children never
overlap.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import dualprox

# (owner, attribute, span name).  The engine resolves these names through
# its module globals or through the classes, so patching them there reaches
# every call the solver makes.  An owner or name that a later engine no
# longer has is skipped, and its counters read 0.
TARGETS = (
    ("engine", "conjugate_argmax", "convex.conjugate_argmax"),
    ("engine", "apply_C", "model.apply_C"),
    ("engine", "grad_P_block", "engine.grad_P_block"),
    ("engine", "instance_hash", "model.instance_hash"),
    ("engine", "lipschitz_constant", "model.lipschitz"),
    ("model.Topology", "neighbors", "model.neighbors"),
    ("convex.ProxFriendlyFunction", "prox", "convex.prox"),
    ("convex.ProxFriendlyFunction", "conjugate", "convex.conjugate"),
    ("convex.ProxFriendlyFunction", "with_box", "convex.with_box"),
    ("convex.ProxFriendlyFunction", "conjugate_argmax", "convex.g_argmax"),
    ("convex.SmoothConjugable", "value", "convex.f_value"),
    ("engine.DelaySchedule", "tau", "engine.tau"),
)


def _owner(path: str):
    """``"engine.DelaySchedule"`` -> ``dualprox.engine.DelaySchedule``, or None."""
    obj = dualprox
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


# Per-round phases: spans whose parent is ``engine.run`` are charged to a
# phase by name, with their children.  ``with_box`` rebuilds the composite
# g for both the prox and the objective and is charged to the prox.  What
# ``run`` does itself (loop, snapshots, trace recording, message objects)
# and its ``tau`` reads form the record phase.
PHASES = {
    "xhat": ("model.apply_C", "convex.conjugate_argmax"),
    "grad": ("engine.grad_P_block", "model.neighbors"),
    "prox": ("convex.prox", "convex.with_box"),
    "objective": ("convex.conjugate", "convex.f_value"),
    "record": ("engine.tau",),
}


class Tracer:
    """Records spans in memory; ``span`` for the benchmark's own stages."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.op = 0

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        row = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def _close(self, row: int) -> None:
        self.end[row] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        row = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(row)

    def wrap(self, name: str, fn):
        nid = self._name(name)

        def traced(*args, **kwargs):
            row = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target present for the duration of the block."""
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _owner(path)
                if owner is not None and attr in vars(owner):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }


def span_table(spans: dict) -> dict:
    """``name -> (calls, total_s, self_s)`` over all spans given.

    ``self_s`` is each span's duration minus the summed durations of the
    spans whose parent it is.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    nid = spans["name_id"]
    n_names = len(spans["names"])
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    self_s = np.bincount(nid, weights=own, minlength=n_names)
    return {name: (int(calls[k]), float(total[k]), float(self_s[k]))
            for k, name in enumerate(spans["names"])}


def phase_seconds(spans: dict) -> dict:
    """Seconds per phase of the ``engine.run`` spans (see ``PHASES``)."""
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    if "engine.run" not in names:
        return {phase: 0.0 for phase in PHASES}
    run_rows = np.flatnonzero(nid == names.index("engine.run"))
    under_run = np.isin(parent, run_rows)
    out = {}
    for phase, members in PHASES.items():
        ids = [names.index(m) for m in members if m in names]
        out[phase] = float(dur[under_run & np.isin(nid, ids)].sum())
    children = np.zeros(dur.size)
    np.add.at(children, parent[under_run], dur[under_run])
    out["record"] += float((dur[run_rows] - children[run_rows]).sum())
    return out
