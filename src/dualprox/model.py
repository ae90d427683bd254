"""Problem data model: agents, asymmetric constraint blocks, topology.

Each agent ``i`` owns a private interpretation ``A^(i) x = b^(i)`` of the
global affine coupling constraint, stored sparsely as per-neighbour column
blocks.  The row map ``C_i`` acts on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]`` without being materialized, except
for diagnostics and the Lipschitz-constant computation.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .convex import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
)
from .errors import MalformedInstanceError, SingularScaleError


@dataclass(frozen=True)
class Topology:
    """Undirected graph over agents ``0..n_agents-1`` with no self-loops."""

    n_agents: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents):
                raise ValueError("edge endpoint out of range")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    @staticmethod
    def fully_connected(n: int) -> "Topology":
        return Topology(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    @staticmethod
    def path(n: int) -> "Topology":
        return Topology(n, frozenset((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def star(n: int) -> "Topology":
        return Topology(n, frozenset((0, i) for i in range(1, n)))

    def neighbors(self, i: int) -> list:
        return sorted(j for j in range(self.n_agents)
                      if (min(i, j), max(i, j)) in self.edges and j != i)

    def is_connected(self) -> bool:
        if self.n_agents == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_agents


@dataclass(frozen=True)
class ConstraintBlock:
    """One agent's constraint ``A^(i) x = b^(i)``, stored by column block.

    ``blocks[l]`` is the ``B x M`` sub-matrix multiplying ``x_l``; absent
    keys mean zero blocks.
    """

    owner: int
    blocks: dict
    rhs: np.ndarray

    def __post_init__(self):
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        blocks = {}
        for l, a in self.blocks.items():
            a = np.asarray(a, dtype=float)
            if a.ndim < 2:
                a = a.reshape(rhs.size, -1)
            blocks[int(l)] = a
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class AgentSpec:
    """One agent: smooth part, nonsmooth part, local set, constraint block."""

    id: int
    f: SmoothConjugable
    g: ProxFriendlyFunction
    omega: BoxSet | None
    constraint: ConstraintBlock

    @functools.cached_property
    def effective_g(self) -> ProxFriendlyFunction:
        """The composite ``g + indicator(omega)`` used by the dual updates."""
        return self.g.with_box(self.omega)


@dataclass(frozen=True)
class ProblemInstance:
    """A validated multi-agent problem with coupling constraints."""

    topology: Topology
    agents: tuple
    M: int
    B: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def dual_dim(self) -> int:
        return self.n_agents * (self.B + self.M)

    def theta_slice(self, i: int) -> slice:
        return slice(i * self.B, (i + 1) * self.B)

    def mu_slice(self, i: int) -> slice:
        off = self.n_agents * self.B
        return slice(off + i * self.M, off + (i + 1) * self.M)


# ---------------------------------------------------------------------------
# structured dual operators
# ---------------------------------------------------------------------------


def apply_C(instance: ProblemInstance, i: int, lam: np.ndarray) -> np.ndarray:
    """``C_i lam = -sum_l (A_i^(l))' theta_l - mu_i`` over ``l in V_i + {i}``."""
    out = -lam[instance.mu_slice(i)].copy()
    for l in sorted(set(instance.topology.neighbors(i)) | {i}):
        block = instance.agents[l].constraint.blocks.get(i)
        if block is not None:
            out -= block.T @ lam[instance.theta_slice(l)]
    return out


def materialize_C(instance: ProblemInstance, i: int) -> np.ndarray:
    """Dense ``M x (NB + NM)`` row map, for diagnostics and norms only."""
    C = np.zeros((instance.M, instance.dual_dim))
    for l in range(instance.n_agents):
        block = instance.agents[l].constraint.blocks.get(i)
        if block is not None:
            C[:, instance.theta_slice(l)] = -block.T
    C[:, instance.mu_slice(i)] = -np.eye(instance.M)
    return C


def lipschitz_constant(instance: ProblemInstance):
    """Smoothness constant of the dual smooth part: ``h = sum_i ||C_i||^2 / sigma_i``.

    Returns ``(h, per_agent)`` where ``per_agent[i] = ||C_i||^2 / sigma_i``
    with the spectral norm of the materialized row map.
    """
    per_agent = []
    for i, agent in enumerate(instance.agents):
        sigma = agent.f.strong_convexity
        if sigma <= 0:
            raise SingularScaleError(f"agent {i} has nonpositive curvature {sigma}")
        norm = np.linalg.norm(materialize_C(instance, i), 2)
        per_agent.append(norm**2 / sigma)
    return float(sum(per_agent)), per_agent


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "not_checked"
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(f"[{c.status:>11}] {c.name}: {c.detail}" for c in self.checks)


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Structural validation; returns a report instead of raising.

    Checks: connectivity, block sparsity w.r.t. the topology, positive
    curvature of every smooth part, and dimension consistency.  Existence of
    a strictly feasible point is reported as not checked (general feasibility
    detection is itself an optimization problem).
    """
    checks = []
    topo = instance.topology

    ids_ok = [a.id for a in instance.agents] == list(range(instance.n_agents))
    checks.append(CheckResult(
        "agent_ids", "pass" if ids_ok else "fail",
        "ids are 0..N-1 in order" if ids_ok else "agent ids must be 0..N-1 in list order"))

    connected = topo.is_connected()
    checks.append(CheckResult(
        "connectivity", "pass" if connected else "fail",
        f"{topo.n_agents} agents, {len(topo.edges)} edges"))

    sparsity_violations = []
    for a in instance.agents:
        allowed = set(topo.neighbors(a.id)) | {a.id}
        for l, block in a.constraint.blocks.items():
            if l not in allowed and np.any(block != 0):
                sparsity_violations.append((a.id, l))
    checks.append(CheckResult(
        "block_sparsity",
        "pass" if not sparsity_violations else "fail",
        "nonzero blocks only on neighbours" if not sparsity_violations
        else f"nonzero blocks outside neighbourhood: {sparsity_violations}"))

    bad_sigma = [a.id for a in instance.agents if a.f.strong_convexity <= 0]
    checks.append(CheckResult(
        "strong_convexity", "pass" if not bad_sigma else "fail",
        "all sigma_i > 0" if not bad_sigma else f"agents with sigma <= 0: {bad_sigma}"))

    dim_issues = []
    for a in instance.agents:
        if a.constraint.n_rows != instance.B:
            dim_issues.append(f"agent {a.id}: rhs has {a.constraint.n_rows} rows, expected B={instance.B}")
        for l, block in a.constraint.blocks.items():
            if block.shape != (instance.B, instance.M):
                dim_issues.append(f"agent {a.id}: block for {l} has shape {block.shape}")
        if a.f.dim != instance.M:
            dim_issues.append(f"agent {a.id}: smooth part has dim {a.f.dim}, expected M={instance.M}")
        if a.omega is not None and a.omega.dim != instance.M:
            dim_issues.append(f"agent {a.id}: omega has dim {a.omega.dim}")
    checks.append(CheckResult(
        "dimensions", "pass" if not dim_issues else "fail",
        "B and M consistent across agents" if not dim_issues else "; ".join(dim_issues)))

    checks.append(CheckResult(
        "strict_feasibility", "not_checked",
        "existence of a strictly feasible point is not verified"))

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _box_to_json(box: BoxSet | None):
    if box is None:
        return None
    return {"lower": box.lower.tolist(), "upper": box.upper.tolist()}


def _box_from_json(obj) -> BoxSet | None:
    if obj is None:
        return None
    return BoxSet(np.asarray(obj["lower"]), np.asarray(obj["upper"]))


def _f_to_json(f: SmoothConjugable):
    if isinstance(f.base, QuadraticFunction):
        base = {
            "kind": "quadratic",
            "params": {
                "curvature": f.base.curvature.tolist(),
                "linear": f.base.linear.tolist(),
                "offset": f.base.offset,
            },
        }
    else:
        base = {
            "kind": "piecewise_quadratic_utility",
            "params": {"price": f.base.price, "curvature": f.base.curvature},
        }
    base["domain"] = _box_to_json(f.effective_domain)
    base["strong_convexity"] = f.strong_convexity
    return base


def _f_from_json(obj) -> SmoothConjugable:
    params = obj["params"]
    if obj["kind"] == "quadratic":
        base = QuadraticFunction(
            np.asarray(params["curvature"]),
            np.asarray(params["linear"]),
            params.get("offset", 0.0),
        )
    elif obj["kind"] == "piecewise_quadratic_utility":
        base = PiecewiseQuadraticUtility(params["price"], params["curvature"])
    else:
        raise ValueError(f"unknown smooth kind {obj['kind']!r}")
    return SmoothConjugable(base, _box_from_json(obj.get("domain")),
                            obj.get("strong_convexity"))


def _g_to_json(g: ProxFriendlyFunction):
    if g.kind == "zero":
        if g.box is None:
            return {"kind": "zero", "params": {}}
        return {"kind": "indicator_box", "params": {"box": _box_to_json(g.box)}}
    if g.kind == "l1":
        if g.box is None:
            return {"kind": "l1_norm", "params": {"weight": g.weight}}
        return {"kind": "l1_plus_box",
                "params": {"weight": g.weight, "box": _box_to_json(g.box)}}
    return {"kind": "quadratic",
            "params": {"curvature": g.quad.curvature.tolist(),
                       "linear": g.quad.linear.tolist(),
                       "offset": g.quad.offset,
                       "box": _box_to_json(g.box)}}


def _g_from_json(obj) -> ProxFriendlyFunction:
    kind, p = obj["kind"], obj["params"]
    if kind == "zero":
        return ProxFriendlyFunction.zero()
    if kind == "l1_norm":
        return ProxFriendlyFunction.l1(p["weight"])
    if kind == "indicator_box":
        return ProxFriendlyFunction.indicator_box(_box_from_json(p["box"]))
    if kind == "l1_plus_box":
        return ProxFriendlyFunction.l1_plus_box(p["weight"], _box_from_json(p["box"]))
    if kind == "quadratic":
        quad = QuadraticFunction(np.asarray(p["curvature"]), np.asarray(p["linear"]),
                                 p.get("offset", 0.0))
        return ProxFriendlyFunction.quadratic(quad, _box_from_json(p.get("box")))
    raise ValueError(f"unknown nonsmooth kind {kind!r}")


def instance_to_json(instance: ProblemInstance) -> dict:
    """Canonical on-disk problem format (matrices row-major)."""
    return {
        "M": instance.M,
        "B": instance.B,
        "edges": sorted([list(e) for e in instance.topology.edges]),
        "agents": [
            {
                "id": a.id,
                "f": _f_to_json(a.f),
                "g": _g_to_json(a.g),
                "omega": _box_to_json(a.omega),
                "constraint": {
                    "blocks": {str(l): blk.tolist()
                               for l, blk in sorted(a.constraint.blocks.items())},
                    "rhs": a.constraint.rhs.tolist(),
                },
            }
            for a in instance.agents
        ],
    }


def instance_from_json(obj: dict) -> ProblemInstance:
    """Rebuild an instance from its canonical JSON form.

    Raises :class:`MalformedInstanceError` when a required key is missing or
    a value has the wrong type or shape.
    """
    try:
        agents = []
        for a in obj["agents"]:
            constraint = ConstraintBlock(
                owner=int(a["id"]),
                blocks={int(l): np.asarray(blk) for l, blk in a["constraint"]["blocks"].items()},
                rhs=np.asarray(a["constraint"]["rhs"]),
            )
            agents.append(AgentSpec(
                id=int(a["id"]),
                f=_f_from_json(a["f"]),
                g=_g_from_json(a["g"]),
                omega=_box_from_json(a.get("omega")),
                constraint=constraint,
            ))
        topo = Topology(len(agents), frozenset(tuple(e) for e in obj["edges"]))
        return ProblemInstance(topo, tuple(agents), int(obj["M"]), int(obj["B"]))
    except KeyError as exc:
        raise MalformedInstanceError(f"instance JSON lacks key {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise MalformedInstanceError(f"malformed instance JSON: {exc}") from exc


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def instance_hash(instance: ProblemInstance) -> str:
    """Stable content hash of the canonical JSON form."""
    blob = json.dumps(instance_to_json(instance), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
