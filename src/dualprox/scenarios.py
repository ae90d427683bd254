"""Builders for concrete problem instances.

* ``build_market``: the electricity-market welfare problem with utility
  companies and saturating energy users coupled by a supply-demand balance
  row, each agent holding its own linear reinterpretation of that row.
* ``build_consensus``: consensus over a connected graph expressed through
  Laplacian-structured per-agent constraints.
* ``apply_transform``: generate asymmetric per-agent constraints from a
  shared ``A x = b`` via full-row-rank transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convex import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
)
from .errors import RankDeficientError
from .model import AgentSpec, ConstraintBlock, ProblemInstance, Topology

# Reference market data: two utility companies (quadratic generation costs
# kappa x^2 + vartheta x + beta on [0, x_max]) and three users (saturating
# quadratic utilities with price pi and curvature varsigma on [0, x_max]).
DEFAULT_UC_PARAMS = [
    {"kappa": 0.0031, "vartheta": 8.71, "beta": 0.0, "x_max": 150.0},
    {"kappa": 0.0074, "vartheta": 3.53, "beta": 0.0, "x_max": 150.0},
]
DEFAULT_USER_PARAMS = [
    {"pi": 17.17, "varsigma": 0.0935, "x_max": 91.79},
    {"pi": 12.28, "varsigma": 0.0417, "x_max": 147.29},
    {"pi": 18.42, "varsigma": 0.1007, "x_max": 91.41},
]
DEFAULT_TRANSFORMS = [1.0, 2.0, -1.0, 1.0, -1.0]


@dataclass
class MarketParams:
    """Parameters of the market scenario; defaults reproduce the reference table."""

    uc: list = field(default_factory=lambda: [dict(p) for p in DEFAULT_UC_PARAMS])
    users: list = field(default_factory=lambda: [dict(p) for p in DEFAULT_USER_PARAMS])
    transforms: list = field(default_factory=lambda: list(DEFAULT_TRANSFORMS))

    def __post_init__(self):
        if any(p["kappa"] <= 0 for p in self.uc):
            raise ValueError("kappa must be strictly positive")
        if any(p["varsigma"] <= 0 for p in self.users):
            raise ValueError("varsigma must be strictly positive")
        n = len(self.uc) + len(self.users)
        if len(self.transforms) != n:
            raise ValueError(f"need one transform per agent ({n})")
        if any(t == 0 for t in self.transforms):
            raise ValueError("transforms must be nonzero scalars")


def apply_transform(transforms, A, b):
    """Per-agent ``(A^(i), b^(i)) = (T_i A, T_i b)``, blocks keyed by agent.

    ``transforms[i]`` is ``T_i``, a scalar or a vector read as one row.
    Raises :class:`RankDeficientError` when some ``T_i`` lacks full row rank.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n_agents = len(transforms)
    if A.shape[1] % n_agents:
        raise ValueError("A's column count must split evenly across agents")
    M = A.shape[1] // n_agents
    out = []
    for i, T in enumerate(transforms):
        T = np.atleast_2d(np.asarray(T, dtype=float))
        if np.linalg.matrix_rank(T) < T.shape[0]:
            raise RankDeficientError(f"transform {i} does not have full row rank")
        Ai = T @ A
        bi = T @ b
        blocks = {}
        for l in range(n_agents):
            blk = Ai[:, l * M:(l + 1) * M]
            if np.any(blk != 0):
                blocks[l] = blk
        out.append((blocks, bi))
    return out


def build_market(params: MarketParams | None = None) -> ProblemInstance:
    """Market instance on a fully connected topology.

    The single coupling row ``sum(generation) = sum(consumption)`` touches
    every agent, so the network is fully connected and every agent's block
    map is dense.  Both the smooth part's effective domain and the nonsmooth
    part carry the local box, which exercises the gradient and the proximal
    constraint paths together.
    """
    params = params or MarketParams()
    n_uc = len(params.uc)
    n_user = len(params.users)
    n = n_uc + n_user
    A = np.concatenate([np.ones(n_uc), -np.ones(n_user)]).reshape(1, n)
    b = np.zeros(1)
    per_agent = apply_transform(params.transforms, A, b)

    agents = []
    for i in range(n):
        if i < n_uc:
            p = params.uc[i]
            box = BoxSet([0.0], [p["x_max"]])
            base = QuadraticFunction(2.0 * p["kappa"], [p["vartheta"]], p["beta"])
            f = SmoothConjugable(base, box, 2.0 * p["kappa"])
        else:
            p = params.users[i - n_uc]
            box = BoxSet([0.0], [p["x_max"]])
            base = PiecewiseQuadraticUtility(p["pi"], p["varsigma"])
            f = SmoothConjugable(base, box, 2.0 * p["varsigma"])
        blocks, bi = per_agent[i]
        agents.append(AgentSpec(
            id=i, f=f, g=ProxFriendlyFunction.indicator_box(box), omega=box,
            constraint=ConstraintBlock(owner=i, blocks=blocks, rhs=bi)))
    return ProblemInstance(Topology.fully_connected(n), tuple(agents), M=1, B=1)


def build_consensus(topology: Topology, locals_f, locals_g=None,
                    omegas=None, M: int | None = None) -> ProblemInstance:
    """Consensus instance: each agent constrains itself to its neighbours.

    Agent ``i`` holds ``|V_i| x_i - sum_{l in V_i} x_l = 0``; stacked, these
    rows equal the graph Laplacian acting on ``x``, so any feasible point is
    a consensus point on a connected graph.
    """
    if not topology.is_connected():
        raise ValueError("consensus needs a connected topology")
    n = topology.n_agents
    if len(locals_f) != n:
        raise ValueError("need one smooth part per agent")
    if M is None:
        M = locals_f[0].dim
    if locals_g is None:
        locals_g = [ProxFriendlyFunction.zero()] * n
    if omegas is None:
        omegas = [None] * n

    agents = []
    eye = np.eye(M)
    for i in range(n):
        nbrs = topology.neighbors(i)
        blocks = {i: len(nbrs) * eye}
        for l in nbrs:
            blocks[l] = -eye
        agents.append(AgentSpec(
            id=i, f=locals_f[i], g=locals_g[i], omega=omegas[i],
            constraint=ConstraintBlock(owner=i, blocks=blocks, rhs=np.zeros(M))))
    return ProblemInstance(topology, tuple(agents), M=M, B=M)


def quadratic_local(target, curvature: float = 1.0) -> SmoothConjugable:
    """Convenience: ``0.5 * curvature * ||x - target||^2`` on all of space."""
    target = np.atleast_1d(np.asarray(target, dtype=float))
    base = QuadraticFunction(curvature * np.eye(target.size),
                             -curvature * target,
                             0.5 * curvature * float(target @ target))
    return SmoothConjugable(base)


SCENARIOS = {"market": ("uc", "users", "transforms"),  # name: its override keys
             "consensus": ("targets", "curvatures", "edges")}


def build_scenario(name: str, overrides: dict | None = None) -> ProblemInstance:
    """Build a named scenario; JSON-style overrides may set only its own keys."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(SCENARIOS[name]))
    if unknown:
        raise ValueError(f"unknown override keys {', '.join(map(repr, unknown))}; "
                         f"{name} takes {', '.join(SCENARIOS[name])}")
    if name == "market":
        params = MarketParams(
            uc=overrides.get("uc", [dict(p) for p in DEFAULT_UC_PARAMS]),
            users=overrides.get("users", [dict(p) for p in DEFAULT_USER_PARAMS]),
            transforms=overrides.get("transforms", list(DEFAULT_TRANSFORMS)),
        )
        return build_market(params)
    targets = overrides.get("targets", [0.0, 3.0, 6.0])
    curvatures = overrides.get("curvatures", [1.0] * len(targets))
    edges = overrides.get("edges")
    n = len(targets)
    topo = (Topology(n, frozenset(tuple(e) for e in edges))
            if edges is not None else Topology.path(n))
    locals_f = [quadratic_local([t], c) for t, c in zip(targets, curvatures)]
    return build_consensus(topo, locals_f)
