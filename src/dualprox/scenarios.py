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
from .model import AgentSpec, ProblemInstance, Topology

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
    """Every agent's ``(A^(i), b^(i)) = (T_i A, T_i b)`` as a block table.

    ``transforms[i]`` is ``T_i``, a scalar or a vector read as one row; all
    have the same shape.  Returns ``(owner, l, blocks, rhs)``: the nonzero
    blocks ``A_l^(i)``, sorted by ``(owner, l)``, and ``rhs[i] = b^(i)``.
    Raises :class:`RankDeficientError` when some ``T_i`` lacks full row rank.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n_agents = len(transforms)
    if A.shape[1] % n_agents:
        raise ValueError("A's column count must split evenly across agents")
    M = A.shape[1] // n_agents
    T = [np.atleast_2d(np.asarray(t, dtype=float)) for t in transforms]
    if len({t.shape for t in T}) > 1:
        raise ValueError("every transform needs the same shape")
    T = np.array(T)
    rank_deficient = np.flatnonzero(np.linalg.matrix_rank(T) < T.shape[1])
    if rank_deficient.size:
        raise RankDeficientError(f"transform {rank_deficient[0]} does not have full row rank")
    B = T.shape[1]
    # by_agent[i, l] = A_l^(i), the columns of T_i A that multiply x_l
    by_agent = (T @ A).reshape(n_agents, B, n_agents, M).transpose(0, 2, 1, 3)
    owner, l = np.nonzero(by_agent.any(axis=(2, 3)))
    return owner, l, by_agent[owner, l], T @ b


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
    table = apply_transform(params.transforms, A, b)

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
        agents.append(AgentSpec(f, ProxFriendlyFunction.indicator_box(box), box))
    return ProblemInstance(Topology.fully_connected(n), agents, 1, 1, *table)


def build_consensus(topology: Topology, locals_f, locals_g=None, omegas=None) -> ProblemInstance:
    """Consensus instance: each agent constrains itself to its neighbours.

    Agent ``i`` holds ``|V_i| x_i - sum_{l in V_i} x_l = 0``; stacked, these
    rows equal the graph Laplacian acting on ``x``, so any feasible point is
    a consensus point on a connected graph.
    """
    if not topology.is_connected:
        raise ValueError("consensus needs a connected topology")
    n = topology.n_agents
    if len(locals_f) != n:
        raise ValueError("need one smooth part per agent")
    M = locals_f[0].dim

    # agent i's blocks: |V_i| I on x_i, then -I on each neighbour
    edges = topology.edges
    eye = np.eye(M)
    degree = np.bincount(edges.ravel(), minlength=n)
    blocks = np.concatenate([degree[:, None, None] * eye,
                             np.broadcast_to(-eye, (2 * len(edges), M, M))])
    agents = tuple(map(AgentSpec, locals_f, locals_g or [ProxFriendlyFunction.zero()] * n,
                       omegas or [None] * n))
    return ProblemInstance(topology, agents, M, M,
                           np.concatenate([np.arange(n), edges[:, 0], edges[:, 1]]),
                           np.concatenate([np.arange(n), edges[:, 1], edges[:, 0]]),
                           blocks, np.zeros((n, M)))


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
        return build_market(MarketParams(**overrides))
    targets = overrides.get("targets", [0.0, 3.0, 6.0])
    curvatures = overrides.get("curvatures", [1.0] * len(targets))
    edges = overrides.get("edges")
    n = len(targets)
    topo = Topology(n, edges) if edges is not None else Topology.path(n)
    locals_f = [quadratic_local([t], c) for t, c in zip(targets, curvatures)]
    return build_consensus(topo, locals_f)
