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
from .model import AgentSpec, ProblemInstance, Topology, _number

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

    def __post_init__(self):  # kappa <= 0, varsigma <= 0 and a zero transform fail when built
        n = len(self.uc) + len(self.users)
        if len(self.transforms) != n:
            raise ValueError(f"need one transform per agent ({n})")


def apply_transform(transforms, A, b):
    """Every agent's ``(A^(i), b^(i)) = (T_i A, T_i b)`` as a block table.

    ``transforms[i]`` is ``T_i``, a scalar or a vector read as one row; all
    have the same shape.  Returns ``(owner, l, blocks, rhs)``: the nonzero
    blocks ``A_l^(i)``, sorted by ``(owner, l)``, and ``rhs[i] = b^(i)``.
    Raises :class:`RankDeficientError` when some ``T_i`` is not finite or lacks full row rank.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n_agents = len(transforms)
    if not n_agents:
        raise ValueError("need at least one transform")
    if A.shape[1] % n_agents:
        raise ValueError("A's column count must split evenly across agents")
    M = A.shape[1] // n_agents
    T = [np.atleast_2d(np.asarray(t, dtype=float)) for t in transforms]
    if len({t.shape for t in T}) > 1:
        raise ValueError("every transform needs the same shape")
    T = np.array(T)
    bad = np.flatnonzero(~np.isfinite(T).all(axis=(1, 2)))  # before the SVD, which needs finite
    if bad.size:
        raise RankDeficientError(f"transform {bad[0]} is not finite")
    # a finite 1x1 T has matrix_rank's rank, 1 exactly when t != 0: |t| > |t| eps
    bad = np.flatnonzero(T[:, 0, 0] == 0 if T.shape[1:] == (1, 1)
                         else np.linalg.matrix_rank(T) < T.shape[1])
    if bad.size:
        raise RankDeficientError(f"transform {bad[0]} does not have full row rank")
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
            base = QuadraticFunction(2.0 * p["kappa"], [p["vartheta"]], p["beta"])
        else:
            p = params.users[i - n_uc]
            base = PiecewiseQuadraticUtility(p["pi"], p["varsigma"])
        box = BoxSet([0.0], [p["x_max"]])
        agents.append(AgentSpec(SmoothConjugable(base, box),
                                ProxFriendlyFunction.indicator_box(box), box))
    return ProblemInstance(Topology.fully_connected(n), agents, 1, 1, *table)


def build_consensus(topology: Topology, locals_f, locals_g=None, omegas=None) -> ProblemInstance:
    """Consensus instance: each agent constrains itself to its neighbours.

    Agent ``i`` holds ``|V_i| x_i - sum_{l in V_i} x_l = 0``; stacked, these
    rows equal the graph Laplacian acting on ``x``, so any feasible point is
    a consensus point; :class:`ProblemInstance` refuses a disconnected
    ``topology``.  ``locals_g`` (default: zero) and ``omegas`` (default:
    none) hold one entry per agent.
    """
    n = topology.n_agents
    for parts, what in ((locals_f, "smooth part"), (locals_g, "nonsmooth part"), (omegas, "omega")):
        if parts is not None and len(parts) != n:
            raise ValueError(f"need one {what} per agent")
    M = locals_f[0].dim

    # agent i's blocks: |V_i| I on x_i, then -I on each neighbour
    edges = topology.edges
    eye = np.eye(M)
    degree = np.bincount(edges.ravel(), minlength=n)
    blocks = np.concatenate([degree[:, None, None] * eye,
                             np.broadcast_to(-eye, (2 * len(edges), M, M))])
    agents = tuple(map(AgentSpec, locals_f,
                       [ProxFriendlyFunction.zero()] * n if locals_g is None else locals_g,
                       [None] * n if omegas is None else omegas))
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
    # numbers must be finite (x_max may be +inf): checked here, off the benchmark's path
    if name == "market":
        params = MarketParams(**overrides)
        for key in ("uc", "users"):
            for i, p in enumerate(getattr(params, key)):
                for number in p:
                    _number(p, number, f"{key}.{i}", bound=number == "x_max")
        for i in range(len(params.transforms)):
            _number(params.transforms, i, "transforms")
        return build_market(params)
    targets = overrides.get("targets", [0.0, 3.0, 6.0])
    curvatures = overrides.get("curvatures", [1.0] * len(targets))
    if len(curvatures) != len(targets):
        raise ValueError(f"targets has {len(targets)} entries but curvatures has "
                         f"{len(curvatures)}; need one curvature per target")
    edges = overrides.get("edges")
    n = len(targets)
    topo = Topology(n, edges) if edges is not None else Topology.path(n)
    values = np.array([targets, curvatures], dtype=float).reshape(2, n)  # a number each
    bad = np.flatnonzero(~np.isfinite(values.T))  # by agent, then targets before curvatures
    if bad.size:
        raise ValueError(f"{('targets', 'curvatures')[bad[0] % 2]}.{bad[0] // 2} is not finite")
    with np.errstate(over="ignore"):  # refused when the instance is compiled
        locals_f = [quadratic_local([t], c) for t, c in values.T.tolist()]
    return build_consensus(topo, locals_f)
