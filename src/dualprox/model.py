"""Problem data model: agents, asymmetric constraint blocks, topology.

Each agent ``i`` owns a private interpretation ``A^(i) x = b^(i)`` of the
global affine coupling constraint, stored sparsely as per-neighbour column
blocks.  The row map ``C_i`` acts on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]``.  An instance is compiled once
(``ProblemInstance.compiled``) into flat entry arrays of ``C`` and ``A``
and into groups of agents of one catalog kind, so a dual operator costs a
few numpy calls over the nonzeros instead of a loop over agents.
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

    @functools.cached_property
    def adjacency(self) -> tuple:
        """Each agent's neighbours, ascending."""
        adj = [[] for _ in range(self.n_agents)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, i: int) -> list:
        return list(self.adjacency[i])

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

    @functools.cached_property
    def compiled(self) -> "CompiledInstance":
        """The instance's operators and catalog groups, built on first use."""
        return CompiledInstance(self)


# ---------------------------------------------------------------------------
# the compiled instance and the structured dual operators
# ---------------------------------------------------------------------------


def sum_in_order(values) -> float:
    """``0.0 + v_0 + v_1 + ...``, added left to right.

    ``np.sum`` adds pairwise and rounds differently; this total equals the
    one a plain loop over the values gives.  Only values that are all
    ``-0.0`` add up to ``-0.0``, where the loop's ``0.0 + ...`` gives
    ``0.0``; adding ``0.0`` last does the same.
    """
    values = np.ravel(values)
    return float(np.cumsum(values)[-1]) + 0.0 if values.size else 0.0


def _csr(groups, others, mats):
    """CSR entries ``(rows, cols, vals)`` of blocks sorted by ``(groups, others)``.

    The ``R x K`` block ``mats[j]`` sits at rows ``groups[j]*R + r`` and
    columns ``others[j]*K + c``, so each row holds its blocks in ascending
    ``others``.
    """
    _, R, K = mats.shape
    r, c = np.arange(R)[:, None], np.arange(K)
    rows = np.broadcast_to(groups[:, None, None] * R + r, mats.shape).ravel()
    cols = np.broadcast_to(others[:, None, None] * K + c, mats.shape).ravel()
    if R == 1:  # one row per group: the blocks are in CSR order already
        return rows, cols, mats.ravel()
    # entry (r, c) of a group's rank-th block follows the group's earlier
    # rows and the row's earlier blocks
    counts = np.bincount(groups)
    n = counts[groups][:, None, None]
    start = (np.cumsum(counts) - counts)[groups][:, None, None]
    rank = np.arange(groups.size)[:, None, None] - start
    order = np.empty(mats.size, dtype=np.intp)
    order[((start * R + r * n + rank) * K + c).ravel()] = np.arange(mats.size)
    return rows[order], cols[order], mats.ravel()[order]


def _groups(members, key, stack) -> tuple:
    """``(agent indices, stacked group)`` for each key, in order of first member."""
    by_key = {}
    for i, member in enumerate(members):
        by_key.setdefault(key(member), []).append(i)
    return tuple((np.array(idx), stack([members[i] for i in idx])) for idx in by_key.values())


class CompiledInstance:
    """The operators of a :class:`ProblemInstance` as flat arrays, built once.

    ``C`` and ``A`` hold CSR entry arrays ``(rows, cols, vals)``, each row's
    entries in ascending column, so a row accumulates its agents in
    ascending id.  ``f_groups`` and ``g_groups`` stack the agents of one
    catalog kind (see :mod:`dualprox.convex`); ``lipschitz`` is the
    smoothness constant.  Each part is built on first use.
    """

    def __init__(self, instance: "ProblemInstance"):
        N, M, B = instance.n_agents, instance.M, instance.B
        self.n_agents, self.M, self.B = N, M, B
        self.n_theta = N * B
        self._agents = instance.agents
        # the blocks A_l^(i) with l in agent i's closed neighbourhood, by (i, l)
        owner, key, blocks = [], [], []
        for i, (agent, nbrs) in enumerate(zip(instance.agents, instance.topology.adjacency)):
            agent_blocks = agent.constraint.blocks
            for l in sorted(nbrs + (i,)):
                block = agent_blocks.get(l)
                if block is None:
                    continue
                if block.shape != (B, M):
                    raise ValueError(f"agent {i}: block for {l} has shape {block.shape}, "
                                     f"expected {(B, M)}")
                owner.append(i)
                key.append(l)
                blocks.append(block)
        self._owner, self._key = owner, key
        self._blocks = np.array(blocks, dtype=float).reshape(-1, B, M)
        self.b = np.concatenate([agent.constraint.rhs for agent in instance.agents])
        self.sigma = np.array([agent.f.strong_convexity for agent in instance.agents])

    def split(self, lam: np.ndarray):
        """Views ``(theta, mu)`` of a dual vector, shaped ``(N, B)`` and ``(N, M)``."""
        return (lam[:self.n_theta].reshape(self.n_agents, self.B),
                lam[self.n_theta:].reshape(self.n_agents, self.M))

    @functools.cached_property
    def C(self) -> tuple:
        """The coupling part ``-A'`` of ``C = [-A', -I]``: row ``i*M + m``
        holds ``-A_i^(l)`` of every block present, at column ``l*B + b`` of
        ``theta``."""
        by_key = sorted(range(len(self._key)), key=self._key.__getitem__)
        rows, cols, vals = _csr(np.array(self._key, dtype=np.intp)[by_key],
                                np.array(self._owner, dtype=np.intp)[by_key],
                                self._blocks[by_key].transpose(0, 2, 1))
        return rows, cols, -vals

    @functools.cached_property
    def _nonzero(self) -> np.ndarray:
        return self._blocks.any(axis=(1, 2))

    @functools.cached_property
    def A(self) -> tuple:
        """The nonzero blocks: row ``i*B + b`` holds ``A_l^(i)`` at column
        ``l*M + m`` of the stacked ``x``."""
        owner = np.array(self._owner, dtype=np.intp)[self._nonzero]
        key = np.array(self._key, dtype=np.intp)[self._nonzero]
        return _csr(owner, key, self._blocks[self._nonzero])

    @functools.cached_property
    def n_messages(self) -> int:
        """Neighbour maximizers a round reads, over all agents."""
        off_diagonal = np.array(self._owner) != np.array(self._key)
        return int(np.count_nonzero(self._nonzero & off_diagonal))

    @functools.cached_property
    def f_groups(self) -> tuple:
        return _groups([agent.f for agent in self._agents],
                       lambda f: (type(f.base), f.effective_domain is None),
                       SmoothConjugable.stack)

    @functools.cached_property
    def g_groups(self) -> tuple:
        return _groups([agent.effective_g for agent in self._agents],
                       lambda g: (g.kind, g.box is None), ProxFriendlyFunction.stack)

    def _compact_row_maps(self):
        """``(agents, S)`` with ``S[k]`` the row map ``C_i`` of ``agents[k]``
        restricted to its nonzero columns, one stack per shape.

        Column 0 of the full map is kept in front, zero or not: LAPACK's
        first Householder step treats the leading entry apart, and with it
        in place the singular values of ``M = 1`` maps equal the full maps'
        bit for bit.
        """
        N, M = self.n_agents, self.M
        rows, cols, vals = self.C
        # an agent's M rows share its n columns (its blocks are dense), so its
        # entries are one (M, n) run of the CSR arrays
        row_len = np.bincount(rows, minlength=N * M)
        start = (np.cumsum(row_len) - row_len)[::M]
        n_cols = row_len[::M]
        lead = np.ones(N, dtype=np.intp)  # 1 where column 0 is not among them
        lead[rows[cols == 0] // M] = 0
        diag = np.arange(M)
        for ld, n in sorted(set(zip(lead.tolist(), n_cols.tolist()))):
            agents = np.flatnonzero((lead == ld) & (n_cols == n))
            S = np.zeros((agents.size, M, ld + n + M))
            entries = vals[start[agents, None] + np.arange(M * n)]
            S[:, :, ld:ld + n] = entries.reshape(agents.size, M, n)
            S[:, diag, ld + n + diag] = -1.0  # -I on mu_i, the last columns
            yield agents, S

    @functools.cached_property
    def lipschitz(self):
        """``(h, per_agent)`` with ``per_agent[i] = ||C_i||^2 / sigma_i`` and
        ``h`` their sum in agent order."""
        bad = np.flatnonzero(self.sigma <= 0)
        if bad.size:
            i = int(bad[0])
            raise SingularScaleError(f"agent {i} has nonpositive curvature {self.sigma[i]}")
        norms = np.empty(self.n_agents)
        for idx, S in self._compact_row_maps():
            norms[idx] = np.linalg.svd(S, compute_uv=False)[:, 0]
        # float_power is C pow, as ``norm**2`` on a scalar; x*x differs in
        # the last bit now and then
        per_agent = np.float_power(norms, 2) / self.sigma
        return sum_in_order(per_agent), per_agent


def apply_C(instance: ProblemInstance, lam: np.ndarray) -> np.ndarray:
    """Every agent's ``C_i lam = -mu_i - sum_l (A_i^(l))' theta_l``, stacked ``(N, M)``.

    Each row starts at ``-mu_i`` and adds its terms in ascending ``l``.
    """
    comp = instance.compiled
    rows, cols, vals = comp.C
    u = -lam[comp.n_theta:]
    np.add.at(u, rows, vals * lam[cols])
    return u.reshape(comp.n_agents, comp.M)


def lipschitz_constant(instance: ProblemInstance):
    """Smoothness constant of the dual smooth part: ``h = sum_i ||C_i||^2 / sigma_i``.

    Returns ``(h, per_agent)`` where ``per_agent[i] = ||C_i||^2 / sigma_i``
    with the spectral norm of the row map.  It is computed once per
    instance, with one batched SVD per shape of the compact row maps.
    """
    h, per_agent = instance.compiled.lipschitz
    return h, per_agent.copy()


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
