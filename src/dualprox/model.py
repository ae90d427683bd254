"""Problem data model: agents, asymmetric constraint blocks, topology.

Each agent ``i`` owns a private interpretation ``A^(i) x = b^(i)`` of the
global affine coupling constraint as per-neighbour column blocks; an
instance keeps all agents' blocks in one table sorted by ``(owner, l)``.
The row map ``C_i`` acts on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]``.  An instance is compiled once
(``ProblemInstance.compiled``) into flat entry arrays of ``C`` and ``A``
and into groups of agents of one catalog kind, so a dual operator costs a
few numpy calls over the nonzeros instead of a loop over agents.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .convex import (
    BoxSet,
    PiecewiseQuadraticUtility,
    ProxFriendlyFunction,
    QuadraticFunction,
    SmoothConjugable,
    cached_property,
    group,
)
from .errors import MalformedInstanceError, SingularScaleError


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected graph over agents ``0..n_agents-1`` with no self-loops.

    ``edges``, any collection of integer pairs, is kept as one sorted
    read-only ``(E, 2)`` array of the distinct pairs ``(i, j)``, ``i < j``.
    """

    n_agents: int
    edges: np.ndarray = ()

    def __post_init__(self):
        pairs = set()
        for e in self.edges:
            try:
                i, j = sorted(map(operator.index, e))
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of integers") from None
            if i == j:
                raise ValueError(f"edge {(i, j)} is a self-loop")
            if i < 0 or j >= self.n_agents:
                raise ValueError(f"edge {(i, j)} has an endpoint outside 0..{self.n_agents - 1}")
            pairs.add((i, j))
        edges = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def fully_connected(n: int) -> "Topology":
        return Topology(n, itertools.combinations(range(n), 2))

    @staticmethod
    def path(n: int) -> "Topology":
        return Topology(n, zip(range(n - 1), range(1, n)))

    @staticmethod
    def star(n: int) -> "Topology":
        return Topology(n, ((0, i) for i in range(1, n)))

    @cached_property
    def _adjacency(self) -> tuple:
        """Each agent's neighbours, ascending, as the edges are sorted."""
        adj = [[] for _ in range(self.n_agents)]
        for i, j in self.edges.tolist():
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(tuple, adj))

    def neighbors(self, i: int) -> list:
        return list(self._adjacency[i])

    @cached_property
    def _edge_codes(self) -> np.ndarray:
        """``i*N + j`` of each sorted edge, so ascending, then a -1 that no
        code equals."""
        return np.append(self.edges @ (self.n_agents, 1), -1)

    def in_closed_neighbourhood(self, i, l) -> np.ndarray:
        """Elementwise: ``l == i`` or ``(i, l)`` is an edge."""
        codes = self._edge_codes
        query = np.minimum(i, l) * self.n_agents + np.maximum(i, l)
        return (i == l) | (codes[np.searchsorted(codes[:-1], query)] == query)

    @cached_property
    def is_connected(self) -> bool:
        """Whether every agent reaches agent 0 (no agents: ``False``)."""
        if self.n_agents == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            for w in self.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_agents


@dataclass(frozen=True)
class AgentSpec:
    """One agent: smooth part, nonsmooth part and local set."""

    f: SmoothConjugable
    g: ProxFriendlyFunction
    omega: BoxSet | None


@dataclass(frozen=True)
class ProblemInstance:
    """A multi-agent problem with coupling constraints.

    Agent ``i`` is ``agents[i]``.  The constraint is one block table:
    ``blocks[k]`` is the ``B x M`` block ``A_{l[k]}^(owner[k])`` multiplying
    ``x_l`` in agent ``owner[k]``'s rows, and ``rhs[i]`` is ``b^(i)``;
    absent pairs are zero blocks.  The table is kept sorted by
    ``(owner, l)``.
    """

    topology: Topology
    agents: tuple
    M: int
    B: int
    owner: np.ndarray
    l: np.ndarray
    blocks: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        N, M, B = self.topology.n_agents, self.M, self.B
        owner = np.asarray(self.owner, dtype=np.intp)
        l = np.asarray(self.l, dtype=np.intp)
        blocks = np.asarray(self.blocks, dtype=float)
        rhs = np.array(self.rhs, dtype=float)
        n = owner.size
        if (len(self.agents) != N or owner.shape != (n,) or l.shape != (n,)
                or blocks.shape != (n, B, M) or rhs.shape != (N, B)):
            raise ValueError(
                f"{len(self.agents)} agents and a block table with owner {owner.shape}, "
                f"l {l.shape}, blocks {blocks.shape} and rhs {rhs.shape}; expected "
                f"{N} agents, ({n},), ({n},), {(n, B, M)} and {(N, B)}")
        order = np.lexsort((l, owner))
        owner, l, blocks = owner[order], l[order], blocks[order]
        for bad, why in (((owner < 0) | (owner >= N) | (l < 0) | (l >= N),
                          f"is out of range for {N} agents"),
                         ((owner[1:] == owner[:-1]) & (l[1:] == l[:-1]), "appears twice"),
                         (~np.isfinite(blocks).all(axis=(1, 2)), "is not finite")):
            if bad.any():
                k = bad.argmax()
                raise ValueError(f"agent {owner[k]}: block for l={l[k]} {why}")
        bad = ~np.isfinite(rhs).all(axis=1)
        if bad.any():
            raise ValueError(f"agent {bad.argmax()}: rhs is not finite")
        object.__setattr__(self, "agents", tuple(self.agents))
        for name, value in (("owner", owner), ("l", l), ("blocks", blocks), ("rhs", rhs)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def dual_dim(self) -> int:
        return self.n_agents * (self.B + self.M)

    @cached_property
    def compiled(self) -> "CompiledInstance":
        """The instance's operators and catalog groups, built on first use."""
        return CompiledInstance(self)


# ---------------------------------------------------------------------------
# the compiled instance and the structured dual operators
# ---------------------------------------------------------------------------


def sum_in_order(values):
    """``0.0 + v_0 + v_1 + ...``, added left to right; for ``(K, n)``, per row.

    ``np.sum`` adds pairwise and rounds differently; this total equals the
    one a plain loop over the values gives.  Only values that are all
    ``-0.0`` add up to ``-0.0``, where the loop's ``0.0 + ...`` gives
    ``0.0``; adding ``0.0`` last does the same.
    """
    values = np.asarray(values)
    if values.ndim == 2:
        return values.cumsum(axis=-1)[:, -1] + 0.0
    values = values.ravel()
    return float(values.cumsum()[-1]) + 0.0 if values.size else 0.0


def _csr(groups, others, mats):
    """CSR entries ``(rows, cols, vals)`` of blocks sorted by ``(groups, others)``.

    The ``R x K`` block ``mats[j]`` sits at rows ``groups[j]*R + r`` and
    columns ``others[j]*K + c``, so each row holds its blocks in ascending
    ``others``.
    """
    _, R, K = mats.shape
    r, c = np.arange(R)[:, None], np.arange(K)
    rows = (groups[:, None, None] * R + r + 0 * c).ravel()  # each the full (n, R, K)
    cols = (others[:, None, None] * K + c + 0 * r).ravel()
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


def _groups(members, key) -> tuple:
    """``(agents, convex.group of them)`` for each key, in order of first member.

    ``agents`` indexes the group's rows of a per-agent array: a ``slice``
    when the group's agents are consecutive (a view, where an index array
    gathers a copy), else their ascending index array.
    """
    by_key = {}
    for i, member in enumerate(members):
        by_key.setdefault(key(member), []).append(i)
    return tuple((slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1
                  else np.array(idx), group([members[i] for i in idx]))
                 for idx in by_key.values())


def _checked_groups(part: str, members, key) -> tuple:
    """:func:`_groups`, each constant of ``part`` ("f" or "g") that a round or Psi reads computed
    with overflow silenced; :class:`SingularScaleError` names the first agent and one not finite."""
    groups = _groups(members, key)
    with np.errstate(all="ignore"):
        for idx, fn in groups:
            base = fn.base if part == "f" else fn.quad
            named = {"strong convexity": fn.strong_convexity} if part == "f" else {}
            if isinstance(base, PiecewiseQuadraticUtility):
                named.update({"threshold price / (2 curvature)": base.threshold,
                              "flat value -price^2 / (4 curvature)": base._flat_value})
            elif base is not None:  # f's or g's quadratic; its diagonal argmax divides
                named.update({"linear": base.linear, "offset": base.offset,
                              "linear / diagonal curvature": base.linear / base._diagonal})
            if named and not np.isfinite(np.concatenate(list(named.values()), axis=None)).all():
                for k, i in enumerate(np.arange(len(members))[idx].tolist()):
                    for name, value in named.items():
                        if not np.isfinite(value[k]).all():
                            raise SingularScaleError(f"agent {i}: {part} {name} is not finite")
    return groups


class CompiledInstance:
    """The operators of a :class:`ProblemInstance` as flat arrays, built once.

    ``C`` and ``A`` hold CSR entry arrays ``(rows, cols, vals)``, each row's
    entries in ascending column, so a row accumulates its agents in
    ascending id.  ``f_groups`` and ``g_groups`` (each g with its omega's box)
    stack the agents of one catalog kind (see :mod:`dualprox.convex`), checked
    finite; ``lipschitz`` is the smoothness constant; each part is built on first use.
    """

    def __init__(self, instance: "ProblemInstance"):
        N, M, B = instance.n_agents, instance.M, instance.B
        self.n_agents, self.M, self.B = N, M, B
        self.n_theta = N * B
        self._agents = instance.agents
        # the blocks A_l^(i) with l in agent i's closed neighbourhood, by (i, l)
        keep = instance.topology.in_closed_neighbourhood(instance.owner, instance.l)
        self._owner, self._l = instance.owner[keep], instance.l[keep]
        self._blocks = instance.blocks[keep]
        self.b = instance.rhs.ravel()
        self.sigma = np.array([agent.f.strong_convexity for agent in instance.agents])
        # (bytes of lam, x_hat) at the last iterate of the last run, which
        # primal recovery at the same lam reuses; x_hat is a private copy
        self.last_x_hat = (None, None)
        self.digest = None  # instance_hash, once computed
        self._stacked_C_rows = {}  # K -> the rows of C's entries in a flat stack of K

    def split(self, lam: np.ndarray):
        """Views ``(theta, mu)`` of a dual vector, shaped ``(N, B)`` and ``(N, M)``;
        a stack of ``K`` gives ``(K, N, B)`` and ``(K, N, M)``."""
        n, N = self.n_theta, self.n_agents
        if lam.ndim == 1:
            return lam[:n].reshape(N, self.B), lam[n:].reshape(N, self.M)
        return lam[:, :n].reshape(-1, N, self.B), lam[:, n:].reshape(-1, N, self.M)

    @cached_property
    def C(self) -> tuple:
        """The coupling part ``-A'`` of ``C = [-A', -I]``: row ``i*M + m``
        holds ``-A_i^(l)`` of every block present, at column ``l*B + b`` of
        ``theta``."""
        by_key = np.argsort(self._l, kind="stable")
        rows, cols, vals = _csr(self._l[by_key], self._owner[by_key],
                                self._blocks[by_key].transpose(0, 2, 1))
        return rows, cols, -vals

    @cached_property
    def _nonzero(self) -> np.ndarray:
        return self._blocks.any(axis=(1, 2))

    @cached_property
    def A(self) -> tuple:
        """The nonzero blocks: row ``i*B + b`` holds ``A_l^(i)`` at column
        ``l*M + m`` of the stacked ``x``."""
        return _csr(self._owner[self._nonzero], self._l[self._nonzero],
                    self._blocks[self._nonzero])

    @cached_property
    def n_messages(self) -> int:
        """Neighbour maximizers a round reads, over all agents."""
        return int(np.count_nonzero(self._nonzero & (self._owner != self._l)))

    @cached_property
    def f_groups(self) -> tuple:
        return _checked_groups("f", [agent.f for agent in self._agents],
                               lambda f: (type(f.base), f.effective_domain is None))

    @cached_property
    def g_groups(self) -> tuple:
        return _checked_groups("g", [agent.g.with_box(agent.omega) for agent in self._agents],
                               lambda g: (g.kind, g.box is None))

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

    @cached_property
    def lipschitz(self):
        """``(h, per_agent)`` with ``per_agent[i] = ||C_i||^2 / sigma_i`` and
        ``h`` their sum in agent order."""
        norms = np.empty(self.n_agents)
        for idx, S in self._compact_row_maps():
            norms[idx] = np.linalg.svd(S, compute_uv=False)[:, 0]
        # float_power is C pow, as ``norm**2`` on a scalar; x*x differs in
        # the last bit now and then
        with np.errstate(all="ignore"):  # sigma_i <= 0, or so small the ratio overflows
            per_agent = np.float_power(norms, 2) / self.sigma
        bad = np.flatnonzero((self.sigma <= 0) | ~np.isfinite(per_agent))
        if bad.size:
            i = int(bad[0])
            raise SingularScaleError(f"agent {i}: curvature {self.sigma[i]} gives "
                                     f"||C_i||^2 / sigma_i = {per_agent[i]}")
        return sum_in_order(per_agent), per_agent


def apply_C(instance: ProblemInstance, lam: np.ndarray) -> np.ndarray:
    """Every agent's ``C_i lam = -mu_i - sum_l (A_i^(l))' theta_l``, stacked ``(N, M)``,
    or ``(K, N, M)`` for a stack of ``K`` dual vectors.

    Each row starts at ``-mu_i`` and adds its terms in ascending ``l``; a
    stack's rows are added in one pass over the flattened stack.
    """
    comp = instance.compiled
    rows, cols, vals = comp.C
    if lam.ndim == 1:
        u = -lam[comp.n_theta:]
        np.add.at(u, rows, vals * lam[cols])
        return u.reshape(comp.n_agents, comp.M)
    u, K = np.negative(lam[:, comp.n_theta:], order="C"), len(lam)  # u.reshape(-1): a view
    if K not in comp._stacked_C_rows:
        comp._stacked_C_rows[K] = (rows + u.shape[1] * np.arange(K)[:, None]).ravel()
    np.add.at(u.reshape(-1), comp._stacked_C_rows[K], (vals * lam[:, cols]).ravel())
    return u.reshape(K, comp.n_agents, comp.M)


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


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Structural validation; returns a report instead of raising.

    Checks: connectivity, block sparsity w.r.t. the topology, positive
    curvature of every smooth part, and the dimensions of the smooth and
    nonsmooth parts and local sets (the block table's shapes are checked
    when it is built).  Existence of a strictly feasible point is reported
    as not checked (general feasibility detection is itself an optimization
    problem).
    """
    checks = []
    topo = instance.topology

    checks.append(CheckResult(
        "connectivity", "pass" if topo.is_connected else "fail",
        f"{topo.n_agents} agents, {len(topo.edges)} edges"))

    owner, l = instance.owner, instance.l
    outside = (instance.blocks.any(axis=(1, 2))
               & ~topo.in_closed_neighbourhood(owner, l))
    sparsity_violations = list(zip(owner[outside].tolist(), l[outside].tolist()))
    checks.append(CheckResult(
        "block_sparsity",
        "pass" if not sparsity_violations else "fail",
        "nonzero blocks only on neighbours" if not sparsity_violations
        else f"nonzero blocks outside neighbourhood: {sparsity_violations}"))

    bad_sigma = [i for i, a in enumerate(instance.agents) if a.f.strong_convexity <= 0]
    checks.append(CheckResult(
        "strong_convexity", "pass" if not bad_sigma else "fail",
        "all sigma_i > 0" if not bad_sigma else f"agents with sigma <= 0: {bad_sigma}"))

    dim_issues = {}  # as an ordered set: a nonsmooth quadratic and its box may both be off
    for i, a in enumerate(instance.agents):
        for what, part in (("smooth part", a.f), ("nonsmooth part", a.g.quad),
                           ("nonsmooth part", a.g.box), ("omega", a.omega)):
            if part is not None and part.dim != instance.M:
                dim_issues[f"agent {i}: {what} has dim {part.dim}, expected M={instance.M}"] = None
    checks.append(CheckResult(
        "dimensions", "pass" if not dim_issues else "fail",
        "every part has dim M" if not dim_issues else "; ".join(dim_issues)))

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


def _number(obj, key: str, where: str, default=None, bound: bool = False) -> np.ndarray:
    """``obj[key]``, or ``default`` when it is absent, as floats; refuses NaN,
    and an infinity unless the value is a bound, naming ``where`` and ``key``."""
    value = np.asarray(obj[key] if default is None else obj.get(key, default), dtype=float)
    if np.isnan(value).any() or not (bound or np.isfinite(value).all()):
        raise ValueError(f"{where}.{key} is {'NaN' if bound else 'not finite'}")
    return value


def _box_from_json(obj, where: str) -> BoxSet | None:
    if obj is None:
        return None
    return BoxSet(_number(obj, "lower", where, bound=True),
                  _number(obj, "upper", where, bound=True))


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


def _f_from_json(obj, where: str) -> SmoothConjugable:
    p, at = obj["params"], f"{where}.params"
    if obj["kind"] == "quadratic":
        base = QuadraticFunction(_number(p, "curvature", at), _number(p, "linear", at),
                                 _number(p, "offset", at, 0.0))
    elif obj["kind"] == "piecewise_quadratic_utility":
        base = PiecewiseQuadraticUtility(_number(p, "price", at), _number(p, "curvature", at))
    else:
        raise ValueError(f"unknown smooth kind {obj['kind']!r}")
    return SmoothConjugable(base, _box_from_json(obj.get("domain"), f"{where}.domain"))


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


def _g_from_json(obj, where: str) -> ProxFriendlyFunction:
    kind, p, at = obj["kind"], obj["params"], f"{where}.params"
    if kind == "zero":
        return ProxFriendlyFunction.zero()
    if kind == "l1_norm":
        return ProxFriendlyFunction.l1(_number(p, "weight", at))
    if kind == "indicator_box":
        return ProxFriendlyFunction.indicator_box(_box_from_json(p["box"], f"{at}.box"))
    if kind == "l1_plus_box":
        return ProxFriendlyFunction.l1_plus_box(_number(p, "weight", at),
                                                _box_from_json(p["box"], f"{at}.box"))
    if kind == "quadratic":
        quad = QuadraticFunction(_number(p, "curvature", at), _number(p, "linear", at),
                                 _number(p, "offset", at, 0.0))
        return ProxFriendlyFunction.quadratic(quad, _box_from_json(p.get("box"), f"{at}.box"))
    raise ValueError(f"unknown nonsmooth kind {kind!r}")


def instance_to_json(instance: ProblemInstance) -> dict:
    """Canonical on-disk problem format (matrices row-major).

    Each agent lists its own blocks, keyed by ``l``, and its rhs.
    """
    starts = np.searchsorted(instance.owner, np.arange(instance.n_agents + 1)).tolist()
    ls, blocks = instance.l.tolist(), instance.blocks.tolist()
    return {
        "M": instance.M,
        "B": instance.B,
        "edges": instance.topology.edges.tolist(),
        "agents": [
            {
                "id": i,
                "f": _f_to_json(a.f),
                "g": _g_to_json(a.g),
                "omega": _box_to_json(a.omega),
                "constraint": {
                    "blocks": {str(l): blk for l, blk in zip(ls[lo:hi], blocks[lo:hi])},
                    "rhs": rhs,
                },
            }
            for i, (a, lo, hi, rhs) in enumerate(zip(instance.agents, starts, starts[1:],
                                                     instance.rhs.tolist()))
        ],
    }


def instance_from_json(obj: dict) -> ProblemInstance:
    """Rebuild an instance from its canonical JSON form.

    Raises :class:`MalformedInstanceError` when a required key is missing,
    an agent's id is not its position, or a value has the wrong type,
    shape or is not finite (box and domain bounds may be infinite, never
    NaN); the message names the agent and the field.
    """
    try:
        M, B = int(obj["M"]), int(obj["B"])
        agents, owner, l, blocks, rhs = [], [], [], [], []
        for i, a in enumerate(obj["agents"]):
            if a["id"] != i:
                raise ValueError(f"agent at position {i} has id {a['id']!r}")
            agents.append(AgentSpec(_f_from_json(a["f"], f"agent {i}: f"),
                                    _g_from_json(a["g"], f"agent {i}: g"),
                                    _box_from_json(a.get("omega"), f"agent {i}: omega")))
            for key, blk in a["constraint"]["blocks"].items():
                blk = np.asarray(blk, dtype=float)
                if blk.shape != (B, M):
                    raise ValueError(f"agent {i}: block for l={key} has shape {blk.shape}, "
                                     f"expected {(B, M)}")
                owner.append(i)
                l.append(int(key))
                blocks.append(blk)
            rhs.append(a["constraint"]["rhs"])
        topo = Topology(len(agents), obj["edges"])
        return ProblemInstance(topo, agents, M, B, owner, l,
                               np.reshape(blocks, (-1, B, M)), rhs)
    except KeyError as exc:
        raise MalformedInstanceError(f"instance JSON lacks key {exc}") from exc
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:  # an int past 1e308
        raise MalformedInstanceError(f"malformed instance JSON: {exc}") from exc


def save_instance(instance: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))


_G_KINDS = ("zero", "l1", "quadratic")


def _field(tag: str, values, dtype: str = "<f8") -> bytes:
    """One field of a digest: its tag and shape, then its little-endian bytes.

    The shape fixes the byte count, so a sequence of fields reads back one
    way only.
    """
    a = np.ascontiguousarray(values, dtype=dtype)
    return f"{tag}{a.shape}".encode() + a.tobytes()


def instance_hash(instance: ProblemInstance) -> str:
    """SHA-256 of a canonical binary encoding of what :func:`instance_to_json` writes.

    Each field is one stacked array behind a kind or presence tag:
    ``(N, M, B)`` and the sorted edges; per agent its position, nonsmooth
    kind and whether it has a nonsmooth box and an ``omega``; each
    smooth-part group of :attr:`CompiledInstance.f_groups` (kind, domain
    presence, members, parameters, domain bounds and strong convexity);
    the l1 weights, the nonsmooth quadratics' parameters and the boxes
    present (per agent the nonsmooth box, then ``omega``); the block
    table's owners, ``l`` and values, and the rhs.  The fields are joined
    into one buffer and hashed once per instance, on first use.  The same
    instance gives the same digest after a JSON round trip.
    """
    comp = instance.compiled
    if comp.digest is not None:
        return comp.digest
    fields = [_field("NMB", (instance.n_agents, instance.M, instance.B), "<i8"),
              _field("edges", instance.topology.edges.ravel())]  # <f8, as recorded digests were
    table, weights, quads, boxes = [], [], [], []
    for i, a in enumerate(instance.agents):
        g = a.g
        table += (i, _G_KINDS.index(g.kind), g.box is not None, a.omega is not None)
        if g.kind == "l1":
            weights.append(g.weight)
        elif g.kind == "quadratic":
            quads.append(g.quad)
        if g.box is not None:
            boxes.append((g.box.lower, g.box.upper))
        if a.omega is not None:
            boxes.append((a.omega.lower, a.omega.upper))
    fields.append(_field("agents", table, "<i8"))
    members = np.arange(instance.n_agents)
    for idx, f in comp.f_groups:
        base, domain = f.base, f.effective_domain
        quadratic = isinstance(base, QuadraticFunction)
        tag = f"f:{'quadratic' if quadratic else 'utility'}:{domain is not None}"
        fields.append(_field(tag, members[idx], "<i8"))
        params = ((base.curvature, base.linear, base.offset) if quadratic
                  else (base.price, base.curvature))
        fields += [_field(tag, p) for p in params]
        if domain is not None:
            fields.append(_field(tag, (domain.lower, domain.upper)))
        fields.append(_field(tag, f.strong_convexity))
    fields.append(_field("g:l1", weights))
    fields += [_field("g:quadratic", [getattr(q, name) for q in quads])
               for name in ("curvature", "linear", "offset")]
    fields += [_field("boxes", boxes),
               _field("blocks", instance.owner, "<i8"),
               _field("blocks", instance.l, "<i8"),
               _field("blocks", instance.blocks),
               _field("rhs", instance.rhs.ravel())]
    comp.digest = hashlib.sha256(b"".join(fields)).hexdigest()
    return comp.digest
