"""Problem data model: agents, asymmetric constraint blocks, topology.

Each agent ``i`` owns a private interpretation ``A^(i) x = b^(i)`` of the
global affine coupling constraint as per-neighbour column blocks; an
instance keeps all agents' blocks in one table sorted by ``(owner, l)``.
The row map ``C_i`` acts on the stacked dual vector
``lam = [theta_1..theta_N, mu_1..mu_N]``.  An instance groups its agents
by catalog kind when it is built, and compiles its operators into its own
members once, on first use: flat entry arrays of ``C`` and ``A``, the
checked groups and the Lipschitz constant (one SVD call per stack of row
maps of one width; see ``ProblemInstance.lipschitz`` for why only one-row
maps are padded, column 0 leading), so a dual operator costs a few numpy
calls over the nonzeros and the groups instead of a loop over agents.
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
    _G_KINDS,
    cached_property,
    nonsmooth_group,
    smooth_group,
)
from .errors import MalformedInstanceError, SingularScaleError

_PADDED_WIDTH = np.array([0, 0, 2, 6, 6, 6, 6, 8, 8, 0])  # one-row map widths padded, see lipschitz


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
                i, j = e
                i, j = operator.index(i), operator.index(j)
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of integers") from None
            i, j = (i, j) if i < j else (j, i)
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
    def unreached(self):
        """The least agent with no path to agent 0; ``None`` if none (or no agent) is cut off."""
        seen, stack = {0}, [0] if self.n_agents else []
        while stack:
            for w in self.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return min(set(range(self.n_agents)) - seen, default=None)

    @property
    def is_connected(self) -> bool:
        """Whether every agent reaches agent 0 (no agents: ``False``)."""
        return self.n_agents > 0 and self.unreached is None


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
    ``(owner, l)``.  The agents are grouped by kind, and every part's
    dimension checked, when it is built (see :func:`_kind_groups`).  The
    constructor also refuses what the method assumes: a nonzero block whose
    ``l`` is neither its owner nor a neighbour (a zero one is kept, and skipped),
    a disconnected topology, and a smooth part whose ``sigma_i`` is not positive or not
    finite (an infinite one would drop its agent from the Lipschitz constant).

    The operators a round reads are members built on first use: ``C`` and ``A`` as CSR
    entry arrays ``(rows, cols, vals)``, each row's entries in ascending column, so a row
    adds its agents in ascending id; ``f_groups`` and ``g_groups``, the kind groups as
    ``(agents, function)``, each g stacked, their constants checked; ``lipschitz``.  The
    only mutable state is ``last_x_hat``, the last run's final ``x_hat`` keyed by the bytes
    of its ``lam`` for primal recovery.
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
        # whether each block's l is its owner or a neighbour, and whether it is nonzero: the
        # nonzero ones are A's and a round's messages, those in the neighbourhood C's
        in_nbhd, nonzero = self.topology.in_closed_neighbourhood(owner, l), blocks.any(axis=(1, 2))
        for bad, why in (((owner < 0) | (owner >= N) | (l < 0) | (l >= N),
                          f"is out of range for {N} agents"),
                         ((owner[1:] == owner[:-1]) & (l[1:] == l[:-1]), "appears twice"),
                         (~np.isfinite(blocks).all(axis=(1, 2)), "is not finite"),
                         (nonzero & ~in_nbhd, "is nonzero, but l is not a neighbour")):
            if bad.any():
                k = bad.argmax()
                raise ValueError(f"agent {owner[k]}: block for l={l[k]} {why}")
        bad = ~np.isfinite(rhs).all(axis=1)
        if bad.any():
            raise ValueError(f"agent {bad.argmax()}: rhs is not finite")
        if not self.topology.is_connected:
            raise ValueError(f"agent {self.topology.unreached}: no path to agent 0, the topology "
                             "is disconnected" if N else "an instance needs at least one agent")
        agents = tuple(self.agents)
        f_groups, g_members, sigma, codes = _kind_groups(agents, M)
        # else the dual gradient has no Lipschitz constant, or one that drops the agent
        for bad, why in ((sigma <= 0, "not positive"), (~np.isfinite(sigma), "not finite")):
            if bad.any():
                raise ValueError(f"agent {bad.argmax()}: smooth part has strong convexity "
                                 f"{sigma[bad.argmax()]}, {why}")
        for value in (owner, l, blocks, rhs, sigma, in_nbhd, nonzero):
            value.flags.writeable = False
        self.__dict__.update(agents=agents, owner=owner, l=l, blocks=blocks, rhs=rhs, sigma=sigma,
                             _f_groups=f_groups, _g_members=g_members, _codes=codes,
                             _in_neighbourhood=in_nbhd, _nonzero=nonzero,
                             last_x_hat=(None, None))

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def dual_dim(self) -> int:
        return self.n_agents * (self.B + self.M)

    def split(self, lam: np.ndarray):
        """Views ``(theta, mu)`` of a dual vector, shaped ``(N, B)`` and ``(N, M)``;
        a stack of ``K`` gives ``(K, N, B)`` and ``(K, N, M)``."""
        N, n, lead = self.n_agents, self.n_agents * self.B, lam.shape[:-1]
        return lam[..., :n].reshape(lead + (N, self.B)), lam[..., n:].reshape(lead + (N, self.M))

    @cached_property
    def C(self) -> tuple:
        """The coupling part ``-A'`` of ``C = [-A', -I]``: row ``i*M + m``
        holds ``-A_i^(l)`` of every block present, at column ``l*B + b`` of
        ``theta``."""
        keep = self._in_neighbourhood  # leaves out the zero blocks off their owner's neighbourhood
        owner, l, blocks = self.owner[keep], self.l[keep], self.blocks[keep]
        by_key = np.argsort(l, kind="stable")
        rows, cols, vals = _csr(l[by_key], owner[by_key], blocks[by_key].transpose(0, 2, 1))
        return rows, cols, -vals

    @cached_property
    def A(self) -> tuple:
        """The nonzero blocks: row ``i*B + b`` holds ``A_l^(i)`` at column
        ``l*M + m`` of the stacked ``x``."""
        return _csr(self.owner[self._nonzero], self.l[self._nonzero], self.blocks[self._nonzero])

    @cached_property
    def n_messages(self) -> int:
        """Neighbour maximizers a round reads, over all agents."""
        return int(np.count_nonzero(self._nonzero & (self.owner != self.l)))

    @cached_property
    def f_groups(self) -> tuple:
        """The smooth groups of :func:`_kind_groups`, once their constants are checked."""
        return _checked_groups("f", self._f_groups, self.n_agents)

    @cached_property
    def g_groups(self) -> tuple:
        """One group of every g but the dense quadratics, which need a solve and have a
        group of their own (see :func:`convex.nonsmooth_group`)."""
        return _checked_groups("g", [(idx, nonsmooth_group(*members, self.M))
                                     for idx, members in self._g_members], self.n_agents)

    @cached_property
    def lipschitz(self):
        """``(h, per_agent)``: ``per_agent[i] = ||C_i||^2 / sigma_i``, ``h`` their sum in agent
        order, ``||C_i||`` taken of ``C_i`` on its nonzero columns, ``[column-0 entry or 0,
        other entries, 0..., -I]``.  Column 0 leads, zero or not: LAPACK's first Householder
        step treats it apart, and of one row (``M = 1``) takes the 2-norm of the rest, which
        OpenBLAS's x86-64 ``dnrm2`` sums in order up to 7 entries.  So zeros change no bit of
        it: maps of 3 to 6 columns take 6 and of 7 or 8 take 8 (at most twice their width) and
        share a stack.  Past 8, and for ``M > 1``, zeros can move the last bit, so a stack
        holds one width.  The stacks fill one buffer in one scatter, one SVD call each."""
        N, M = self.n_agents, self.M
        rows, cols, vals = self.C
        row_len = np.bincount(rows, minlength=N * M)  # an agent's M rows share its columns
        lead = np.bincount(rows[cols == 0] // M, minlength=N) == 0  # column 0 is not theirs
        width = lead + row_len[::M] + M
        if M == 1:
            width = np.maximum(width, _PADDED_WIDTH.take(width, mode="clip"))
        order = np.argsort(width, kind="stable")  # the stacks, narrowest first
        size = M * width[order]
        base = np.empty(N, dtype=np.intp)
        base[order] = at = size.cumsum() - size
        row_at = base[:, None] + width[:, None] * np.arange(M)  # where row m of a map starts
        flat = np.zeros(size.sum())
        first = row_len.cumsum() - row_len  # each row's first entry in the CSR arrays
        flat[((row_at + lead[:, None]).ravel() - first)[rows] + np.arange(rows.size)] = vals
        flat[(row_at + (width - M)[:, None] + np.arange(M)).ravel()] = -1.0  # -I on mu_i
        norms = np.empty(N)
        ends = width[order].searchsorted(sorted(set(width.tolist())), side="right").tolist()
        for lo, hi in zip([0] + ends, ends):
            S = flat[at[lo]:at[lo] + (hi - lo) * size[lo]].reshape(hi - lo, M, -1)
            norms[order[lo:hi]] = np.linalg.svd(S, compute_uv=False)[:, 0]
        # float_power is C pow, as ``norm**2`` on a scalar; x*x differs in the last bit now and then
        with np.errstate(all="ignore"):  # sigma_i so small the ratio overflows
            per_agent = np.float_power(norms, 2) / self.sigma
        bad = np.flatnonzero(~np.isfinite(per_agent))
        if bad.size:
            i = int(bad[0])
            raise SingularScaleError(f"agent {i}: curvature {self.sigma[i]} gives "
                                     f"||C_i||^2 / sigma_i = {per_agent[i]}")
        return sum_in_order(per_agent), per_agent

    @cached_property
    def _digest(self) -> str:
        """What :func:`instance_hash` returns, computed on first use."""
        table, agents = self._codes, self.agents
        kinds = {}  # (utility, dim) -> its groups; dense and diagonal quadratics are two
        for _, f in self._f_groups:
            kinds.setdefault((isinstance(f.base, PiecewiseQuadraticUtility), f.dim), []).append(f)
        fields = [_field("v2", (self.n_agents, self.M, self.B), "<i8"),
                  _field("edges", self.topology.edges.ravel(), "<i8"),
                  _field("agents", table, "<i8")]
        for (utility, dim), (f, *more) in sorted(kinds.items()):
            if more:  # one stack of the kind's members, in agent order
                rows = np.flatnonzero((table[:, 0] == utility) & (table[:, 1] == dim))
                f = smooth_group([agents[i].f for i in rows.tolist()], table[rows, 2].tolist())
            base, dom, tag = f.base, f.effective_domain, "f:utility" if utility else "f:quadratic"
            fields += [_field(tag, p) for p in ((base.price, base.curvature) if utility else
                                                (base.curvature, base.linear, base.offset))]
            if dom is not None:
                fields += [_field(tag, dom.lower), _field(tag, dom.upper)]
        l1, quadratic = (np.flatnonzero(table[:, 3] == _G_KINDS.index(kind)).tolist()
                         for kind in ("l1", "quadratic"))
        fields.append(_field("g:l1", [agents[i].g.weight for i in l1]))
        fields += [_field("g:quadratic", [getattr(agents[i].g.quad, name) for i in quadratic])
                   for name in ("curvature", "linear", "offset")]
        fields += [_field("boxes", [(b.lower, b.upper) for a in agents
                                    for b in (a.g.box, a.omega) if b is not None]),
                   _field("blocks", self.owner, "<i8"),
                   _field("blocks", self.l, "<i8"),
                   _field("blocks", self.blocks),
                   _field("rhs", self.rhs.ravel())]
        return hashlib.sha256(b"".join(fields)).hexdigest()


# ---------------------------------------------------------------------------
# the structured dual operators
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
    columns ``others[j]*K + c``; the entries are sorted by row, then
    column, so each row holds its blocks in ascending ``others``.
    """
    _, R, K = mats.shape
    if R == K == 1:  # scalar blocks are their own entries, in CSR order already
        return groups, others, mats.ravel()
    r, c = np.arange(R)[:, None], np.arange(K)
    rows = (groups[:, None, None] * R + r + 0 * c).ravel()  # each the full (n, R, K)
    cols = (others[:, None, None] * K + c + 0 * r).ravel()
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], mats.ravel()[order]


def _kind_groups(agents: tuple, M: int) -> tuple:
    """``(f_groups, g_members, sigma, codes)`` of ``agents``, from one pass over them.

    Every part must have dim ``M``: else a ``ValueError`` lists each ``agent i: <part> has dim
    d, expected M=M``, by agent and then part, joined by ``; ``, read off the groups' keys.
    An f group is ``(agents, f)``: the agents of one kind (dense quadratics apart), their f's
    stacked by :func:`convex.smooth_group`, which sigma reads.  A g group is ``(agents, (gs,
    boxes, omegas, codes))``: dense quadratics apart, a box and omega standing in for each
    other where absent, and each g's code (see :class:`convex.ProxFriendlyFunction`); it is
    stacked when the instance is compiled.  Groups are in order of first member; their
    agents are a ``slice`` where consecutive (a view, where an index array gathers a copy).
    A dense nonsmooth quadratic with an omega is refused, naming the agent.  ``codes``, which
    :func:`instance_hash` hashes, is the ``(N, 6)`` table of each agent's smooth codes
    ``(utility, dim, domain)`` and nonsmooth codes ``(kind, box, omega)``."""
    f_keys, g_keys, table = {}, {}, []
    for i, a in enumerate(agents):
        f, g, omega = a.f, a.g, a.omega
        base, kind, quad, box = f.base, g.kind, g.quad, g.box
        # ints, not bools: a list of bools converts to int64 several times slower
        utility, dim = 0 if type(base) is QuadraticFunction else 1, base.dim  # a utility's is 1
        domain = 0 if f.effective_domain is None else 1
        f_keys.setdefault((utility, dim, dim > 1 and not base.is_diagonal),  # dense ones apart
                          []).append((i, f, domain))
        code, diagonal = _G_KINDS.index(kind), quad is None or quad.is_diagonal
        if omega is not None and not diagonal:
            raise ValueError(f"agent {i}: nonsmooth quadratic in omega needs diagonal curvature")
        g_keys.setdefault((M if quad is None else quad.dim, M if box is None else box.dim,
                           M if omega is None else omega.dim, diagonal),
                          []).append((i, g, box or omega, omega or box,
                                      code if box is None and omega is None else code + 3))
        table += (utility, dim, domain, code, 0 if box is None else 1, 0 if omega is None else 1)

    # (part, dim, members) of each group: part 0 the smooth part, 1-3 g's quadratic, box, omega
    dims = [(0, key[1], m) for key, m in f_keys.items()] + [
        (k, d, m) for key, m in g_keys.items() for k, d in enumerate(key[:3], start=1)]
    wrong = sorted((i, k, d) for k, d, members in dims if d != M for i, *_ in members)
    if wrong:
        parts = ("smooth part", "nonsmooth part", "nonsmooth part", "omega")
        raise ValueError("; ".join(dict.fromkeys(  # an ordered set: a g's quadratic and box
            f"agent {i}: {parts[k]} has dim {d}, expected M={M}" for i, k, d in wrong)))

    def index(idx):
        return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else np.array(idx)
    f_groups = tuple((index(idx), smooth_group(fs, has_domain))
                     for idx, fs, has_domain in (zip(*m) for m in f_keys.values()))
    sigma = np.empty(len(agents))
    with np.errstate(over="ignore"):  # 2 varsigma; refused by the constructor
        for idx, f in f_groups:
            sigma[idx] = f.strong_convexity
    g_members = tuple((index(idx), columns)
                      for members in g_keys.values() for idx, *columns in [zip(*members)])
    return f_groups, g_members, sigma, np.array(table, dtype="<i8").reshape(-1, 6)


def _checked_groups(part: str, groups, n_agents: int) -> tuple:
    """``groups`` (``(agents, function)`` of ``part``, "f" or "g") once each constant a round or
    Psi reads is finite (an f quadratic's value at its argmax for ``u = 0`` too) and a g
    quadratic's diagonal positive; else :class:`SingularScaleError` names the first agent and
    constant.  Overflow is silenced while they are computed."""
    with np.errstate(all="ignore"):
        for idx, fn in groups:
            base = fn.base if part == "f" else fn.quad
            named = {}
            if isinstance(base, PiecewiseQuadraticUtility):
                named.update({"threshold price / (2 curvature)": base.threshold,
                              "flat value -price^2 / (4 curvature)": base._flat_value})
            elif base is not None:  # f's or g's quadratic; its diagonal argmax divides
                ratio = base.linear / base._diagonal
                named.update({"linear": base.linear, "offset": base.offset,
                              "linear / diagonal curvature": ratio})
                if part == "f":  # the argmax divides (0 - linear), then clips into any domain
                    dom = fn.effective_domain
                    x0 = -ratio if dom is None else dom.project(-ratio)
                    named["value at its argmax for u = 0"] = base.value(x0)
            checks = {f"{name} is not finite": value for name, value in named.items()}
            if part == "g" and base is not None:  # nan where the diagonal is not positive
                checks["diagonal curvature is not positive"] = np.where(base._diagonal > 0, 0, np.nan)
            if checks and not np.isfinite(np.concatenate(list(checks.values()), axis=None)).all():
                for k, i in enumerate(np.arange(n_agents)[idx].tolist()):
                    for what, value in checks.items():
                        if not np.isfinite(value[k]).all():
                            raise SingularScaleError(f"agent {i}: {part} {what}")
    return tuple(groups)


def apply_C(instance: ProblemInstance, lam: np.ndarray) -> np.ndarray:
    """Every agent's ``C_i lam = -mu_i - sum_l (A_i^(l))' theta_l``, stacked ``(N, M)``,
    or ``(K, N, M)`` for a stack of ``K`` dual vectors; a point and a stack take one path.

    Each row starts at ``-mu_i`` and adds its terms in ascending ``l``.
    """
    rows, cols, vals = instance.C
    u = np.negative(lam[..., instance.n_agents * instance.B:], order="C")
    np.add.at(u, (..., rows), vals * lam.take(cols, axis=-1))
    return u.reshape(lam.shape[:-1] + (instance.n_agents, instance.M))


def lipschitz_constant(instance: ProblemInstance):
    """Smoothness constant of the dual smooth part: ``h = sum_i ||C_i||^2 / sigma_i``.

    Returns ``(h, per_agent)`` where ``per_agent[i] = ||C_i||^2 / sigma_i``
    with the spectral norm of the row map.  It is computed once per
    instance, with one batched SVD per stack of the compact row maps.
    """
    h, per_agent = instance.lipschitz
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
    """What is left to check once an instance is built; returns a report instead of raising.

    The constructor already refuses wrong shapes and dimensions, a nonzero
    block off its owner's closed neighbourhood, a disconnected topology and
    a ``sigma_i`` not positive or not finite.  Existence of a strictly
    feasible point is reported as not checked (general feasibility detection
    is itself an optimization problem).
    """
    return ValidationReport([CheckResult(
        "strict_feasibility", "not_checked",
        "existence of a strictly feasible point is not verified")])


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
    an agent's id is not its position, a value has the wrong type, shape or
    is not finite (box and domain bounds may be infinite, never NaN), or
    :class:`ProblemInstance` refuses what it holds; the message names the
    agent and the field.
    """
    try:
        M, B = int(obj["M"]), int(obj["B"])
        agents, owner, l, blocks, rhs = [], [], [], [], []
        for i, a in enumerate(obj["agents"]):
            if a["id"] != i:
                raise ValueError(f"agent at position {i} has id {a['id']!r}")
            try:  # a part's refusal, prefixed with its agent
                agents.append(AgentSpec(_f_from_json(a["f"], "f"), _g_from_json(a["g"], "g"),
                                        _box_from_json(a.get("omega"), "omega")))
            except KeyError as exc:
                raise ValueError(f"agent {i}: lacks key {exc}") from None
            except (TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"agent {i}: {exc}") from None
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
    with open(path, "w") as fh:  # indented, for hand edits; one write, not json.dump's per token
        fh.write(json.dumps(instance_to_json(instance), indent=2))


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def _field(tag: str, values, dtype: str = "<f8") -> bytes:
    """One field of a digest: its tag and shape, then its little-endian bytes.

    The shape fixes the byte count, so a sequence of fields reads back one
    way only.
    """
    if type(values) is list and not values:  # the shape of an empty list, with no bytes
        return f"{tag}(0,)".encode()
    a = np.ascontiguousarray(values, dtype=dtype)
    return f"{tag}{a.shape}".encode() + a.tobytes()


def instance_hash(instance: ProblemInstance) -> str:
    """SHA-256 of a canonical binary encoding of what :func:`instance_to_json` writes (v2).

    Each field is one stacked array behind a tag: ``v2`` and ``(N, M, B)``; the sorted
    edges; a table of per-agent codes (smooth kind, its dim and domain presence, nonsmooth
    kind, nonsmooth-box and ``omega`` presence); for each smooth kind and dim its members'
    parameters in agent order, then their domain bounds (``-inf, inf`` for a member without
    one) if a member has a domain; the l1 weights, the nonsmooth quadratics' parameters and
    the boxes (per agent the nonsmooth box, then ``omega``); the block table's owners, ``l``
    and values, and the rhs.  Strong convexity, derived from the parameters, is not hashed.
    The digest is computed once per instance, on first use, and survives a JSON round trip.
    Digests recorded before v2 differ; nothing reads one back.
    """
    return instance._digest
