"""Search driver: worklist management, refinement, and cross-node learning.

One branch-and-bound loop serves both strategies.  Before any store is
built, the box midpoint is evaluated exactly; if it is a counterexample the
run ends there with SAT and no LP.  Otherwise a node is closed by a
blocking conflict clause, by propagation, or by the exactness gate; the
incremental strategy (icl) starts the gate with no unit exact and refines,
the hybrid strategy (hsrv) starts it with every unstable unit exact.  Every
closed node becomes a leaf carrying Farkas certificates; the driver learns
merged lemmas at sibling joins and conflict clauses from guarded
infeasibility cores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .budget import Budget
from .certs import ConflictClause, DualBoundCertificate, GuardedCertificate
from .gate import BUDGET, PRUNE, SAT, exactness_gate
from .model import (
    ACTIVE,
    INACTIVE,
    Network,
    Region,
    SafetyProperty,
    Unit,
    build_layout,
    trace_vector,
    validate_witness,
)
from .propagate import propagate_node
from .store import NEGP, GuardLiteral, Store, build_initial_store

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class NothingToSplit(Exception):
    pass


class MissingChildCertificate(Exception):
    pass


class CapExceeded(Exception):
    pass


class OracleFault(Exception):
    """A feasible exact phase assignment gave a point that is no witness."""


# -- configuration ----------------------------------------------------------


@dataclass
class Config:
    strategy: str = "icl"  # "icl" | "hsrv"
    max_depth: int = 64
    lp_budget: int | None = None
    gate_budget: int | None = None  # LP theory calls per gate invocation
    templates: str = "default"  # "default" | "margin-only"
    first_split: str | None = None  # "domain" forces a root domain split


# -- proof tree -------------------------------------------------------------


def snapshot_store(store: Store):
    """All rows by value (retired included; they stay valid consequences),
    together with the region the store was built over."""
    out = []
    for cid, c in store.all_constraints():
        out.append((cid, tuple(sorted(c.row.items())), c.relation, c.rhs,
                    c.block, c.derivation))
    return (store.region, tuple(out))


@dataclass
class ProofLeaf:
    region: Region
    alpha: dict[Unit, str]
    # each cover certificate is checked against its own snapshot (reused
    # clause certificates keep pointing at the store they were derived in)
    cover: list[tuple[GuardedCertificate, int]]


@dataclass
class ProofSplit:
    kind: tuple  # ("phase", unit) | ("domain", dim, midpoint)
    region: Region
    alpha: dict[Unit, str]
    children: list = field(default_factory=lambda: [None, None])


@dataclass
class MergeJustification:
    template: tuple[tuple[int, Fraction], ...]
    children: list  # (region, alpha, beta, evidence, snapshot_id|None)
    beta: Fraction  # max of the children's bounds


@dataclass
class LemmaEntry:
    lemma_id: int
    row: tuple[tuple[int, Fraction], ...]
    bound: Fraction
    justification: MergeJustification
    region: Region
    alpha: dict[Unit, str]
    is_global: bool


class LemmaStore:
    """Append-only; every entry carries a checkable justification."""

    def __init__(self):
        self.entries: list[LemmaEntry] = []

    def append(self, entry: LemmaEntry):
        self.entries.append(entry)

    def global_entries(self):
        return [e for e in self.entries if e.is_global]


@dataclass
class ClauseEntry:
    clause: ConflictClause
    literals: frozenset[GuardLiteral]
    cert: GuardedCertificate
    snapshot_id: int


class ClauseDB:
    def __init__(self):
        self.entries: list[ClauseEntry] = []

    def append(self, entry: ClauseEntry):
        self.entries.append(entry)

    def blocking(self, alpha: dict[Unit, str]) -> ClauseEntry | None:
        lits = {GuardLiteral(u, p) for u, p in alpha.items()}
        for e in self.entries:
            if e.literals <= lits:
                return e
        return None


@dataclass
class RunProof:
    region: Region
    root: object = None  # ProofLeaf | ProofSplit
    snapshots: dict[int, tuple] = field(default_factory=dict)
    lemmas: list[LemmaEntry] = field(default_factory=list)

    def add_snapshot(self, snap) -> int:
        sid = len(self.snapshots)
        self.snapshots[sid] = snap
        return sid


@dataclass
class VerifyResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness: tuple[Fraction, ...] | None = None
    trace: dict[int, Fraction] | None = None
    proof: RunProof | None = None
    reason: str = ""
    budget: Budget | None = None


# -- refinement -------------------------------------------------------------


@dataclass
class _Node:
    region: Region
    alpha: dict[Unit, str]
    depth: int
    parent: "_Node | None" = None
    child_index: int = 0
    split: ProofSplit | None = None  # set when this node was split
    closed_children: int = 0
    child_evidence: list = field(default_factory=lambda: [None, None])


def pick_split(store: Store, node: _Node, config: Config) -> tuple:
    """Phase split on the widest-straddling unit; domain split otherwise."""
    if store.unstable:
        unit = min(store.unstable,
                   key=lambda u: (-min(-store.bounds.pre[u][0], store.bounds.pre[u][1]), u))
        return ("phase", unit)
    return _domain_split(node.region)


def _domain_split(region: Region) -> tuple:
    widths = [hi - lo for lo, hi in zip(region.lower, region.upper)]
    dim = max(range(len(widths)), key=lambda k: (widths[k], -k))
    if widths[dim] == 0:
        raise NothingToSplit()
    mid = (region.lower[dim] + region.upper[dim]) * _HALF
    return ("domain", dim, mid)


def refine(node: _Node, split: tuple) -> list[_Node]:
    if split[0] == "phase":
        unit = split[1]
        kids = []
        for idx, phase in enumerate((ACTIVE, INACTIVE)):
            alpha = dict(node.alpha)
            alpha[unit] = phase
            kids.append(_Node(node.region, alpha, node.depth + 1, node, idx))
        return kids
    _, dim, mid = split
    kids = []
    for idx, (lo, hi) in enumerate(((node.region.lower[dim], mid),
                                    (mid, node.region.upper[dim]))):
        lower = list(node.region.lower)
        upper = list(node.region.upper)
        lower[dim], upper[dim] = lo, hi
        kids.append(_Node(Region(tuple(lower), tuple(upper)), dict(node.alpha),
                          node.depth + 1, node, idx))
    return kids


# -- merge learning ---------------------------------------------------------


def merge_lemma(template: dict[int, Fraction], children, lemmas: LemmaStore,
                parent_region: Region, parent_alpha: dict[Unit, str],
                root_region: Region, budget: Budget) -> LemmaEntry:
    """Combine two sibling bound results into a parent lemma g^T v <= max(beta)."""
    g = tuple(sorted(template.items()))
    for _, _, beta, evidence, _ in children:
        if evidence is None or beta is None:
            raise MissingChildCertificate()
        if isinstance(evidence, DualBoundCertificate) and evidence.objective != g:
            raise MissingChildCertificate(f"template mismatch: {evidence.objective} != {g}")
    beta = max(c[2] for c in children)
    is_global = parent_region == root_region and not parent_alpha
    entry = LemmaEntry(len(lemmas.entries), g, beta,
                       MergeJustification(g, list(children), beta),
                       parent_region, dict(parent_alpha), is_global)
    lemmas.append(entry)
    budget.lemmas += 1
    return entry


# -- the drivers ------------------------------------------------------------


def _margin_evidence(store: Store, budget: Budget):
    """Best provable margin upper bound ignoring the negated property row."""
    if not budget.lp_ok():
        return None
    sys = store.normalize(exclude=lambda cid, c: c.block == NEGP)
    budget.count_lp()
    g = {store.layout.margin_index: Fraction(1)}
    out = lp.lp_max(sys, g)
    if out.status != lp.OPTIMAL:
        return None
    cert = DualBoundCertificate.make(g, out.value, out.dual)
    return out.value, cert


def _close(run: RunProof, node: _Node, leaf: ProofLeaf, evidence,
           lemmas: LemmaStore, budget: Budget, root_region: Region, layout):
    """Attach a closed leaf, then walk up merging at completed sibling joins."""
    if node.parent is None:
        run.root = leaf
    else:
        node.parent.split.children[node.child_index] = leaf
    cur = node
    while cur.parent is not None:
        parent = cur.parent
        parent.child_evidence[cur.child_index] = evidence
        parent.closed_children += 1
        if parent.closed_children < 2:
            break
        evidence = None
        if all(e is not None for e in parent.child_evidence):
            g = {layout.margin_index: Fraction(1)}
            entry = merge_lemma(g, list(parent.child_evidence), lemmas,
                                parent.region, parent.alpha, root_region, budget)
            evidence = (parent.region, dict(parent.alpha), entry.bound,
                        entry.justification, None)
        cur = parent


def _run(net: Network, region: Region, prop: SafetyProperty, config: Config) -> VerifyResult:
    layout = build_layout(net, prop)
    budget = Budget(lp_limit=config.lp_budget)
    lemmas = LemmaStore()
    clauses = ClauseDB()
    run = RunProof(region)
    run.lemmas = lemmas.entries
    root = _Node(region, {}, 0)
    stack = [root]

    def close_leaf(node: _Node, cover, evidence=None):
        _close(run, node, ProofLeaf(node.region, dict(node.alpha), cover), evidence,
               lemmas, budget, region, layout)

    def close_infeasible(node: _Node, store: Store, certs, ev, foreign):
        """Leaf over a fresh snapshot (reused clause certificates keep their
        own); root-region certificates are learned as conflict clauses."""
        sid = run.add_snapshot(snapshot_store(store))
        cover = [(c, foreign.get(c, sid)) for c in certs]
        if node.region == region:
            node_lits = frozenset(GuardLiteral(u, p) for u, p in node.alpha.items())
            for cert, cert_sid in cover:
                lits = node_lits | cert.guard_set
                if lits:
                    cl = ConflictClause(lits, len(clauses.entries))
                    clauses.append(ClauseEntry(cl, lits, cert, cert_sid))
                    budget.clauses += 1
        evidence = None if ev is None else (node.region, dict(node.alpha), ev[0], ev[1], sid)
        close_leaf(node, cover, evidence)

    def attach_split(node: _Node, split: tuple):
        budget.splits += 1
        sp = ProofSplit(split, node.region, dict(node.alpha))
        node.split = sp
        if node.parent is None:
            run.root = sp
        else:
            node.parent.split.children[node.child_index] = sp
        stack.extend(reversed(refine(node, split)))

    def sat(x) -> VerifyResult:
        return VerifyResult("sat", witness=x, trace=trace_vector(net, layout, x, prop),
                            budget=budget)

    # falsify first: `validate_witness` is exact, so a hit is a certified
    # verdict at the cost of one forward pass
    mid = tuple((lo + hi) * _HALF for lo, hi in zip(region.lower, region.upper))
    if validate_witness(net, region, prop, mid).accepted:
        return sat(mid)

    while stack:
        node = stack.pop()
        if config.first_split == "domain" and node.depth == 0:
            attach_split(node, _domain_split(node.region))
            continue
        blocked = clauses.blocking(node.alpha)
        if blocked is not None:
            close_leaf(node, [(blocked.cert, blocked.snapshot_id)])
            continue
        store = build_initial_store(net, layout, node.region, prop, node.alpha, lemmas)
        res = propagate_node(store, budget, templates=config.templates)
        if res.exhausted:
            return VerifyResult("unknown", reason="resource", budget=budget)
        # margin evidence is read only by the merge at the node's parent
        if res.status == "prune":
            ev = _margin_evidence(store, budget) if node.parent else None
            close_infeasible(node, store, [GuardedCertificate.make((), res.farkas)], ev, {})
            continue
        # witness extraction from the relaxation point
        if res.feasible_point is not None:
            x = tuple(res.feasible_point.get(layout.input_index(k), _ZERO)
                      for k in range(net.input_dim))
            if validate_witness(net, node.region, prop, x).accepted:
                return sat(x)
        # taken before the gate, whose refinements retire hull rows.  It is
        # never a prune test: the node's store, negated property included, is
        # LP-feasible here, so this bound is at least the violation threshold
        ev = _margin_evidence(store, budget) if node.parent else None
        foreign = _clause_certs(clauses, node.alpha)
        # the one difference between the strategies: the hybrid gate starts
        # with every unstable unit exact, the incremental gate with none
        start = store.unstable if config.strategy == "hsrv" else ()
        g = exactness_gate(store, budget, list(foreign), gate_lp_limit=config.gate_budget,
                           start=start)
        if g.status == SAT:
            return sat(g.witness)
        if g.status == PRUNE:
            close_infeasible(node, store, g.certificates, ev, foreign)
            continue
        if g.reason == BUDGET and not budget.lp_ok():
            return VerifyResult("unknown", reason="resource", budget=budget)
        # refine
        if node.depth >= config.max_depth:
            return VerifyResult("unknown", reason="depth", budget=budget)
        try:
            split = pick_split(store, node, config)
        except NothingToSplit:
            return VerifyResult("unknown", reason="nothing-to-split", budget=budget)
        attach_split(node, split)
    return VerifyResult("unsat", proof=run, budget=budget)


def _clause_certs(clauses: ClauseDB, alpha: dict[Unit, str]):
    """Clause certificates usable for Boolean pruning below this node,
    mapped back to the snapshot each was derived in."""
    lits = {GuardLiteral(u, p) for u, p in alpha.items()}
    out: dict[GuardedCertificate, int] = {}
    for e in clauses.entries:
        extra = e.literals - lits
        cert = GuardedCertificate.make(sorted(extra, key=lambda g: (g.unit, g.phase)),
                                       e.cert.inner)
        out.setdefault(cert, e.snapshot_id)
    return out


def icl_verify(net: Network, region: Region, prop: SafetyProperty,
               config: Config | None = None) -> VerifyResult:
    config = config or Config()
    config = Config(**{**config.__dict__, "strategy": "icl"})
    return _run(net, region, prop, config)


def hsrv_verify(net: Network, region: Region, prop: SafetyProperty,
                config: Config | None = None) -> VerifyResult:
    config = config or Config()
    config = Config(**{**config.__dict__, "strategy": "hsrv"})
    return _run(net, region, prop, config)


# -- ground-truth oracle ----------------------------------------------------


def oracle_verify(net: Network, region: Region, prop: SafetyProperty,
                  cap: int = 12) -> VerifyResult:
    """Enumerate every total phase assignment of the root-unstable units and
    LP-solve the resulting purely linear system.  Ground truth for tests."""
    from .store import interval_bounds

    layout = build_layout(net, prop)
    bounds = interval_bounds(net, region, {})
    free: list[Unit] = []
    fixed: dict[Unit, str] = {}
    for unit in net.hidden_units:
        lo, hi = bounds[unit]
        if lo >= 0:
            fixed[unit] = ACTIVE
        elif hi <= 0:
            fixed[unit] = INACTIVE
        else:
            free.append(unit)
    free.sort()
    if len(free) > cap:
        raise CapExceeded(f"{len(free)} unstable units exceed cap {cap}")
    budget = Budget()
    for phases in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
        alpha = dict(fixed)
        alpha.update(zip(free, phases))
        store = build_initial_store(net, layout, region, prop, alpha)
        budget.count_lp()
        out = lp.lp_feasible(store.normalize())
        if out.status != lp.FEASIBLE:
            continue
        x = tuple(out.primal.get(layout.input_index(k), _ZERO)
                  for k in range(net.input_dim))
        verdict = validate_witness(net, region, prop, x)
        if not verdict.accepted:
            raise OracleFault(f"exact assignment produced invalid witness: {verdict.reason}")
        return VerifyResult("sat", witness=x, trace=trace_vector(net, layout, x, prop),
                            budget=budget)
    return VerifyResult("unsat", budget=budget)
