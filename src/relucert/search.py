"""Search driver: a recursion that returns the proof tree, and margin bounds.

One branch-and-bound search serves both strategies, which are its two entry
points.  Before any store is built, the box midpoint is evaluated exactly;
if it is a counterexample the run ends there with SAT and no LP.  Otherwise
`solve(region, alpha, depth)` closes the node by propagation or by the
exactness gate and returns its leaf, or splits it and returns the split over
its two solved children, active phase and lower half first.  The
incremental strategy (icl) starts the gate with no unit exact and refines,
the hybrid strategy (hsrv) starts it with every unstable unit exact.  Every
leaf carries Farkas certificates and, below the root, the margin bound its
store proves, with the rows of its store that they reach (`Store.cone`),
under the store's ids; a split whose two children both carry a bound
carries their maximum (the merge lemma `margin <= max(beta1, beta2)`).  Propagation
makes the bound: below the root `propagate_node(..., margin=True)` closes
the node with an LP that maximizes the margin without the negated
property, and makes that LP for the bound alone if it refuted the node
first; the search reads the bound from the result.  The open node's LP
point answers the gate's query with no unit exact.  Conflict clauses are
still recorded at root-region nodes, but no later node can match one.

SAT and UNKNOWN leave the recursion through one exception that `_run`
catches; so does `budget.Exhausted`, raised at the first LP the budget
cannot afford, or by a node that defers once the budget is spent.  The
recursion is at most `max_depth` deep, and at most one more than the
number of hidden units: each phase split commits a unit its ancestors left
free, a node with no unstable unit left is exact, so its LP point decides
it, and only `first_split` makes a domain split, at the root.  Each level
takes a few interpreter frames; a search deeper than the interpreter's
recursion limit answers UNKNOWN `reason=depth`, as `max_depth` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .budget import Budget, Exhausted
from .certs import DualBoundCertificate, GuardedCertificate
from .gate import PRUNE, SAT, exactness_gate
from .model import (
    ACTIVE,
    INACTIVE,
    Network,
    Region,
    SafetyProperty,
    Unit,
    build_layout,
    validate_witness,
)
from .propagate import back_substitution, propagate_node
from .rows import GuardLiteral
from .store import ProblemRows, Store, StoreRow, build_initial_store

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class NothingToSplit(Exception):
    """`pick_split` on a node with no unstable unit: a fault, not an
    UNKNOWN.  Every unit of such a node has its phase equality, so its LP
    point is an exact trace that meets the negated property, a witness."""


class CapExceeded(Exception):
    pass


class OracleFault(Exception):
    """A feasible exact phase assignment gave a point that is no witness."""


# -- configuration ----------------------------------------------------------


@dataclass
class Config:
    max_depth: int = 64
    lp_budget: int | None = None
    gate_budget: int | None = None  # LP theory calls per gate invocation
    templates: str = "default"  # "default" | "margin-only"
    first_split: str | None = None  # "domain" forces a root domain split


# -- proof tree -------------------------------------------------------------


@dataclass
class ProofLeaf:
    # the rows of the node's store that its certificates reach
    # (`Store.cone`), retired ones included, as (id, constraint) under the
    # store's ids
    rows: list[tuple[int, StoreRow]]
    cover: list[GuardedCertificate]
    # the margin bound its rows prove without the negated property: a dual
    # certificate whose objective is the margin alone
    evidence: DualBoundCertificate | None = None

    @property
    def bound(self) -> Fraction | None:
        return None if self.evidence is None else self.evidence.bound


@dataclass
class ProofSplit:
    kind: tuple  # ("phase", unit) | ("domain", dim, midpoint)
    children: list  # two entries: active then inactive, lower then upper half
    bound: Fraction | None = None  # max of the children's bounds, set by merge_lemma


@dataclass
class ClauseEntry:
    """A conflict clause: not all of `literals` hold, by `cert`."""

    literals: frozenset[GuardLiteral]
    cert: GuardedCertificate
    rows: list[tuple[int, StoreRow]]  # the rows of the leaf `cert` closed


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
class VerifyResult:
    status: str  # "sat" | "unsat" | "unknown"
    witness: tuple[Fraction, ...] | None = None
    tree: ProofLeaf | ProofSplit | None = None  # the proof of an unsat verdict
    reason: str = ""
    budget: Budget | None = None


# -- refinement -------------------------------------------------------------


def pick_split(store: Store) -> tuple:
    """Phase split on the unstable unit whose hull chord adds most to the
    node's back-substituted margin bound (BaBSR, Bunel et al. 2020).

    `propagate.back_substitution` of the negated property through the
    node's final rows puts a multiplier lam_u (`Substitution.chord`, which
    propagation reads too, to choose the units it tightens) on each chord
    it uses, hull row 2, `z <= hi (s - lo) / (hi - lo)` over the unit's
    `hull_bounds` [lo, hi].  The chord's intercept, -lo hi / (hi - lo) > 0,
    adds lam_u times itself to the bound, and a phase split on the unit
    replaces the chord by an exact phase equality, which removes that
    term.  The score is that product, an exact `Fraction`.  Ties, zero
    scores and units without hull rows fall back to the widest straddle,
    min(-lo, hi) of `bounds.pre`, then to (layer, neuron).  On the
    `branching` benchmark (seed 1) this rule made 16 splits and 54 LPs
    where the widest straddle alone made 36 and 104, and 12 and 44 where
    it made 26 and 79 on the held-out family."""
    if not store.unstable:
        raise NothingToSplit()
    sub = back_substitution(store)

    def key(unit: Unit):
        score = _ZERO
        lam = None if sub is None else sub.chord(store, unit)
        if lam is not None:
            lo, hi = store.hull_bounds[unit]
            score = lam * (-lo * hi / (hi - lo))
        lo, hi = store.bounds.pre[unit]
        return (-score, -min(-lo, hi), unit)

    return ("phase", min(store.unstable, key=key))


def _domain_split(region: Region) -> tuple:
    """Bisect the widest edge of the box, the first on a tie."""
    widths = [hi - lo for lo, hi in zip(region.lower, region.upper)]
    dim = max(range(len(widths)), key=lambda k: (widths[k], -k))
    mid = (region.lower[dim] + region.upper[dim]) * _HALF
    return ("domain", dim, mid)


def refine(region: Region, alpha: dict[Unit, str],
           split: tuple) -> list[tuple[Region, dict[Unit, str]]]:
    """The (region, alpha) scopes of the split's two children, in order."""
    if split[0] == "phase":
        return [(region, {**alpha, split[1]: phase}) for phase in (ACTIVE, INACTIVE)]
    _, dim, mid = split
    kids = []
    for lo, hi in ((region.lower[dim], mid), (mid, region.upper[dim])):
        lower = list(region.lower)
        upper = list(region.upper)
        lower[dim], upper[dim] = lo, hi
        kids.append((Region(tuple(lower), tuple(upper)), dict(alpha)))
    return kids


# -- merge learning ---------------------------------------------------------


def merge_lemma(split: ProofSplit, budget: Budget):
    """Both children of the split bound the margin: the split bounds it by
    the larger of the two, `margin <= max(beta1, beta2)`."""
    split.bound = max(child.bound for child in split.children)
    budget.lemmas += 1


# -- the drivers ------------------------------------------------------------


class _Verdict(Exception):
    """A SAT or UNKNOWN result, leaving the recursion for `_run`."""

    def __init__(self, result: VerifyResult):
        super().__init__(result.status)
        self.result = result


def _run(net: Network, region: Region, prop: SafetyProperty, config: Config,
         hybrid: bool) -> VerifyResult:
    layout = build_layout(net, prop)
    budget = Budget(lp_limit=config.lp_budget)
    clauses = ClauseDB()
    root_region = region

    def sat(x) -> _Verdict:
        return _Verdict(VerifyResult("sat", witness=x, budget=budget))

    def close(region, alpha, store: Store, certs, bound) -> ProofLeaf:
        """Leaf over the rows its certificates reach, with the margin bound
        `bound` (a parent's merge reads it); root-region certificates are
        recorded as conflict clauses."""
        cited = [rid for cert in certs for rid, _ in cert.inner.multipliers]
        if bound is not None:
            cited += [rid for rid, _ in bound.multipliers]
        leaf = ProofLeaf(store.cone(cited), certs, bound)
        if region == root_region:
            node_lits = frozenset(GuardLiteral(u, p) for u, p in alpha.items())
            for cert in certs:
                lits = node_lits | cert.guard_set
                if lits:
                    clauses.append(ClauseEntry(lits, cert, leaf.rows))
                    budget.clauses += 1
        return leaf

    def split(region, alpha, depth: int, kind: tuple) -> ProofSplit:
        budget.splits += 1
        node = ProofSplit(kind, [solve(r, a, depth + 1) for r, a in refine(region, alpha, kind)])
        if all(child.bound is not None for child in node.children):
            merge_lemma(node, budget)
        return node

    def solve(region, alpha, depth: int):
        # a box of zero width has no domain split to force
        if config.first_split == "domain" and depth == 0 and region.lower != region.upper:
            return split(region, alpha, depth, _domain_split(region))
        blocked = clauses.blocking(alpha)
        if blocked is not None:
            return ProofLeaf(blocked.rows, [blocked.cert])
        store = build_initial_store(net, layout, region, prop, alpha, shared)
        # below the root a leaf records the margin bound of its rows without
        # the negated property: the node's closing LP is that margin LP
        res = propagate_node(store, budget, templates=config.templates, margin=depth > 0)
        if res.status == "prune":
            return close(region, alpha, store, [GuardedCertificate.make((), res.farkas)],
                         res.evidence)
        # witness extraction from the relaxation point
        if res.feasible_point is not None:
            x = tuple(res.feasible_point.get(layout.input_index(k), _ZERO)
                      for k in range(net.input_dim))
            if validate_witness(net, region, prop, x).accepted:
                raise sat(x)
        # the one difference between the strategies: the hybrid gate starts
        # with every unstable unit exact, the incremental gate with none.
        # The node's point answers a query with no unit exact
        g = exactness_gate(store, budget, gate_lp_limit=config.gate_budget,
                           start=store.unstable if hybrid else (), point=res.feasible_point)
        if g.status == SAT:
            raise sat(g.witness)
        if g.status == PRUNE:
            # the margin bound of the node's rows, which the gate reads and
            # does not change; at least the violation threshold, since the
            # node's rows with the negated property are feasible
            return close(region, alpha, store, g.certificates, res.evidence)
        # a split's children need LPs the spent budget cannot pay for
        if not budget.lp_ok():
            raise Exhausted()
        if depth >= config.max_depth:
            raise _Verdict(VerifyResult("unknown", reason="depth", budget=budget))
        return split(region, alpha, depth, pick_split(store))

    try:
        # falsify first: `validate_witness` is exact, so a hit is a
        # certified verdict at the cost of one forward pass
        mid = tuple((lo + hi) * _HALF for lo, hi in zip(region.lower, region.upper))
        if validate_witness(net, region, prop, mid).accepted:
            raise sat(mid)
        # the rows every node's store shares, built once the run needs a store
        shared = ProblemRows(net, layout, prop)
        tree = solve(region, {}, 0)
    except Exhausted:
        return VerifyResult("unknown", reason="resource", budget=budget)
    except RecursionError:
        return VerifyResult("unknown", reason="depth", budget=budget)
    except _Verdict as verdict:
        return verdict.result
    return VerifyResult("unsat", tree=tree, budget=budget)


def icl_verify(net: Network, region: Region, prop: SafetyProperty,
               config: Config | None = None) -> VerifyResult:
    return _run(net, region, prop, config or Config(), hybrid=False)


def hsrv_verify(net: Network, region: Region, prop: SafetyProperty,
                config: Config | None = None) -> VerifyResult:
    return _run(net, region, prop, config or Config(), hybrid=True)


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
    shared = ProblemRows(net, layout, prop)
    for phases in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
        alpha = dict(fixed)
        alpha.update(zip(free, phases))
        store = build_initial_store(net, layout, region, prop, alpha, shared)
        budget.count_lp()
        out = lp.lp_feasible(store.normalize())
        if out.status != lp.FEASIBLE:
            continue
        x = tuple(out.primal.get(layout.input_index(k), _ZERO)
                  for k in range(net.input_dim))
        verdict = validate_witness(net, region, prop, x)
        if not verdict.accepted:
            raise OracleFault(f"exact assignment produced invalid witness: {verdict.reason}")
        return VerifyResult("sat", witness=x, budget=budget)
    return VerifyResult("unsat", budget=budget)
