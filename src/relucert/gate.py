"""Exactness gate: partial exact encodings, violation-driven refinement.

The relaxation left the node open, so exact ReLU semantics are enforced on a
growing subset S of the unstable units.  Each partial exact query is decided
by a small DPLL over the 2^|S| guard assignments with an LP feasibility check
per full assignment; every infeasible branch yields a guarded Farkas
certificate, and an unsat answer returns a cover of such certificates whose
guard sets exhaust all assignments.  The query with S empty, the first of
the incremental strategy, asks for a point of the store's rows; the open
node's last LP found one, so that query makes no LP.  The gate's own query
ceiling (`gate_lp_limit`, which counts every query answered, that one
included) makes it defer; a spent run budget raises `Exhausted` out of
it.  A model that is no counterexample grows S by one unit,
`most_violated`: the unit of largest exact ReLU residual.  An exact
unit's guard rows force its residual to zero, so picking one again raises
`RefinementFailed`.  The gate proves no margin bound: a leaf it closes
carries the one its node's propagation made.

A query's LPs read the store's rows (`Store.normalize`) but the hull rows
of the units it makes exact: over the unit's interval, which the rows kept
imply, either phase's guard rows imply all four.  The gate writes nothing
to the store; propagation is the one writer of a node's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import certs as certmod
from . import lp
from .budget import Budget
from .certs import FarkasCertificate, GuardedCertificate
from .model import ACTIVE, INACTIVE, Unit, validate_witness
from .rows import GuardLiteral, guard_norm_rows
from .store import Store

_ZERO = Fraction(0)

SAT = "sat"
UNSAT = "unsat"
PRUNE = "prune"
DEFER = "defer"
LIMIT = "limit"


class RefinementFailed(Exception):
    """A refinement kept the spurious model or exceeded |U| steps."""


def most_violated(model: dict[int, Fraction], layout, units) -> Unit | None:
    """The unit with the largest exact ReLU residual |z - max(0, s)| at the
    model, ties broken on (layer, neuron); None if every residual is 0."""
    best, worst = None, _ZERO
    for unit in sorted(units):
        s = model.get(layout.pre_index(unit), _ZERO)
        z = model.get(layout.post_index(unit), _ZERO)
        r = abs(z - max(_ZERO, s))
        if r > worst:
            best, worst = unit, r
    return best


@dataclass
class ExactResult:
    status: str  # SAT | UNSAT | LIMIT
    model: dict[int, Fraction] | None = None
    cover: list[GuardedCertificate] = field(default_factory=list)
    queries: int = 0  # theory queries answered


def _drop_zero_guards(cert: GuardedCertificate, layout) -> GuardedCertificate:
    """Remove guards none of whose materialized rows carry a multiplier."""
    used = {rid for rid, _ in cert.inner.multipliers}
    kept = []
    for lit in cert.guards:
        rids = {r.rid for r in guard_norm_rows(layout, lit)}
        if rids & used:
            kept.append(lit)
    if len(kept) == len(cert.guards):
        return cert
    return GuardedCertificate.make(kept, cert.inner)


def exact_solve(store: Store, subset, budget: Budget | None = None,
                local_limit: int | None = None) -> ExactResult:
    """DPLL over the guard assignments of the subset, LP as theory check.

    The guarded certificates of branches already closed in this call prune
    any later partial assignment containing their full guard set; that
    certificate is in the cover already, so the cover stays exhaustive and
    lists each certificate once.  LIMIT means `local_limit` LPs were made;
    a spent `budget` raises `Exhausted`.  Each theory LP solves the store's
    rows without the hull rows of the subset's units, plus the guard rows
    of a full assignment; a certificate over those rows is one over the
    store's.
    """
    if budget is None:
        budget = Budget()
    units = sorted(subset)
    # an exact unit's guard rows imply its hull rows over its interval
    hull = {cid for unit in units for cid in store.hull_ids.get(unit, ())}
    base = store.normalize(exclude=lambda cid, c: cid in hull)
    cover: list[GuardedCertificate] = []
    calls = 0

    def theory(lits) -> ExactResult | None:
        nonlocal calls
        if local_limit is not None and calls >= local_limit:
            return ExactResult(LIMIT)
        budget.count_lp()
        calls += 1
        sys = certmod.extend_with_guards(base, store.layout, lits)
        out = lp.lp_feasible(sys)
        if out.status == lp.INFEASIBLE:
            cert = GuardedCertificate.make(lits, FarkasCertificate.make(out.dual))
            cover.append(_drop_zero_guards(cert, store.layout))
            return None
        return ExactResult(SAT, model=out.primal)

    def solve(idx: int, lits: tuple[GuardLiteral, ...]) -> ExactResult | None:
        here = set(lits)
        if any(cert.guard_set <= here for cert in cover):
            return None
        if idx == len(units):
            return theory(lits)
        for phase in (ACTIVE, INACTIVE):
            r = solve(idx + 1, lits + (GuardLiteral(units[idx], phase),))
            if r is not None:
                return r
        return None

    res = solve(0, ())
    if res is None:
        res = ExactResult(UNSAT, cover=cover)
    res.queries = calls
    return res


@dataclass
class GateOutcome:
    status: str  # SAT | PRUNE | DEFER
    witness: tuple[Fraction, ...] | None = None
    certificates: list[GuardedCertificate] = field(default_factory=list)
    refinements: int = 0


def _model_violates_exactness(store: Store, model: dict[int, Fraction], unit: Unit) -> bool:
    """True iff the model falsifies both phase branches of the unit."""
    for phase in (ACTIVE, INACTIVE):
        ok = True
        for r in guard_norm_rows(store.layout, GuardLiteral(unit, phase)):
            _, coeffs, rhs = r.ints
            if sum((a * model.get(j, _ZERO) for j, a in coeffs.items()), _ZERO) > rhs:
                ok = False
                break
        if ok:
            return False
    return True


def exactness_gate(store: Store, budget: Budget, gate_lp_limit: int | None = None,
                   start=(), point: dict[int, Fraction] | None = None) -> GateOutcome:
    """Abstraction-refinement loop over exact subsets S, starting from
    S = start (the empty set, or every unstable unit for the hybrid strategy).

    Sat models are validated by exact forward evaluation; spurious models
    grow S by the most-violated unit, which provably eliminates them.  At
    most |U| refinements can occur.  Each query leaves out the hull rows
    of the units of S (`exact_solve`); the store is not changed.  `point`,
    a point of every active row of the store (the open node's LP point),
    answers the query S = {} without an LP.  The gate defers once it has
    answered `gate_lp_limit` queries, or when an exact model is no
    counterexample.
    """
    budget.gate_calls += 1
    unstable = sorted(store.unstable)
    subset: set[Unit] = set(start)
    refinements = 0
    queries = 0
    while True:
        remaining = None if gate_lp_limit is None else gate_lp_limit - queries
        if remaining is not None and remaining <= 0:
            return GateOutcome(DEFER, refinements=refinements)
        if point is not None and not subset:
            res = ExactResult(SAT, model=point, queries=1)
        else:
            res = exact_solve(store, subset, budget, local_limit=remaining)
        queries += res.queries
        if res.status == LIMIT:
            return GateOutcome(DEFER, refinements=refinements)
        if res.status == UNSAT:
            return GateOutcome(PRUNE, certificates=res.cover, refinements=refinements)
        model = res.model
        x = tuple(model.get(store.layout.input_index(k), _ZERO)
                  for k in range(store.net.input_dim))
        verdict = validate_witness(store.net, store.region, store.prop, x)
        if verdict.accepted:
            return GateOutcome(SAT, witness=x, refinements=refinements)
        unit = most_violated(model, store.layout, store.unstable)
        if unit is None:
            return GateOutcome(DEFER, refinements=refinements)
        # an exact unit's guard rows force its residual to 0, so a model
        # that violates one is no model of the query
        if unit in subset or not _model_violates_exactness(store, model, unit):
            raise RefinementFailed(f"unit {unit} does not refute the model")
        subset.add(unit)
        refinements += 1
        if refinements > len(unstable):
            raise RefinementFailed(f"{refinements} refinements for {len(unstable)} units")
