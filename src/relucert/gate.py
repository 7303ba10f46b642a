"""Exactness gate: one DPLL over guard assignments, refined by spurious models.

The relaxation left the node open.  The gate answers SAT with a witness,
or closes the node with a cover of guarded Farkas certificates whose guard
sets exhaust every phase assignment, or defers.  `exact_solve` is its one
recursion, over guard assignments sigma: a phase for some unstable units,
each of which is exact there.  At each sigma, in turn:

- a cover certificate whose guard set sigma contains closes sigma, no LP;
- a `start` unit with no phase in sigma is branched on, in sorted order
  and active first, with no LP (hsrv starts with every unstable unit
  exact, icl with none);
- otherwise sigma's query is answered.  The node's point, a point of every
  active row of the store, answers sigma = {} with no LP; any other query
  is an LP over the store's rows (`Store.normalize`) without the hull
  rows of sigma's units, plus sigma's guard rows.  Over an exact unit's
  interval, which the rows kept imply, either phase's guard rows imply
  its hull rows, so a certificate of that LP is one over the store's
  rows, and an infeasible LP adds it to the cover.  A model whose input
  is a witness is SAT.  A spurious model is branched on at
  `most_violated`, the unit of largest exact ReLU residual, whose two
  phases both refute it.  An exact unit's guard rows force its residual
  to zero, so picking one on sigma raises `RefinementFailed`.

Each sigma is visited once, so no query is answered twice in a call and
no certificate is dropped: lazy abstraction refinement (CEGAR, Clarke et
al. 2000) run as DPLL(T) (Nieuwenhuis, Oliveras & Tinelli 2006).  The
gate's query ceiling (`gate_lp_limit`, which counts every query answered,
the point's included) makes it defer, as does a model exact on every
unstable unit that is no witness; a spent run budget raises `Exhausted`
out of it.  The gate proves no margin bound: a leaf it closes carries the
one its node's propagation made.  The gate writes nothing to the store;
propagation is the one writer of a node's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import certs as certmod
from . import lp
from .budget import Budget
from .certs import FarkasCertificate, GuardedCertificate
from .model import ACTIVE, INACTIVE, Unit, validate_witness
from .rows import GuardLiteral, NormalizedSystem, guard_norm_rows
from .store import Store

_ZERO = Fraction(0)

SAT = "sat"
UNSAT = "unsat"
PRUNE = "prune"
DEFER = "defer"


class RefinementFailed(Exception):
    """A spurious model's most violated unit is exact on its assignment,
    or does not refute the model."""


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
    status: str  # SAT | UNSAT | DEFER
    witness: tuple[Fraction, ...] | None = None
    cover: list[GuardedCertificate] = field(default_factory=list)
    refinements: int = 0  # distinct units a spurious model made exact


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


def exact_solve(store: Store, budget: Budget | None = None, local_limit: int | None = None,
                start=(), point: dict[int, Fraction] | None = None) -> ExactResult:
    """The gate's DPLL over guard assignments, from the empty one (module
    docstring).  The cover lists each certificate of the call once, and
    refutes every assignment if UNSAT.  DEFER means `local_limit` queries
    were answered, or a model exact on every unstable unit is no witness."""
    if budget is None:
        budget = Budget()
    layout = store.layout
    start = sorted(start)
    cover: list[GuardedCertificate] = []
    refined: set[Unit] = set()
    bases: dict[frozenset[Unit], NormalizedSystem] = {}
    queries = 0

    def theory(lits: tuple[GuardLiteral, ...]) -> dict[int, Fraction] | None:
        """The model of sigma's LP, or None with its certificate in the cover."""
        exact = frozenset(lit.unit for lit in lits)
        if exact not in bases:
            # an exact unit's guard rows imply its hull rows over its interval
            hull = {cid for unit in exact for cid in store.hull_ids.get(unit, ())}
            bases[exact] = store.normalize(exclude=lambda cid, c: cid in hull)
        budget.count_lp()
        out = lp.lp_feasible(certmod.extend_with_guards(bases[exact], layout, lits))
        if out.status == lp.INFEASIBLE:
            cert = GuardedCertificate.make(lits, FarkasCertificate.make(out.dual))
            cover.append(_drop_zero_guards(cert, layout))
            return None
        return out.primal

    def solve(lits: tuple[GuardLiteral, ...]) -> tuple[str, tuple | None] | None:
        """(status, witness) if sigma ends the call, None once it is refuted."""
        nonlocal queries
        here = set(lits)
        if any(cert.guard_set <= here for cert in cover):
            return None
        phased = {lit.unit for lit in lits}
        unit = next((u for u in start if u not in phased), None)
        if unit is None:
            if local_limit is not None and queries >= local_limit:
                return DEFER, None
            queries += 1
            model = point if not lits and point is not None else theory(lits)
            if model is None:
                return None
            x = tuple(model.get(layout.input_index(k), _ZERO)
                      for k in range(store.net.input_dim))
            if validate_witness(store.net, store.region, store.prop, x).accepted:
                return SAT, x
            unit = most_violated(model, layout, store.unstable)
            if unit is None:
                return DEFER, None
            if unit in phased or not _model_violates_exactness(store, model, unit):
                raise RefinementFailed(f"unit {unit} does not refute the model")
            refined.add(unit)
        for phase in (ACTIVE, INACTIVE):
            res = solve(lits + (GuardLiteral(unit, phase),))
            if res is not None:
                return res
        return None

    status, witness = solve(()) or (UNSAT, None)
    return ExactResult(status, witness, cover, len(refined))


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
    """One gate call: `exact_solve` from no unit exact but `start` (every
    unstable unit for the hybrid strategy), with `point` answering the
    query of the empty assignment and `gate_lp_limit` queries at most."""
    budget.gate_calls += 1
    res = exact_solve(store, budget, gate_lp_limit, start, point)
    if res.status == UNSAT:
        return GateOutcome(PRUNE, certificates=res.cover, refinements=res.refinements)
    return GateOutcome(res.status, witness=res.witness, refinements=res.refinements)
