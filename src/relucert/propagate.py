"""Certificate-driven node propagation.

One fixed-point pass interleaves: hull insertion for unstable units over
their interval, the store's seed by `store.interval_bounds` over the node's
scope as derived rows tighten it, a back-substitution of the negated
property through those rows that prunes with a Farkas certificate and no
LP, LP tightening with dual certificates (the only derived rows) of the
pre-activations of the unstable units whose hull chord that sum uses (the
search reads the same chord multipliers to choose a phase split),
stabilization of units whose interval fixes their sign (the unit's phase
equality replaces its hull rows), and one closing LP that prunes with a
Farkas certificate or leaves the node open at a point of its rows.  Below
the root the closing LP maximizes the margin without the negated
property, which also proves the margin bound the node's leaf records.
One function, `_margin_lp`, makes every such bound LP: a node below the
root that back-substitution or a TGCT LP refutes first makes it for its
bound alone.  The root therefore makes no LP when back-substitution
refutes it; a node below the root makes at least the one LP that proves
its bound.

Every row is built straight into its integer form (`rows`): a derived row
from its bound, the hull chord over the common denominator of its
interval's ends.  Back-substitution sums integer rows over one common
denominator too, and makes a `Fraction` only for each multiplier it
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from . import certs as certmod
from . import lp
from .budget import Budget
from .certs import DualBoundCertificate, FarkasCertificate
from .model import ACTIVE, INACTIVE, Unit
from .rows import GuardLiteral, RowId, guard_rows, lowest_terms
from .store import Store, bound_form

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: cap on the fixed-point passes of one node
MAX_PASSES = 25


class NotUnstable(Exception):
    """hull_insert called for a unit whose bounds do not straddle zero."""


@dataclass
class TgctResult:
    rows_added: int = 0
    farkas: FarkasCertificate | None = None


@dataclass
class PropagationResult:
    status: str  # "prune" | "open"
    farkas: FarkasCertificate | None = None
    #: (unit, phase) of each unit the node stabilized
    stability_certs: list[tuple[Unit, str]] = field(default_factory=list)
    iterations: int = 0
    feasible_point: dict[int, Fraction] | None = None
    #: with `margin`: the margin bound of the final rows (None if none)
    evidence: DualBoundCertificate | None = None


def _specialize(store: Store, unit: Unit, phase: str) -> tuple[Unit, str]:
    """Replace the unit's relaxation by its exact linear specialization: the
    phase equality a guard on the phase would add, `z = s` or `z = 0`.  The
    guard's sign row is not written: the unit's interval, its seed or a
    derived row of smaller id, proves the sign."""
    for cid in store.hull_ids.pop(unit, []):
        store.retire(cid)
    store.hull_bounds.pop(unit, None)
    store.phase_ids[unit] = store.add(("stabilize", unit, phase),
                                      guard_rows(store.layout, GuardLiteral(unit, phase))[0])
    store.phases[unit] = phase
    store.unstable.discard(unit)
    return unit, phase


def hull_insert(store: Store, unit: Unit) -> list[int]:
    """Insert (or replace) the four-row convex envelope for an unstable unit."""
    lo, hi = store.bounds.pre[unit]
    if not (lo < 0 < hi):
        raise NotUnstable(f"{unit} has bounds [{lo}, {hi}]")
    for cid in store.hull_ids.pop(unit, []):
        store.retire(cid)
    s = store.layout.pre_index(unit)
    z = store.layout.post_index(unit)
    # row 2, the chord: z - slope s <= -slope lo, slope = hi / (hi - lo),
    # over d = (hi - lo) lo_d hi_d > 0
    lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    d = hi_n * lo_d - lo_n * hi_d
    rows = [
        (1, {z: -1}, 0),
        (1, {s: 1, z: -1}, 0),
        lowest_terms(d, {z: d, s: -hi_n * lo_d}, -hi_n * lo_n),
        bound_form(z, 1, hi),
    ]
    ids = [store.add(("hull", unit, k), [row]) for k, row in enumerate(rows)]
    store.hull_ids[unit] = ids
    store.hull_bounds[unit] = (lo, hi)
    return ids


def ensure_relaxation(store: Store) -> list[tuple[Unit, str]]:
    """Layer-order sweep over the ReLU units, the keys of `bounds.pre`,
    installing relaxation rows.

    On later passes only refreshes hull rows whose bounds were tightened.
    """
    stab: list[tuple[Unit, str]] = []
    for unit, bounds in store.bounds.pre.items():
        if unit in store.phases:
            continue
        settled = _stabilize_settled(store, unit)
        if settled is not None:
            stab.append(settled)
        elif store.hull_bounds.get(unit) != bounds:
            hull_insert(store, unit)
            store.unstable.add(unit)
    return stab


def _stabilize_settled(store: Store, unit: Unit) -> tuple[Unit, str] | None:
    """Specialize the unit if its certified bounds fix its sign (lo >= 0:
    active, hi <= 0: inactive), the test the checker applies to its rows."""
    lo, hi = store.bounds.pre[unit]
    if lo >= 0:
        phase = ACTIVE
    elif hi <= 0:
        phase = INACTIVE
    else:
        return None
    return _specialize(store, unit, phase)


def stabilize(store: Store) -> list[tuple[Unit, str]]:
    """Specialize every unit whose certified bounds pin its sign."""
    out = []
    for unit in sorted(store.unstable):
        settled = _stabilize_settled(store, unit)
        if settled is not None:
            out.append(settled)
    return out


class Substitution(NamedTuple):
    """The sum `back_substitution` ends on, `0 <= rho`, and the multiplier
    it puts on each row it adds, by row id."""

    multipliers: dict[RowId, Fraction]
    rho: Fraction

    def chord(self, store: Store, unit: Unit) -> Fraction | None:
        """The multiplier on the unit's hull chord, hull row 2: 0 where the
        sum does not use it, None for a unit without hull rows."""
        ids = store.hull_ids.get(unit)
        if ids is None:
            return None
        return self.multipliers.get(store.constraints[ids[2]].sides[0].rid, _ZERO)

    def refutation(self, store: Store) -> FarkasCertificate | None:
        """Refute the node without an LP, if its rows allow it this way: if
        the sum reads `0 <= rho` with rho < 0, its multipliers are a Farkas
        certificate, checked over the rows they cite and returned; else
        None.  The node's next LP would run phase 1 on these same rows and
        find them infeasible too, so pruning here moves no decision."""
        return _checked_farkas(store, self.multipliers) if self.rho < 0 else None


def back_substitution(store: Store) -> Substitution | None:
    """Back-substitute the negated property through the node's rows.

    Start from the negated property `-margin <= -(threshold + epsilon)`, and
    cancel the highest-index variable left, again and again, with one row
    at a nonnegative multiplier; each row brings in only variables of lower
    index, so the sum ends on the inputs.  The rows: a side of the affine
    equality for a pre-activation, a side of the phase equality for the
    post-activation of a committed or stabilized unit; for an unstable
    unit's post-activation the hull chord (row 2) as its upper bound, and
    as its lower bound `z >= s` (row 1) when `hi > -lo`, else `z >= 0`
    (row 0); the region rows for an input.
    This is a DeepPoly back-substitution of the margin's upper bound.  The
    sum reads `0 <= rho`; each multiplier it records, times that row's
    right-hand side, is that row's term of rho.  None if a post-activation
    has neither a phase equality nor hull rows yet: a store that
    propagation has not relaxed."""
    layout = store.layout
    pre = {layout.pre_index(u): u for u in store.aff_ids}
    post = {layout.post_index(u): u for u in store.aff_ids
            if layout.post_index(u) != layout.pre_index(u)}
    inputs = {layout.input_index(k): k for k in range(store.net.input_dim)}
    rows = store.constraints
    # the sum so far is coef^T v <= rho over the common denominator q > 0
    q, coef, rho = rows[store.negp_id].sides[0].ints
    coef = dict(coef)
    lam = {("c", store.negp_id, "le"): _ONE}

    def add(side, j: int, a: int):
        # a positive multiple of the row cancels coef_j = a: over q t' the
        # sum is t' coef + c' row, with t', c' the row's |a_j| and |a| over
        # their gcd, and the row's multiplier c' den / (q t')
        nonlocal q, rho
        den, coeffs, b = side.ints
        t = abs(coeffs[j])
        g = gcd(t, a)
        t, c = t // g, abs(a) // g
        lam[side.rid] = Fraction(c * den, q * t)
        if t != 1:
            for k in coef:
                coef[k] *= t
            q *= t
            rho *= t
        for k, v in coeffs.items():
            v = coef.get(k, 0) + c * v
            if v:
                coef[k] = v
            else:
                del coef[k]
        rho += c * b

    def cancel_by_equality(cid: int, j: int, a: int):
        # the "le" side carries coefficient c on j, the "ge" side -c
        le, ge = rows[cid].sides
        add(le if (a > 0) != (le.ints[1][j] > 0) else ge, j, a)

    while coef:
        j = max(coef)
        a = coef[j]
        if j in post:
            unit = post[j]
            if unit in store.phase_ids:
                cancel_by_equality(store.phase_ids[unit], j, a)
            elif unit in store.hull_ids:
                lo, hi = store.hull_bounds[unit]
                k = 2 if a < 0 else 1 if hi > -lo else 0
                add(rows[store.hull_ids[unit][k]].sides[0], j, a)
            else:
                return None
        elif j in pre:
            cancel_by_equality(store.aff_ids[pre[j]], j, a)
        else:
            hi_id, lo_id = store.region_ids[inputs[j]]
            add(rows[hi_id if a < 0 else lo_id].sides[0], j, a)
    return Substitution(lam, Fraction(rho, q))


def tgct(store: Store, units: Iterable[Unit], budget: Budget) -> TgctResult:
    """Template-guided certified tightening: maximize, then minimize, each
    unit's pre-activation over the store's rows; `propagate_node` passes
    the unstable units whose hull chord its back-substitution uses.  A
    strictly tighter optimum becomes a derived row, backed by the dual
    certificate the LP engine has checked; it tightens the unit's interval
    and retires the looser derived row it supersedes, if any.
    Short-circuits with a Farkas certificate if a solve reports
    infeasibility; raises `Exhausted` if the LP budget is spent.  The
    unit's affine row bounds its pre-activation through its bounded
    sources, so every feasible LP here has an optimum.

    Each LP after the first starts from the optimal tableau of the one
    before: the system changes in between only by the derived row just
    added and the looser derived row it may retire (see `lp`)."""
    res = TgctResult()
    tab = None
    for unit in units:
        s = store.layout.pre_index(unit)
        for upper in (True, False):
            # the lower bound l is the upper bound -l of -s
            g = {s: _ONE if upper else -_ONE}
            budget.count_lp()
            out = lp.lp_max(store.normalize(), g, warm=tab)
            tab = out.tableau
            if out.status == lp.INFEASIBLE:
                res.farkas = FarkasCertificate.make(out.dual)
                return res
            lo, hi = store.bounds.pre[unit]
            if out.value >= (hi if upper else -lo):
                continue
            cid = store.add(("derived", DualBoundCertificate.make(g, out.value, out.dual)),
                            [bound_form(s, 1 if upper else -1, out.value)])
            if upper:
                store.bounds.tighten(unit, hi=out.value)
            else:
                store.bounds.tighten(unit, lo=-out.value)
            old = store.bound_rows.get((unit, upper))
            if old is not None:
                store.retire(old)  # superseded; stays resolvable for proof export
            store.bound_rows[unit, upper] = cid
            res.rows_added += 1
    return res


def _checked_farkas(store: Store, lam: dict) -> FarkasCertificate:
    """`lam` as a Farkas certificate that `check_farkas` accepts over the
    rows it cites; else the solver fault `lp.SelfCheckFailed`."""
    cert = FarkasCertificate.make(lam)
    res = certmod.check_farkas(store.cited_rows(lam), cert)
    if not res.ok:
        raise lp.SelfCheckFailed(f"Farkas certificate rejected: {res.reason}")
    return cert


def _feasibility_lp(store: Store, budget: Budget,
                    result: PropagationResult) -> FarkasCertificate | None:
    """Phase 1 over the active rows: a Farkas certificate, or None with the
    point recorded."""
    budget.count_lp()
    feas = lp.lp_feasible(store.normalize())
    if feas.status == lp.INFEASIBLE:
        return FarkasCertificate.make(feas.dual)
    result.feasible_point = feas.primal
    return None


def _margin_lp(store: Store, budget: Budget,
               result: PropagationResult) -> FarkasCertificate | None:
    """Maximize the margin over the active rows but the negated property.
    INFEASIBLE refutes the node and proves no bound; an optimum beta is the
    node's margin bound, and refutes it when beta < threshold + epsilon,
    by the dual plus the negated-property row; a larger optimum is a point
    of every row, the negated property included.  Every variable of the
    LP's rows is bounded, layer by layer: an input by its region rows, a
    post-activation by its phase equality or hull rows 0 and 3, and a
    pre-activation or identity output by its affine row over its sources
    (`lp`), so the margin has a maximum whenever the rows are feasible."""
    budget.count_lp()
    g = store.layout.margin
    out = lp.lp_max(store.without_negp(), g)
    if out.status == lp.INFEASIBLE:
        return FarkasCertificate.make(out.dual)
    result.evidence = DualBoundCertificate.make(g, out.value, out.dual)
    if out.value < store.prop.violation_threshold:
        return _checked_farkas(store, {**out.dual, ("c", store.negp_id, "le"): _ONE})
    result.feasible_point = out.primal
    return None


def propagate_node(store: Store, budget: Budget, templates: str = "default",
                   margin: bool = False) -> PropagationResult:
    """Fixed-point loop Hull -> back-substitution -> TGCT -> Stabilize ->
    closing LP.  `templates` "default" runs `back_substitution` once per
    pass and tightens the unstable units whose hull chord that sum uses, at
    a positive multiplier (`Substitution.chord`; a unit without hull rows
    would be tightened too); "margin-only" tightens none.  The sum prunes
    the pass before its first LP if it refutes the node
    (`Substitution.refutation`).  The closing LP is the feasibility LP or,
    with `margin` (a node whose leaf records the margin bound of its rows
    without the negated property), the margin LP over those rows, which
    both decides the node and proves the bound (`_margin_lp`).  A pass
    whose closing LP would see the rows of the last closing LP ends the
    loop before it, and that LP's point and bound stand.  A node with
    `margin` that back-substitution or a TGCT LP refutes first makes that
    LP for the bound alone and keeps its refutation; a spent budget makes
    no LP, and the leaf then carries no bound.  Either way `evidence` is
    the bound of the final rows.  Prune carries an accepted Farkas
    certificate, an open node a point of all its rows.  Raises `Exhausted`
    as `tgct` does."""
    result = PropagationResult("open")
    closed = None  # the ids of the rows of the last closing LP
    for _ in range(MAX_PASSES):
        result.iterations += 1
        before = (frozenset(store.unstable), frozenset(store.phases))
        settled = ensure_relaxation(store)
        result.stability_certs.extend(settled)
        budget.stabilized += len(settled)
        units = sorted(store.unstable) if templates == "default" else []
        # the margin LP is made for the bound even where back-substitution
        # refutes the node, so there a refutation saves only TGCT's LPs
        sub = back_substitution(store) if units or not margin else None
        farkas = None if sub is None else sub.refutation(store)
        if farkas is None:
            if sub is not None:
                units = [u for u in units if (m := sub.chord(store, u)) is None or m > 0]
            tres = tgct(store, units, budget)
            farkas = tres.farkas
        if farkas is None:
            settled = stabilize(store)
            result.stability_certs.extend(settled)
            budget.stabilized += len(settled)
            rows = [cid for cid, _ in store.active_constraints()]
            if rows == closed:
                break
            closed = rows
        result.evidence = None
        if farkas is None:
            farkas = (_margin_lp if margin else _feasibility_lp)(store, budget, result)
        elif margin and budget.lp_ok():
            _margin_lp(store, budget, result)
        if farkas is not None:
            result.status = "prune"
            result.farkas = farkas
            return result
        # fixed point: with no new row and no new stabilization the next
        # pass would solve the same rows again; and a second pass that
        # leaves the unstable and stabilized units as they were ends too
        after = (frozenset(store.unstable), frozenset(store.phases))
        if not (tres.rows_added or settled) or after == before and result.iterations > 1:
            break
    return result
