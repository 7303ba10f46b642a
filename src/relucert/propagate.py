"""Certificate-driven node propagation.

One fixed-point pass interleaves: bound-row installation (interval
arithmetic, as rows the checker rebuilds from their tag), hull insertion
for unstable units, a back-substitution of the negated property through
those rows that prunes with a Farkas certificate and no LP, LP tightening
of the unstable units' pre-activations with dual certificates (the only
derived rows), stabilization of units whose bound rows fix their sign
(the unit's phase equality replaces its hull rows; the bound row stays and
states the sign), and one closing LP that prunes with a Farkas
certificate or leaves the node open at a point of its rows.  Below the
root the closing LP maximizes the margin without the negated property,
which also proves the margin bound the node's leaf records.  One function,
`_margin_lp`, makes every such bound LP: a node below the root that
back-substitution or a TGCT LP refutes first makes it for its bound alone.
The root therefore makes no LP when back-substitution refutes it; a node
below the root makes at least the one LP that proves its bound.

Every row is built straight into its integer form (`rows`): interval
bounds are summed in integers over one common denominator
(`store.affine_interval`), the hull chord over the common denominator of
its interval's ends.  Back-substitution sums integer rows over one common
denominator too, and makes a `Fraction` only for each multiplier it
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable

from . import certs as certmod
from . import lp
from .budget import Budget, Exhausted
from .certs import DualBoundCertificate, FarkasCertificate
from .model import ACTIVE, INACTIVE, RELU, Unit
from .rows import GuardLiteral, guard_rows, lowest_terms
from .store import REL, Store, affine_interval, bound_form

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
    guard's sign row is not written: the unit's active bound row, of
    smaller id, proves the sign and stays in the store."""
    for cid in store.hull_ids.pop(unit, []):
        store.retire(cid)
    store.hull_bounds.pop(unit, None)
    store.phase_ids[unit] = store.add(("stabilize", unit, phase), REL,
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
    ids = [store.add(("hull", unit, k), REL, [row]) for k, row in enumerate(rows)]
    store.hull_ids[unit] = ids
    store.hull_bounds[unit] = (lo, hi)
    return ids


def _install_bound_rows(store: Store, unit: Unit) -> None:
    """Interval arithmetic for one pre-activation over the intervals that
    the rows prove for its sources: an input's box rows; for z of the
    previous layer, [0, 0] when inactive, [max(0, lo), hi] of its s when
    active (z = s and s >= 0), else hull rows 0 and 3, [0, hi].  Written as
    two rows `("interval", unit, "up" | "lo")` that the checker rebuilds by
    the same sum."""
    i, _ = unit
    weights = store.shared.weights[unit]
    ends = []
    for k, w in enumerate(weights[1]):
        src = (i - 1, k)
        phase = store.phases.get(src)
        if w == 0 or phase == INACTIVE:
            ends.append((_ZERO, _ZERO))
        elif i == 1:
            ends.append((store.region.lower[k], store.region.upper[k]))
        elif phase == ACTIVE:
            lo, hi = store.bounds.pre[src]
            ends.append((max(_ZERO, lo), hi))
        else:
            ends.append((_ZERO, store.hull_bounds[src][1]))
    lower, upper = affine_interval(weights, ends)
    s = store.layout.pre_index(unit)
    store.bound_rows[unit] = (
        store.add(("interval", unit, "up"), REL, [bound_form(s, 1, upper)]),
        store.add(("interval", unit, "lo"), REL, [bound_form(s, -1, -lower)]))
    # authoritative row-backed bounds; equals the interval seed on feasible nodes
    store.bounds.pre[unit] = (lower, upper)


def ensure_relaxation(store: Store) -> list[tuple[Unit, str]]:
    """Layer-order sweep installing bound rows and relaxation rows.

    On later passes only refreshes hull rows whose bounds were tightened.
    """
    stab: list[tuple[Unit, str]] = []
    for i, layer in enumerate(store.net.layers, start=1):
        if layer.activation != RELU:
            continue
        for j in range(len(layer.weights)):
            unit = (i, j)
            if unit not in store.bound_rows:
                _install_bound_rows(store, unit)
            lo, hi = store.bounds.pre[unit]
            if unit in store.phases:
                continue
            settled = _stabilize_settled(store, unit)
            if settled is not None:
                stab.append(settled)
            elif store.hull_bounds.get(unit) != (lo, hi):
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


def back_substitute(store: Store) -> FarkasCertificate | None:
    """Refute the node without an LP, if its rows allow it this way.

    Start from the negated property `-margin <= -(threshold + epsilon)`, and
    cancel the highest-index variable left, again and again, with one row
    at a nonnegative multiplier; each row brings in only variables of lower
    index, so the sum ends on the inputs.  The rows: a side of the affine
    equality for a pre-activation, a side of the phase equality for the
    post-activation of a committed or stabilized unit; for an unstable
    unit's post-activation the hull chord (row 2) as its upper bound, and
    as its lower bound `z >= s` (row 1) when `hi > -lo`, else `z >= 0`
    (row 0); the region rows for an input.
    This is a DeepPoly back-substitution of the margin's upper bound.  If
    the sum reads `0 <= rho` with rho < 0, its multipliers are a Farkas
    certificate, checked over the rows they cite and returned; else None.
    The node's next LP would run phase 1 on these same rows and find them
    infeasible too, so pruning here moves no decision."""
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
            else:
                lo, hi = store.hull_bounds[unit]
                k = 2 if a < 0 else 1 if hi > -lo else 0
                add(rows[store.hull_ids[unit][k]].sides[0], j, a)
        elif j in pre:
            cancel_by_equality(store.aff_ids[pre[j]], j, a)
        else:
            hi_id, lo_id = store.region_ids[inputs[j]]
            add(rows[hi_id if a < 0 else lo_id].sides[0], j, a)
    return _checked_farkas(store, lam) if rho < 0 else None


def tgct(store: Store, units: Iterable[Unit], budget: Budget) -> TgctResult:
    """Template-guided certified tightening: maximize, then minimize, each
    unit's pre-activation over the store's rows.  A strictly tighter optimum
    becomes a derived row, backed by the dual certificate the LP engine has
    checked; it tightens the unit's interval and retires the bound row it
    supersedes.  Short-circuits with a Farkas certificate if a solve reports
    infeasibility; raises `Exhausted` if the LP budget is spent or an LP hits
    its iteration limit.  The unit's interval rows bound its pre-activation,
    so every feasible LP here has an optimum.

    Each LP after the first starts from the optimal tableau of the one
    before: the store changes in between only by the derived row just added
    and the looser row it retires (see `lp`)."""
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
            if out.status == lp.LIMIT:
                raise Exhausted()
            lo, hi = store.bounds.pre[unit]
            if out.value >= (hi if upper else -lo):
                continue
            cid = store.add(("derived", DualBoundCertificate.make(g, out.value, out.dual)), REL,
                            [bound_form(s, 1 if upper else -1, out.value)])
            up_cid, lo_cid = store.bound_rows[unit]
            if upper:
                store.bounds.tighten(unit, hi=out.value)
                store.retire(up_cid)  # superseded; stays resolvable for proof export
                store.bound_rows[unit] = (cid, lo_cid)
            else:
                store.bounds.tighten(unit, lo=-out.value)
                store.retire(lo_cid)
                store.bound_rows[unit] = (up_cid, cid)
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
    if feas.status == lp.LIMIT:
        raise Exhausted()
    result.feasible_point = feas.primal
    return None


def _margin_lp(store: Store, budget: Budget,
               result: PropagationResult) -> FarkasCertificate | None:
    """Maximize the margin over the active rows but the negated property.
    INFEASIBLE refutes the node and proves no bound; an optimum beta is the
    node's margin bound, and refutes it when beta < threshold + epsilon,
    by the dual plus the negated-property row; a larger optimum is a point
    of every row, the negated property included.  Every variable of a
    node's rows is bounded, by region, interval or derived rows, phase
    equalities, hull rows 0 and 3 or, for an identity output, its affine
    row, so the margin has a maximum whenever the rows are feasible."""
    budget.count_lp()
    g = store.layout.margin
    out = lp.lp_max(store.without_negp(), g)
    if out.status == lp.LIMIT:
        raise Exhausted()
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
    closing LP.  `templates` "default" tightens every unstable unit in
    every pass; "margin-only" tightens none.  `back_substitute` may prune a
    pass before its first LP.  The closing LP is the feasibility LP or,
    with `margin` (a node whose leaf records the margin bound of its rows
    without the negated property), the margin LP over those rows, which
    both decides the node and proves the bound (`_margin_lp`).  A node
    with `margin` that back-substitution or a TGCT LP refutes first makes
    that LP for the bound alone and keeps its refutation; a spent budget
    makes no LP, and the leaf then carries no bound.  Either way
    `evidence` is the bound of the final rows.  Prune carries an accepted
    Farkas certificate, an open node a point of all its rows.  Raises
    `Exhausted` as `tgct` does, and when a margin LP hits its iteration
    limit."""
    result = PropagationResult("open")
    for _ in range(MAX_PASSES):
        result.iterations += 1
        result.evidence = None
        before = (frozenset(store.unstable), frozenset(store.phases))
        settled = ensure_relaxation(store)
        result.stability_certs.extend(settled)
        budget.stabilized += len(settled)
        units = sorted(store.unstable) if templates == "default" else []
        # the margin LP is made for the bound even where back-substitution
        # refutes the node, so there a refutation saves only TGCT's LPs
        farkas = back_substitute(store) if units or not margin else None
        if farkas is None:
            tres = tgct(store, units, budget)
            farkas = tres.farkas
        if farkas is None:
            settled = stabilize(store)
            result.stability_certs.extend(settled)
            budget.stabilized += len(settled)
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
