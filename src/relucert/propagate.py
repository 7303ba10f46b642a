"""Certificate-driven node propagation.

One fixed-point pass interleaves: bound-row installation (interval arithmetic
exported as dual certificates), hull insertion for unstable units, LP
tightening of their pre-activations with dual certificates, stabilization of
units whose bound rows fix their sign, and a feasibility check that prunes
with a Farkas certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import certs as certmod
from . import lp
from .budget import Budget, Exhausted
from .certs import DualBoundCertificate, FarkasCertificate, StabilityCertificate
from .model import ACTIVE, INACTIVE, RELU, Unit
from .store import LE, REL, GuardLiteral, LinearConstraint, Store, guard_consequences

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
    stability_certs: list[StabilityCertificate] = field(default_factory=list)
    iterations: int = 0
    feasible_point: dict[int, Fraction] | None = None
    tgct_rows_per_call: list[int] = field(default_factory=list)


class BoundRowRejected(Exception):
    """An interval-arithmetic bound row failed its own dual certificate."""


def _check_bound_row(store: Store, cert: DualBoundCertificate):
    """Check against the active rows the certificate cites, all that
    `check_dual` reads; a retired or absent row is an unknown row."""
    res = certmod.check_dual(store.cited_rows(rid for rid, _ in cert.multipliers), cert)
    if not res.ok:
        raise BoundRowRejected(f"bound-row certificate rejected: {res.reason}")


def _add_derived_row(store: Store, g: dict[int, Fraction], bound: Fraction,
                     cert: DualBoundCertificate) -> int:
    return store.add(LinearConstraint(dict(g), LE, bound, REL, ("derived", cert)))


def _specialize(store: Store, unit: Unit, phase: str) -> StabilityCertificate:
    """Replace the unit's relaxation by its exact linear specialization: the
    rows a guard on the phase would add.  The unit's bound rows, all of
    smaller id, are what prove the sign."""
    for cid in store.hull_ids.pop(unit, []):
        store.retire(cid)
    store.hull_bounds.pop(unit, None)
    eq, le = (store.add(LinearConstraint(c.row, c.relation, c.rhs, REL,
                                         ("stabilize", unit, phase, k)))
              for k, c in enumerate(guard_consequences(store.layout, GuardLiteral(unit, phase))))
    store.stabilized[unit] = phase
    store.unstable.discard(unit)
    _set_specialized_post_refs(store, unit, phase, eq, le)
    return StabilityCertificate(unit, phase)


def _set_specialized_post_refs(store: Store, unit: Unit, phase: str, eq_cid: int, le_cid: int):
    lo, hi = store.bounds.pre[unit]
    if phase == ACTIVE:
        up_cid, lo_bound_cid = store.bound_rows[unit]
        upper = ([(("c", eq_cid, "le"), _ONE), (("c", up_cid, "le"), _ONE)], hi)
        if lo >= 0:
            lower = ([(("c", eq_cid, "ge"), _ONE), (("c", lo_bound_cid, "le"), _ONE)], lo)
        else:
            lower = ([(("c", eq_cid, "ge"), _ONE), (("c", le_cid, "le"), _ONE)], _ZERO)
    else:
        upper = ([(("c", eq_cid, "le"), _ONE)], _ZERO)
        lower = ([(("c", eq_cid, "ge"), _ONE)], _ZERO)
    store.post_refs[unit] = {"upper": upper, "lower": lower}


def hull_insert(store: Store, unit: Unit) -> list[int]:
    """Insert (or replace) the four-row convex envelope for an unstable unit."""
    lo, hi = store.bounds.pre[unit]
    if not (lo < 0 < hi):
        raise NotUnstable(f"{unit} has bounds [{lo}, {hi}]")
    for cid in store.hull_ids.pop(unit, []):
        store.retire(cid)
    s = store.layout.pre_index(unit)
    z = store.layout.post_index(unit)
    slope = hi / (hi - lo)
    rows = [
        ({z: -_ONE}, _ZERO),
        ({s: _ONE, z: -_ONE}, _ZERO),
        ({z: _ONE, s: -slope}, -slope * lo),
        ({z: _ONE}, hi),
    ]
    ids = [store.add(LinearConstraint(row, LE, rhs, REL, ("hull", unit, k)))
           for k, (row, rhs) in enumerate(rows)]
    store.hull_ids[unit] = ids
    store.hull_bounds[unit] = (lo, hi)
    store.post_refs[unit] = {
        "upper": ([(("c", ids[3], "le"), _ONE)], hi),
        "lower": ([(("c", ids[0], "le"), _ONE)], _ZERO),
    }
    return ids


def _install_bound_rows(store: Store, unit: Unit) -> None:
    """Interval-arithmetic bounds for one pre-activation, exported as two
    derived rows whose dual certificates combine the defining equality with
    the previous layer's bound rows."""
    i, j = unit
    layer = store.net.layers[i - 1]
    wrow = layer.weights[j]
    b = layer.bias[j]
    aff = store.aff_ids[unit]
    s = store.layout.pre_index(unit)

    up_mult: dict = {("c", aff, "le"): _ONE}
    lo_mult: dict = {("c", aff, "ge"): _ONE}
    upper = b
    lower = b
    for k, w in enumerate(wrow):
        if w == 0:
            continue
        ref = store.post_refs[("input", k)] if i == 1 else store.post_refs[(i - 1, k)]
        hi_combo, hi_val = ref["upper"]
        lo_combo, lo_val = ref["lower"]
        if w > 0:
            upper += w * hi_val
            lower += w * lo_val
            for rid, c in hi_combo:
                up_mult[rid] = up_mult.get(rid, _ZERO) + w * c
            for rid, c in lo_combo:
                lo_mult[rid] = lo_mult.get(rid, _ZERO) + w * c
        else:
            upper += w * lo_val
            lower += w * hi_val
            for rid, c in lo_combo:
                up_mult[rid] = up_mult.get(rid, _ZERO) - w * c
            for rid, c in hi_combo:
                lo_mult[rid] = lo_mult.get(rid, _ZERO) - w * c

    cert_up = DualBoundCertificate.make({s: _ONE}, upper, up_mult)
    cert_lo = DualBoundCertificate.make({s: -_ONE}, -lower, lo_mult)
    _check_bound_row(store, cert_up)
    _check_bound_row(store, cert_lo)
    up_cid = _add_derived_row(store, {s: _ONE}, upper, cert_up)
    lo_cid = _add_derived_row(store, {s: -_ONE}, -lower, cert_lo)
    store.bound_rows[unit] = (up_cid, lo_cid)
    # authoritative row-backed bounds; equals the interval seed on feasible nodes
    store.bounds.pre[unit] = (lower, upper)


def ensure_relaxation(store: Store, budget: Budget | None = None) -> list[StabilityCertificate]:
    """Layer-order sweep installing bound rows and relaxation rows.

    On later passes only refreshes hull rows whose bounds were tightened.
    """
    stab: list[StabilityCertificate] = []
    for i, layer in enumerate(store.net.layers, start=1):
        if layer.activation != RELU:
            continue
        for j in range(len(layer.weights)):
            unit = (i, j)
            if unit not in store.bound_rows:
                _install_bound_rows(store, unit)
            lo, hi = store.bounds.pre[unit]
            if unit in store.alpha:
                phase = store.alpha[unit]
                if unit not in store.post_refs:
                    eq_cid, le_cid = store.guard_ids[(unit, phase)]
                    _set_specialized_post_refs(store, unit, phase, eq_cid, le_cid)
                continue
            if unit in store.stabilized:
                continue
            cert = _stabilize_settled(store, unit, budget)
            if cert is not None:
                stab.append(cert)
            elif store.hull_bounds.get(unit) != (lo, hi):
                hull_insert(store, unit)
                store.unstable.add(unit)
    return stab


def _stabilize_settled(store: Store, unit: Unit,
                       budget: Budget | None) -> StabilityCertificate | None:
    """Specialize the unit if its certified bounds fix its sign (lo >= 0:
    active, hi <= 0: inactive), the test the checker applies to its rows."""
    lo, hi = store.bounds.pre[unit]
    if lo >= 0:
        phase = ACTIVE
    elif hi <= 0:
        phase = INACTIVE
    else:
        return None
    if budget is not None:
        budget.stabilized += 1
    return _specialize(store, unit, phase)


def stabilize(store: Store, budget: Budget | None = None) -> list[StabilityCertificate]:
    """Specialize every unit whose certified bounds pin its sign."""
    out = []
    for unit in sorted(store.unstable):
        cert = _stabilize_settled(store, unit, budget)
        if cert is not None:
            out.append(cert)
    return out


def tgct(store: Store, units: Iterable[Unit], budget: Budget) -> TgctResult:
    """Template-guided certified tightening: maximize, then minimize, each
    unit's pre-activation over the store's rows.  A strictly tighter optimum
    becomes a derived row, backed by the dual certificate the LP engine has
    checked; it tightens the unit's interval and retires the bound row it
    supersedes.  Short-circuits with a Farkas certificate if a solve reports
    infeasibility; raises `Exhausted` if the LP budget is spent or an LP hits
    its iteration limit.

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
            if out.status == lp.UNBOUNDED or out.value >= (hi if upper else -lo):
                continue
            cid = _add_derived_row(store, g, out.value,
                                   DualBoundCertificate.make(g, out.value, out.dual))
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


def propagate_node(store: Store, budget: Budget, templates: str = "default") -> PropagationResult:
    """Fixed-point loop Hull -> TGCT -> Stabilize -> feasibility check.
    `templates` "default" tightens every unstable unit in every pass;
    "margin-only" tightens none, so a pass's one LP is its feasibility LP.
    Prune carries an accepted Farkas certificate.  Raises `Exhausted` as
    `tgct` does."""
    result = PropagationResult("open")
    for _ in range(MAX_PASSES):
        result.iterations += 1
        # bounds-only improvements do not force another pass; stabilization
        # or a new unstable unit does
        before = (frozenset(store.unstable), frozenset(store.stabilized))
        result.stability_certs.extend(ensure_relaxation(store, budget))
        tres = tgct(store, sorted(store.unstable) if templates == "default" else (), budget)
        result.tgct_rows_per_call.append(tres.rows_added)
        if tres.farkas is not None:
            result.status = "prune"
            result.farkas = tres.farkas
            return result
        result.stability_certs.extend(stabilize(store, budget))
        budget.count_lp()
        sys = store.normalize()
        feas = lp.lp_feasible(sys)
        if feas.status == lp.INFEASIBLE:
            result.status = "prune"
            result.farkas = FarkasCertificate.make(feas.dual)
            return result
        if feas.status == lp.LIMIT:
            raise Exhausted()
        result.feasible_point = feas.primal
        # the first pass installs the relaxation; a second confirms the fixed point
        after = (frozenset(store.unstable), frozenset(store.stabilized))
        if after == before and result.iterations > 1:
            break
    return result
