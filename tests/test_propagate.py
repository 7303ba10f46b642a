import random
from fractions import Fraction as F

import pytest

from conftest import layout_of, random_instance, rational_row, worked_network, worked_prop, worked_region
from relucert import certs, lp, propagate
from relucert.budget import Budget, Exhausted
from relucert.model import ACTIVE, INACTIVE, build_layout, forward_eval, trace_vector
from relucert.propagate import (
    NotUnstable,
    back_substitute,
    ensure_relaxation,
    hull_insert,
    propagate_node,
    stabilize,
    tgct,
)
from relucert.rows import GuardLiteral, guard_rows
from relucert.store import NEGP, REGION, build_initial_store, interval_bounds


def _store(threshold="1", alpha=None, region=None):
    net = worked_network()
    prop = worked_prop(threshold)
    return build_initial_store(net, layout_of(net, prop), region or worked_region(),
                               prop, alpha or {})


def _random_store(rng):
    net, region, prop = random_instance(rng)
    return build_initial_store(net, build_layout(net, prop), region, prop, {})


def _certificates_since(store, start):
    """The dual certificates of the derived rows added after the store's
    first `start` rows."""
    return [store.constraints[cid].derivation[1] for cid in list(store.constraints)[start:]
            if store.constraints[cid].derivation[0] == "derived"]


def _bound_rows(store, unit):
    """The unit's (upper, lower) bound rows, each its one side."""
    return tuple(store.constraints[cid].sides[0] for cid in store.bound_rows[unit])


def _holds(r, point):
    """The normalized row holds at the point."""
    _, coeffs, b = r.ints
    return sum((a * point.get(j, F(0)) for j, a in coeffs.items()), F(0)) <= b


class TestHullInsertion:
    def test_rejects_units_with_settled_sign(self):
        store = _store()
        ensure_relaxation(store)
        store.bounds.pre[(1, 0)] = (F(0), F(1))
        with pytest.raises(NotUnstable):
            hull_insert(store, (1, 0))

    def test_four_rows_installed(self):
        store = _store()
        ensure_relaxation(store)
        assert len(store.hull_ids[(1, 0)]) == 4
        assert store.hull_bounds[(1, 0)] == (F(-1), F(1))

    def test_reinsertion_retires_the_stale_envelope(self):
        store = _store()
        ensure_relaxation(store)
        old = list(store.hull_ids[(1, 0)])
        store.bounds.pre[(1, 0)] = (F(-1, 2), F(1, 2))
        new = hull_insert(store, (1, 0))
        assert set(old).isdisjoint(new)
        assert all(cid in store.retired for cid in old)

    def test_envelope_contains_the_exact_relu_graph(self):
        store = _store()
        ensure_relaxation(store)
        net, layout = store.net, store.layout
        for t in range(9):
            x = F(t, 8)
            point = trace_vector(net, layout, (x,))
            for unit in ((1, 0), (1, 1)):
                for cid in store.hull_ids[unit]:
                    assert all(_holds(r, point) for r in store.constraints[cid].sides)


class TestBoundRows:
    """A unit's bound rows are two interval rows, tagged with the unit and
    side and carrying no certificate: `s <= hi` and `-s <= -lo`."""

    def test_bound_rows_are_tagged_interval_rows(self):
        store = _store()
        ensure_relaxation(store)
        for unit, (lo, hi) in (((1, 0), (F(-1), F(1))), ((1, 1), (F(-1, 2), F(1, 2)))):
            s = store.layout.pre_index(unit)
            up_cid, lo_cid = store.bound_rows[unit]
            up, low = store.constraints[up_cid], store.constraints[lo_cid]
            assert ([rational_row(r) for r in up.sides], up.derivation) == (
                [({s: 1}, hi)], ("interval", unit, "up"))
            assert ([rational_row(r) for r in low.sides], low.derivation) == (
                [({s: -1}, -lo)], ("interval", unit, "lo"))

    def test_bound_rows_match_interval_arithmetic(self):
        store = _store()
        ensure_relaxation(store)
        assert store.bounds.pre[(1, 0)] == (F(-1), F(1))
        assert store.bounds.pre[(1, 1)] == (F(-1, 2), F(1, 2))

    def test_random_bound_rows_equal_interval_arithmetic_and_hold_on_traces(self):
        # with no phase committed each unit's rows bound it by the interval
        # seed of the store, and every true trace of the box satisfies them
        rng = random.Random(5)
        for _ in range(10):
            store = _random_store(rng)
            ensure_relaxation(store)
            seed = interval_bounds(store.net, store.region, {})
            region = store.region
            points = [trace_vector(store.net, store.layout, tuple(
                lo + (hi - lo) * F(t, 4) for lo, hi in zip(region.lower, region.upper)))
                for t in range(5)]
            for unit in store.bound_rows:
                up, low = _bound_rows(store, unit)
                assert (-low.rhs, up.rhs) == seed[unit] == store.bounds.pre[unit]
                for point in points:
                    assert _holds(up, point) and _holds(low, point)


class TestStabilization:
    def test_half_domain_pins_both_units(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        stab = ensure_relaxation(store)
        assert dict(stab) == {(1, 0): ACTIVE, (1, 1): INACTIVE}
        assert not store.unstable
        # the bound row on the pinned side proves the sign
        for unit, phase in stab:
            up, lo = _bound_rows(store, unit)
            assert (lo if phase == ACTIVE else up).rhs <= 0

    def test_specialization_replaces_the_hull(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        ensure_relaxation(store)
        assert (1, 0) not in store.hull_ids
        assert store.phases == {(1, 0): ACTIVE, (1, 1): INACTIVE}

    def test_stabilize_uses_tightened_bounds(self):
        store = _store()
        ensure_relaxation(store)
        # certified tightening settles the sign of unit (1,1)
        store.bounds.tighten((1, 1), hi=F(0))
        out = stabilize(store)
        assert out == [((1, 1), INACTIVE)]
        assert (1, 1) not in store.unstable

    def test_each_stabilized_unit_adds_one_row_its_active_bound_row_implies(self, monkeypatch):
        # the phase equality alone: the guard's sign row would repeat what
        # the unit's active bound row already proves
        specialize = propagate._specialize

        def one_row(store, unit, phase):
            n = len(store.constraints)
            out = specialize(store, unit, phase)
            assert len(store.constraints) == n + 1
            return out

        monkeypatch.setattr(propagate, "_specialize", one_row)
        stabilized = 0
        rng = random.Random(17)
        for _ in range(40):
            store = _random_store(rng)
            propagate_node(store, Budget())
            rows = {cid: c for cid, c in store.constraints.items()
                    if c.derivation[0] == "stabilize"}
            assert sorted(c.derivation[1] for c in rows.values()) == sorted(store.phases)
            for cid, c in rows.items():
                _, unit, phase = c.derivation
                eq = guard_rows(store.layout, GuardLiteral(unit, phase))[0]
                assert [r.ints for r in c.sides] == eq
                assert store.phase_ids[unit] == cid
                up_cid, lo_cid = store.bound_rows[unit]
                sign_cid = lo_cid if phase == ACTIVE else up_cid
                assert sign_cid < cid and sign_cid not in store.retired
                assert store.constraints[sign_cid].sides[0].rhs <= 0
            stabilized += len(rows)
        assert stabilized >= 10


class TestTgct:
    def test_tighter_bounds_recorded_with_certificates(self):
        store = _store("1/2")  # satisfiable variant: tightening proceeds
        ensure_relaxation(store)
        budget = Budget()
        start = len(store.constraints)
        res = tgct(store, sorted(store.unstable), budget)
        assert res.farkas is None
        added = _certificates_since(store, start)
        assert res.rows_added == len(added) > 0
        sys = store.normalize()
        for cert in added:
            assert certs.check_dual(sys, cert).ok

    def test_row_budget_per_call(self):
        store = _store("1/2")
        ensure_relaxation(store)
        units = sorted(store.unstable)
        res = tgct(store, units, Budget())
        assert res.rows_added <= 2 * len(units)

    def test_saturation_second_call_adds_nothing(self):
        store = _store("1/2")
        ensure_relaxation(store)
        units = sorted(store.unstable)
        tgct(store, units, Budget())
        start = len(store.constraints)
        again = tgct(store, units, Budget())
        assert again.rows_added == 0 and _certificates_since(store, start) == []

    def test_superseded_rows_are_retired_not_duplicated(self):
        store = _store("1/2")
        ensure_relaxation(store)
        before = {cid for cid, _ in store.active_constraints()}
        res = tgct(store, sorted(store.unstable), Budget())
        active = {cid for cid, _ in store.active_constraints()}
        # net growth is bounded by rows added minus retirements
        assert len(active) <= len(before) + res.rows_added

    def test_retires_only_superseded_bound_rows(self):
        store = _store("1/2")
        ensure_relaxation(store)
        negp = next(cid for cid, c in store.active_constraints() if c.block == NEGP)
        # x >= 15/16 lifts the margin's minimum above the threshold
        x = store.layout.input_index(0)
        store.add(("region", 0, "lo"), REGION, [(16, {x: -16}, -15)])
        for _ in range(2):
            rows = dict(store.bound_rows)
            bounds = dict(store.bounds.pre)
            retired = set(store.retired)
            tgct(store, sorted(store.unstable), Budget())
            assert negp not in store.retired
            for cid in store.retired - retired:
                unit, side = next((u, k) for u, pair in rows.items()
                                  for k, c in enumerate(pair) if c == cid)
                new = store.bound_rows[unit][side]
                assert new != cid and store.constraints[new].derivation[0] == "derived"
                # the replacement bounds the same side strictly tighter
                lo, hi = store.bounds.pre[unit]
                assert hi < bounds[unit][1] if side == 0 else lo > bounds[unit][0]
        assert store.retired

    def test_budget_exhaustion_reported(self):
        store = _store("1/2")
        ensure_relaxation(store)
        budget = Budget(lp_limit=1)
        with pytest.raises(Exhausted):
            tgct(store, sorted(store.unstable), budget)
        assert budget.lp_calls == 1


class TestFixedPoint:
    def test_worked_instance_prunes_with_checked_farkas(self):
        store = _store()
        res = propagate_node(store, Budget())
        assert res.status == "prune"
        assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_back_substitution_refutes_the_worked_store_with_no_lp(self):
        # y = z1 - z2 <= (s1 + 1)/2 - 0 = x <= 1 < 11/10, through the chord
        # of (1,0), z2 >= 0 and the affine and region rows: the query is
        # refuted before any LP, under either template setting
        for templates in ("default", "margin-only"):
            store = _store()
            budget = Budget()
            res = propagate_node(store, budget, templates=templates)
            assert res.status == "prune" and budget.lp_calls == 0
            cited = {(store.constraints[cid].derivation, side): m
                     for (_, cid, side), m in res.farkas.multipliers}
            assert cited == {(("negp",), "le"): 1, (("aff", 2, 0), "le"): 1,
                             (("hull", (1, 0), 2), "le"): 1, (("hull", (1, 1), 0), "le"): 1,
                             (("aff", 1, 0), "le"): F(1, 2), (("region", 0, "hi"), "le"): 1}
            assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_each_pass_pays_two_lps_per_templated_unit_and_one_feasibility_lp(self, monkeypatch):
        # default templates every unit unstable when the pass's TGCT starts,
        # margin-only none
        real = propagate.tgct
        for templates in ("default", "margin-only"):
            stores = [_store("1/2")] + [_random_store(random.Random(k)) for k in range(12)]
            opened = unstable = 0
            for store in stores:
                budget = Budget()
                passes = []

                def spy(store, units, budget):
                    passes.append((len(store.unstable), budget.lp_calls))
                    return real(store, units, budget)

                monkeypatch.setattr(propagate, "tgct", spy)
                res = propagate_node(store, budget, templates=templates)
                if res.status != "open":
                    continue
                opened += 1
                unstable += sum(units for units, _ in passes)
                ends = [lps for _, lps in passes[1:]] + [budget.lp_calls]
                paid = [end - start for (_, start), end in zip(passes, ends)]
                if templates == "default":
                    assert paid == [2 * units + 1 for units, _ in passes]
                else:
                    assert paid == [1] * len(passes)
            assert opened >= 3 and unstable > 0

    def test_sat_variant_stays_open_with_feasible_point(self):
        store = _store("1/2")
        res = propagate_node(store, Budget())
        assert res.status == "open"
        assert res.feasible_point is not None
        assert res.iterations >= 2  # reached the fixed point, not the pass cap

    def test_every_iteration_respects_the_row_budget(self, monkeypatch):
        # each pass's TGCT adds at most one row per side of a unit it tightens
        real = propagate.tgct
        calls = []

        def spy(store, units, budget):
            units = list(units)
            res = real(store, units, budget)
            calls.append((len(units), res.rows_added))
            return res

        monkeypatch.setattr(propagate, "tgct", spy)
        propagate_node(_store("1/2"), Budget())
        assert calls and all(added <= 2 * units for units, added in calls), calls
        assert any(added for _, added in calls)

    def test_margin_bound_made_after_an_early_refutation(self, monkeypatch):
        # back-substitution refutes the worked store with no LP; with
        # `margin` the node then makes the margin LP for its bound alone,
        # and keeps the refutation, unless the budget is spent, and then it
        # has no bound
        calls = []
        real = propagate._margin_lp

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(propagate, "_margin_lp", spy)
        fresh = _store()
        ensure_relaxation(fresh)
        refutation = back_substitute(fresh)
        store = _store()
        budget = Budget()
        res = propagate_node(store, budget, margin=True)
        assert res.status == "prune" and budget.lp_calls == 1 and len(calls) == 1
        assert res.farkas == refutation
        assert certs.check_dual(store.without_negp(), res.evidence).ok
        spent = Budget(lp_limit=0)
        res = propagate_node(_store(), spent, margin=True)
        assert res.status == "prune" and spent.lp_calls == 0 and res.evidence is None
        assert len(calls) == 1

    def test_open_nodes_keep_a_sound_relaxation(self):
        """The fixed-point store must still admit every true network trace."""
        rng = random.Random(9)
        checked = 0
        for _ in range(8):
            store = _random_store(rng)
            res = propagate_node(store, Budget())
            if res.status != "open":
                continue
            net, layout, region = store.net, store.layout, store.region
            x = tuple((lo + hi) / 2 for lo, hi in zip(region.lower, region.upper))
            margin = store.prop.margin_value(forward_eval(net, x).outputs)
            if margin < store.prop.violation_threshold:
                continue  # the negated-property row rightly excludes this trace
            point = trace_vector(net, layout, x)
            assert all(_holds(r, point) for r in store.normalize().rows)
            checked += 1
        # without tightening LPs the sat variant stays open too
        store = _store("1/2")
        res = propagate_node(store, Budget(), templates="margin-only")
        assert res.status == "open"


class TestBackSubstitution:
    """`back_substitute` sums the negated property with one row per
    variable; a certificate it returns refutes the store's rows."""

    def _stores(self):
        """The worked store, then random stores: with their relaxation
        installed, with a random phase committed for some units, and after
        a propagation that left them open (tightened hulls)."""
        store = _store()
        ensure_relaxation(store)
        yield store
        rng = random.Random(3)
        for k in range(60):
            net, region, prop = random_instance(rng)
            layout = build_layout(net, prop)
            alpha = {}
            if k % 3 == 1:
                alpha = {u: rng.choice((ACTIVE, INACTIVE)) for u in net.hidden_units
                         if rng.random() < 0.4}
            store = build_initial_store(net, layout, region, prop, alpha)
            if k % 3 == 2 and propagate_node(store, Budget()).status == "prune":
                continue
            ensure_relaxation(store)
            yield store

    def test_certificates_refute_the_rows_and_need_the_negated_property(self):
        # and of the stores an LP finds infeasible, most are refuted here
        refuted = lp_only = feasible = 0
        for store in self._stores():
            cert = back_substitute(store)
            sys = store.normalize()
            infeasible = lp.lp_feasible(sys).status == lp.INFEASIBLE
            if cert is None:
                lp_only += infeasible
                feasible += not infeasible
                continue
            assert certs.check_farkas(sys, cert).ok and infeasible
            negp = ("c", store.negp_id, "le")
            assert dict(cert.multipliers)[negp] == 1
            rest = certs.FarkasCertificate.make({rid: m for rid, m in cert.multipliers
                                                 if rid != negp})
            assert not certs.check_farkas(sys, rest).ok
            refuted += 1
        assert refuted >= 10 and feasible >= 10 and refuted > lp_only

    def test_a_corrupted_refutation_is_a_solver_fault(self):
        # each multiplier of the worked refutation moved by 1/10**40 leaves
        # lambda^T A nonzero, and `_checked_farkas` raises the LP engine's
        # fault, as the engine does for its own certificates
        store = _store()
        ensure_relaxation(store)
        cert = back_substitute(store)
        lam = dict(cert.multipliers)
        assert propagate._checked_farkas(store, lam) == cert
        for rid in lam:
            moved = {**lam, rid: lam[rid] + F(1, 10**40)}
            with pytest.raises(lp.SelfCheckFailed, match="Farkas certificate rejected"):
                propagate._checked_farkas(store, moved)


def _reference_back_substitution(store):
    """DeepPoly's back-substitution, as `back_substitute` makes it, summed
    here in `Fraction`s: the multipliers of the rows that cancel each
    variable from the highest index down, and whether the sum refutes the
    rows (0 <= rho with rho < 0)."""
    layout = store.layout

    def rational(rid):
        return rational_row(store.constraints[rid[1]].sides[0 if rid[2] == "le" else 1])

    def equality_side(cid, j, a):
        row, _ = rational(("c", cid, "le"))
        return ("c", cid, "le" if a * row[j] < 0 else "ge")

    pre = {layout.pre_index(u): u for u in store.aff_ids}
    post = {layout.post_index(u): u for u in store.aff_ids
            if layout.post_index(u) != layout.pre_index(u)}
    negp = ("c", store.negp_id, "le")
    coef, rho = rational(negp)
    lam = {negp: F(1)}
    while coef:
        j = max(coef)
        a = coef[j]
        if j in post and post[j] in store.phase_ids:
            rid = equality_side(store.phase_ids[post[j]], j, a)
        elif j in post:
            lo, hi = store.hull_bounds[post[j]]
            k = 2 if a < 0 else 1 if hi > -lo else 0
            rid = ("c", store.hull_ids[post[j]][k], "le")
        elif j in pre:
            rid = equality_side(store.aff_ids[pre[j]], j, a)
        else:
            k = next(k for k in range(store.net.input_dim) if layout.input_index(k) == j)
            rid = ("c", store.region_ids[k][0 if a < 0 else 1], "le")
        row, b = rational(rid)
        m = -a / row[j]
        assert m > 0 and rid not in lam
        lam[rid] = m
        for i, v in row.items():
            coef[i] = coef.get(i, F(0)) + m * v
            if not coef[i]:
                del coef[i]
        rho += m * b
    return lam, rho < 0


class TestBackSubstitutionReference:
    """`back_substitute` sums integer rows over one common denominator;
    the plain `Fraction` sum above must give the same answer, refuted or
    not, and where it refutes the same multipliers.  On every root store of
    the acceptance suite with its relaxation installed, on every store that
    propagation hands to `back_substitute` while the suite runs under both
    drivers, and on every node of the branching instances 42, 57 and 89
    (margin-only templates, a one-LP gate; below the root their
    propagation makes no back-substitution) as propagation leaves it."""

    def test_integer_sum_equals_the_fraction_reference(self, monkeypatch):
        from test_acceptance import _spec_suite
        from test_search import TestBranchingOracleAgreement, tightened

        from relucert import search

        seen = {"refuted": 0, "kept": 0, "below the root": 0}

        def compare(store):
            lam, refutes = _reference_back_substitution(store)
            cert = back_substitute(store)
            assert (cert is not None) == refutes
            if refutes:
                assert dict(cert.multipliers) == lam
            seen["refuted" if refutes else "kept"] += 1
            return cert

        def spied_back_substitute(store):
            return compare(store)

        real_propagate = search.propagate_node

        def spied_propagate(store, *args, **kwargs):
            res = real_propagate(store, *args, **kwargs)
            compare(store)
            seen["below the root"] += any(c.derivation[0] == "guard"
                                          for c in store.constraints.values())
            return res

        suite = _spec_suite(100)
        for net, region, prop in suite:
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            ensure_relaxation(store)
            compare(store)
        monkeypatch.setattr(propagate, "back_substitute", spied_back_substitute)
        for problem in suite:
            for driver in (search.icl_verify, search.hsrv_verify):
                driver(*problem)
        monkeypatch.setattr(search, "propagate_node", spied_propagate)
        for idx in (42, 57, 89):
            for driver in (search.icl_verify, search.hsrv_verify):
                res = driver(*tightened(idx), TestBranchingOracleAgreement.CONFIG)
                assert res.status == "unsat" and res.budget.splits
        assert seen["refuted"] >= 50 and seen["kept"] >= 50, seen
        assert seen["below the root"] >= 20, seen
