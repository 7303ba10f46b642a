import random
from fractions import Fraction as F

import pytest

from conftest import layout_of, random_instance, worked_network, worked_prop, worked_region
from relucert import certs, lp
from relucert.budget import Budget
from relucert.model import ACTIVE, INACTIVE, build_layout, forward_eval, trace_vector
from relucert.propagate import (
    NotUnstable,
    Template,
    default_templates,
    ensure_relaxation,
    hull_insert,
    propagate_node,
    stabilize,
    tgct,
)
from relucert.store import build_initial_store


def _store(threshold="1", alpha=None, region=None):
    net = worked_network()
    prop = worked_prop(threshold)
    return build_initial_store(net, layout_of(net, prop), region or worked_region(),
                               prop, alpha or {})


def _random_store(rng):
    net, region, prop = random_instance(rng)
    return build_initial_store(net, build_layout(net, prop), region, prop, {})


def _bound_certs(store, unit):
    """The dual certificates of the unit's (upper, lower) bound rows."""
    return tuple(store.constraints[cid].derivation[1] for cid in store.bound_rows[unit])


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
            point = trace_vector(net, layout, (x,), store.prop)
            for unit in ((1, 0), (1, 1)):
                for cid in store.hull_ids[unit]:
                    c = store.constraints[cid]
                    lhs = sum((q * point.get(j, F(0)) for j, q in c.row.items()), F(0))
                    assert lhs <= c.rhs


class TestBoundRows:
    def test_bound_certificates_accepted_by_the_dual_checker(self):
        store = _store()
        ensure_relaxation(store)
        sys = store.normalize()
        for unit in ((1, 0), (1, 1), (2, 0)):
            if unit not in store.bound_rows:
                continue
            up, lo = _bound_certs(store, unit)
            assert certs.check_dual(sys, up).ok
            assert certs.check_dual(sys, lo).ok

    def test_bound_rows_match_interval_arithmetic(self):
        store = _store()
        ensure_relaxation(store)
        assert store.bounds.pre[(1, 0)] == (F(-1), F(1))
        assert store.bounds.pre[(1, 1)] == (F(-1, 2), F(1, 2))

    def test_random_instances_emit_only_checkable_bound_certs(self):
        rng = random.Random(5)
        for _ in range(10):
            store = _random_store(rng)
            ensure_relaxation(store)
            sys = store.normalize()
            for up, lo in (_bound_certs(store, unit) for unit in store.bound_rows):
                assert certs.check_dual(sys, up).ok
                assert certs.check_dual(sys, lo).ok


class TestStabilization:
    def test_half_domain_pins_both_units(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        stab = ensure_relaxation(store)
        phases = {c.unit: c.phase for c in stab}
        assert phases == {(1, 0): ACTIVE, (1, 1): INACTIVE}
        assert not store.unstable
        # the bound row on the pinned side proves the sign over the node's rows
        sys = store.normalize()
        for c in stab:
            up, lo = _bound_certs(store, c.unit)
            cert = lo if c.phase == ACTIVE else up
            assert cert.bound <= 0
            assert certs.check_dual(sys, cert).ok

    def test_specialization_replaces_the_hull(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        ensure_relaxation(store)
        assert (1, 0) not in store.hull_ids
        assert store.stabilized == {(1, 0): ACTIVE, (1, 1): INACTIVE}

    def test_stabilize_uses_tightened_bounds(self):
        store = _store()
        ensure_relaxation(store)
        # certified tightening settles the sign of unit (1,1)
        store.bounds.tighten((1, 1), hi=F(0))
        out = stabilize(store)
        assert [(c.unit, c.phase) for c in out] == [((1, 1), INACTIVE)]
        assert (1, 1) not in store.unstable


class TestTgct:
    def test_margin_template_recovers_published_relaxation_bound(self):
        store = _store()
        ensure_relaxation(store)
        budget = Budget()
        res = tgct(store, default_templates(store, margin_only=True), budget)
        assert res.farkas is not None  # y <= 1 < 11/10 contradicts the query
        assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_tighter_bounds_recorded_with_certificates(self):
        store = _store("1/2")  # satisfiable variant: tightening proceeds
        ensure_relaxation(store)
        budget = Budget()
        res = tgct(store, default_templates(store), budget)
        assert res.farkas is None
        assert res.rows_added == len(res.certificates) > 0
        sys = store.normalize()
        for cert in res.certificates:
            assert certs.check_dual(sys, cert).ok

    def test_row_budget_per_call(self):
        store = _store("1/2")
        ensure_relaxation(store)
        templates = default_templates(store)
        res = tgct(store, templates, Budget())
        assert res.rows_added <= 2 * len(templates)

    def test_saturation_second_call_adds_nothing(self):
        store = _store("1/2")
        ensure_relaxation(store)
        templates = default_templates(store)
        tgct(store, templates, Budget())
        again = tgct(store, templates, Budget())
        assert again.rows_added == 0 and again.certificates == []

    def test_superseded_rows_are_retired_not_duplicated(self):
        store = _store("1/2")
        ensure_relaxation(store)
        before = {cid for cid, _ in store.active_constraints()}
        res = tgct(store, default_templates(store), Budget())
        active = {cid for cid, _ in store.active_constraints()}
        # net growth is bounded by rows added minus retirements
        assert len(active) <= len(before) + res.rows_added

    def test_budget_exhaustion_reported(self):
        store = _store("1/2")
        ensure_relaxation(store)
        res = tgct(store, default_templates(store), Budget(lp_limit=1))
        assert res.exhausted


class TestFixedPoint:
    def test_worked_instance_prunes_with_checked_farkas(self):
        store = _store()
        res = propagate_node(store, Budget())
        assert res.status == "prune"
        assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_sat_variant_stays_open_with_feasible_point(self):
        store = _store("1/2")
        res = propagate_node(store, Budget())
        assert res.status == "open"
        assert res.feasible_point is not None
        assert res.iterations >= 2  # reached the fixed point, not the pass cap

    def test_every_iteration_respects_the_row_budget(self):
        store = _store("1/2")
        res = propagate_node(store, Budget())
        bound = 2 * (len(store.unstable) + len(store.stabilized) + 1)
        assert all(n <= bound for n in res.tgct_rows_per_call)

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
            point = trace_vector(net, layout, x, store.prop)
            for r in store.normalize().rows:
                lhs = sum((q * point.get(j, F(0)) for j, q in r.row.items()), F(0))
                assert lhs <= r.rhs
            checked += 1
        # template choice strings behave like the default list
        store = _store("1/2")
        res = propagate_node(store, Budget(), templates="margin-only")
        assert res.status == "open"
