import random
from fractions import Fraction as F

import pytest

from conftest import layout_of, random_instance, worked_network, worked_prop, worked_region
from relucert import certs
from relucert.budget import Budget
from relucert.gate import (
    DEFER,
    EmptyViolationSet,
    PRUNE,
    SAT,
    UNSAT,
    _drop_zero_guards,
    _model_violates_exactness,
    exact_solve,
    exactness_gate,
    select_violated,
    violation_report,
)
from relucert.model import build_layout, validate_witness
from relucert.propagate import propagate_node
from relucert.store import build_initial_store


def _open_store(threshold="1/2"):
    net = worked_network()
    prop = worked_prop(threshold)
    store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
    res = propagate_node(store, Budget())
    assert res.status == "open"
    return store


def _raw_store(threshold="1"):
    """Initial store without relaxation rows: the base LP leaves the
    post-activations unconstrained, so only exact reasoning can close it."""
    net = worked_network()
    prop = worked_prop(threshold)
    return build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})


class TestViolationReport:
    def test_residuals_measure_relu_defect(self):
        store = _open_store()
        layout = store.layout
        point = {layout.pre_index((1, 0)): F(1, 2), layout.post_index((1, 0)): F(3, 4),
                 layout.pre_index((1, 1)): F(-1), layout.post_index((1, 1)): F(0)}
        rep = violation_report(point, layout, [(1, 0), (1, 1)])
        assert dict(rep.residuals) == {(1, 0): F(1, 4), (1, 1): F(0)}
        assert rep.violated == frozenset({(1, 0)})

    def test_selection_takes_the_largest_residual(self):
        store = _open_store()
        layout = store.layout
        point = {layout.pre_index((1, 0)): F(-1), layout.post_index((1, 0)): F(1, 4),
                 layout.pre_index((1, 1)): F(-1), layout.post_index((1, 1)): F(1, 2)}
        rep = violation_report(point, layout, [(1, 0), (1, 1)])
        assert select_violated(rep) == {(1, 1)}

    def test_ties_break_on_layer_then_neuron(self):
        store = _open_store()
        layout = store.layout
        point = {layout.post_index((1, 0)): F(1), layout.post_index((1, 1)): F(1)}
        rep = violation_report(point, layout, [(1, 0), (1, 1)])
        assert select_violated(rep) == {(1, 0)}

    def test_empty_violation_set_raises(self):
        store = _open_store()
        with pytest.raises(EmptyViolationSet):
            select_violated(violation_report({}, store.layout, [(1, 0)]))


class TestExactSolve:
    def test_unsat_subset_produces_exhaustive_checked_cover(self):
        store = _raw_store("1")  # y >= 11/10 unreachable exactly
        res = exact_solve(store, store.unstable)
        assert res.status == UNSAT
        assigned = set()
        for cert in res.cover:
            assert certs.check_guarded(store, cert).ok
        # every total assignment must fall under some certificate's guards
        from itertools import product

        from relucert.model import ACTIVE, INACTIVE

        units = sorted(store.unstable)
        for phases in product((ACTIVE, INACTIVE), repeat=len(units)):
            sigma = dict(zip(units, phases))
            assert any(all(sigma.get(g.unit) == g.phase for g in c.guards)
                       for c in res.cover)

    def test_sat_subset_returns_model_with_assignment(self):
        store = _open_store("1/2")
        res = exact_solve(store, store.unstable)
        assert res.status == SAT
        assert set(res.assignment) == store.unstable
        x = tuple(res.model.get(store.layout.input_index(k), F(0))
                  for k in range(store.net.input_dim))
        assert validate_witness(store.net, store.region, store.prop, x).accepted

    def test_learned_certificates_prune_and_join_the_cover(self):
        store = _raw_store("1")
        first = exact_solve(store, store.unstable)
        again = exact_solve(store, store.unstable, learned=first.cover)
        assert again.status == UNSAT
        # reused certificates appear in the new cover instead of fresh LP work
        assert set(again.cover) <= set(first.cover)

    def test_local_limit_defers(self):
        store = _raw_store("1")
        res = exact_solve(store, store.unstable, local_limit=0)
        assert res.status == "limit"


class TestCoreMinimization:
    def test_zero_multiplier_guards_dropped(self):
        store = _raw_store("1")
        res = exact_solve(store, store.unstable)
        for cert in res.cover:
            small = _drop_zero_guards(cert, store.layout)
            assert set(small.guards) <= set(cert.guards)
            assert certs.check_guarded(store, small).ok


class TestExactnessGate:
    def test_unsat_instance_prunes(self):
        store = _raw_store("1")
        out = exactness_gate(store, Budget())
        assert out.status == PRUNE
        for cert in out.certificates:
            assert certs.check_guarded(store, cert).ok

    def test_sat_instance_extracts_validated_witness(self):
        store = _open_store("1/2")
        out = exactness_gate(store, Budget())
        assert out.status == SAT
        assert validate_witness(store.net, store.region, store.prop, out.witness).accepted

    def test_refinements_bounded_by_unstable_count(self):
        rng = random.Random(21)
        for _ in range(15):
            net, region, prop = random_instance(rng)
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            res = propagate_node(store, Budget())
            if res.status != "open":
                continue
            u = len(store.unstable)
            out = exactness_gate(store, Budget())
            assert out.refinements <= u
            assert out.status in (SAT, PRUNE, DEFER)

    def test_each_refinement_eliminates_the_spurious_model(self):
        """A refined unit's exact branches both refute the model that
        triggered the refinement — checked inside the gate, exercised here."""
        store = _open_store("1/2")
        layout = store.layout
        point = {layout.pre_index((1, 0)): F(-1), layout.post_index((1, 0)): F(1)}
        assert _model_violates_exactness(store, point, (1, 0))
        good = {layout.pre_index((1, 0)): F(1), layout.post_index((1, 0)): F(1)}
        assert not _model_violates_exactness(store, good, (1, 0))

    def test_lp_budget_defers(self):
        store = _raw_store("1")
        out = exactness_gate(store, Budget(lp_limit=0))
        assert out.status == DEFER and out.reason == "budget"

    def test_gate_local_limit_defers(self):
        store = _raw_store("1")
        out = exactness_gate(store, Budget(), gate_lp_limit=0)
        assert out.status == DEFER
