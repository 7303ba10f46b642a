import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    layout_of,
    random_instance,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, gate, lp
from relucert.budget import Budget, Exhausted
from relucert.gate import (
    DEFER,
    PRUNE,
    SAT,
    UNSAT,
    ExactResult,
    RefinementFailed,
    _drop_zero_guards,
    _model_violates_exactness,
    exact_solve,
    exactness_gate,
    most_violated,
)
from relucert.model import (
    ACTIVE,
    IDENTITY,
    INACTIVE,
    RELU,
    Layer,
    Network,
    Region,
    SafetyProperty,
    build_layout,
    validate_witness,
)
from relucert.propagate import propagate_node
from relucert.rows import GuardLiteral
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
    """`most_violated`: the unit the gate makes exact next."""

    def test_residuals_measure_relu_defect(self):
        # |z - max(0, s)|: 1/4 where s = 1/2 and z = 3/4; 0 where s < 0 = z
        store = _open_store()
        layout = store.layout
        point = {layout.pre_index((1, 0)): F(1, 2), layout.post_index((1, 0)): F(3, 4),
                 layout.pre_index((1, 1)): F(-1), layout.post_index((1, 1)): F(0)}
        assert most_violated(point, layout, [(1, 0), (1, 1)]) == (1, 0)
        assert most_violated(point, layout, [(1, 1)]) is None

    def test_selection_takes_the_largest_residual(self):
        store = _open_store()
        layout = store.layout
        point = {layout.pre_index((1, 0)): F(-1), layout.post_index((1, 0)): F(1, 4),
                 layout.pre_index((1, 1)): F(-1), layout.post_index((1, 1)): F(1, 2)}
        assert most_violated(point, layout, [(1, 0), (1, 1)]) == (1, 1)

    def test_ties_break_on_layer_then_neuron(self):
        store = _open_store()
        layout = store.layout
        point = {layout.post_index((1, 0)): F(1), layout.post_index((1, 1)): F(1)}
        assert most_violated(point, layout, [(1, 1), (1, 0)]) == (1, 0)

    def test_all_zero_residuals_give_none(self):
        store = _open_store()
        layout = store.layout
        exact = {layout.pre_index((1, 0)): F(1, 2), layout.post_index((1, 0)): F(1, 2),
                 layout.pre_index((1, 1)): F(-1), layout.post_index((1, 1)): F(0)}
        for point in ({}, exact):
            assert most_violated(point, layout, [(1, 0), (1, 1)]) is None


class TestExactSolve:
    def test_unsat_subset_produces_exhaustive_checked_cover(self):
        store = _raw_store("1")  # y >= 11/10 unreachable exactly
        res = exact_solve(store, store.unstable)
        assert res.status == UNSAT
        assigned = set()
        for cert in res.cover:
            assert certs.check_guarded(store.normalize(), store.layout, cert).ok
        # every total assignment must fall under some certificate's guards
        units = sorted(store.unstable)
        for phases in itertools.product((ACTIVE, INACTIVE), repeat=len(units)):
            sigma = dict(zip(units, phases))
            assert any(all(sigma.get(g.unit) == g.phase for g in c.guards)
                       for c in res.cover)

    def test_sat_subset_returns_model_with_assignment(self):
        # the model is exact on every unit of the subset: no ReLU residual
        store = _raw_store("1/2")
        assert len(store.unstable) == 2
        res = exact_solve(store, store.unstable)
        assert res.status == SAT
        assert most_violated(res.model, store.layout, store.unstable) is None
        x = tuple(res.model.get(store.layout.input_index(k), F(0))
                  for k in range(store.net.input_dim))
        assert validate_witness(store.net, store.region, store.prop, x).accepted

    def test_learned_certificates_prune_and_join_the_cover(self):
        # y = -relu(x) on x in [-1, 1] never reaches 1/10, and (1,0) feeds
        # nothing: the certificate of the second branch, (1,0):A (1,1):I,
        # needs only (1,1):I, so it closes the last branch, (1,0):I (1,1):I,
        # without an LP; it is in the cover already and is not listed twice
        net = Network((Layer(((F(1),), (F(1),)), (F(0), F(0)), RELU),
                       Layer(((F(0), F(-1)),), (F(0),), IDENTITY)), 1, 1)
        prop = SafetyProperty(((0, F(1)),), F(0), F(1, 10))
        store = build_initial_store(net, build_layout(net, prop), Region((F(-1),), (F(1),)),
                                    prop, {})
        assert store.unstable == {(1, 0), (1, 1)}
        budget = Budget()
        res = exact_solve(store, store.unstable, budget)
        assert res.status == UNSAT
        assert budget.lp_calls == 3 and len(res.cover) == 3
        assert len({id(c) for c in res.cover}) == 3
        assert res.cover[1].guard_set == {GuardLiteral((1, 1), INACTIVE)}
        assert all(certs.check_guarded(store.normalize(), store.layout, c).ok for c in res.cover)
        # the three guard sets still exclude every assignment of the two units
        for a0, a1 in itertools.product((ACTIVE, INACTIVE), repeat=2):
            sigma = {GuardLiteral((1, 0), a0), GuardLiteral((1, 1), a1)}
            assert any(c.guard_set <= sigma for c in res.cover), sigma

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
            assert certs.check_guarded(store.normalize(), store.layout, small).ok


class TestExactnessGate:
    def test_unsat_instance_prunes(self):
        store = _raw_store("1")
        out = exactness_gate(store, Budget())
        assert out.status == PRUNE
        for cert in out.certificates:
            assert certs.check_guarded(store.normalize(), store.layout, cert).ok

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

    def test_picking_an_exact_unit_again_raises(self, monkeypatch):
        # an exact unit's guard rows force its residual to 0, so a solver
        # model that violates one is a fault, not a reason to loop or defer
        store = _raw_store("1")  # no counterexample: every model is spurious
        layout = store.layout
        bad = {layout.input_index(0): F(0), layout.pre_index((1, 0)): F(-1),
               layout.post_index((1, 0)): F(1)}
        subsets = []

        def solve(store, subset, budget=None, local_limit=None):
            subsets.append(set(subset))
            return ExactResult(SAT, model=bad, queries=1)

        monkeypatch.setattr(gate, "exact_solve", solve)
        with pytest.raises(RefinementFailed):
            exactness_gate(store, Budget())
        assert subsets == [set(), {(1, 0)}]
        subsets.clear()
        with pytest.raises(RefinementFailed):
            exactness_gate(store, Budget(), start=store.unstable)
        assert subsets == [store.unstable]

    def test_lp_budget_defers(self):
        store = _raw_store("1")
        with pytest.raises(Exhausted):
            exactness_gate(store, Budget(lp_limit=0))

    def test_gate_local_limit_defers(self):
        store = _raw_store("1")
        out = exactness_gate(store, Budget(), gate_lp_limit=0)
        assert out.status == DEFER


class TestNodePoint:
    """The node's point answers the gate's query with no unit exact: that
    query is an LP on the node's rows, so the gate reaches the outcome it
    reached without the point, with one LP fewer."""

    def _open(self):
        rng = random.Random(21)
        for _ in range(150):
            net, region, prop = random_instance(rng)
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            res = propagate_node(store, Budget())
            if res.status == "open":
                yield (net, region, prop), res.feasible_point

    def test_same_outcome_with_one_lp_fewer(self):
        refined = 0
        for problem, point in self._open():
            outs = []
            for given in (None, point):
                net, region, prop = problem
                store = build_initial_store(net, build_layout(net, prop), region, prop, {})
                propagate_node(store, Budget())
                budget = Budget()
                out = exactness_gate(store, budget, point=given)
                outs.append((out, budget.lp_calls))
            (plain, lps), (answered, fewer) = outs
            assert answered == plain and fewer == lps - 1
            refined += plain.refinements > 0
        assert refined >= 3

    def test_gate_budget_counts_the_answered_query(self):
        # one query, answered by the point: the gate defers with no LP
        deferred = 0
        for problem, point in self._open():
            net, region, prop = problem
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            propagate_node(store, Budget())
            budget = Budget()
            out = exactness_gate(store, budget, gate_lp_limit=1, point=point)
            if out.status == DEFER:
                assert budget.lp_calls == 0 and out.refinements == 1
                deferred += 1
        assert deferred >= 3


class TestGateReadsTheStore:
    """The gate sends each theory LP the store's rows without the hull rows
    of the units its query makes exact, whose guard rows imply them over
    the unit's interval, and it changes nothing of the store: neither its
    rows nor which of them are retired, under either start.  Every cover
    certificate passes `check_guarded` over the store's rows.  On every
    gate call of both drivers on the branching instances 42, 57 and 89,
    with either template set and no gate budget."""

    def test_no_hull_row_of_an_exact_unit_and_no_write(self, monkeypatch):
        from test_search import tightened

        from relucert import search
        from relucert.search import Config

        queries = []  # (subset, system) of each theory LP
        subset_now = [None]  # the subset of the query being solved
        real_gate, real_solve, real_feasible = (search.exactness_gate, gate.exact_solve,
                                                lp.lp_feasible)
        seen = {"refined": 0, "exact start": 0, "other hulls": 0}

        def spied_gate(store, budget, gate_lp_limit=None, start=(), point=None):
            rows, retired = dict(store.constraints), set(store.retired)
            hull = {unit: set(cids) for unit, cids in store.hull_ids.items()}
            del queries[:]
            out = real_gate(store, budget, gate_lp_limit, start, point)
            assert (store.constraints, store.retired) == (rows, retired)
            for subset, sys in queries:
                cids = {r.rid[1] for r in sys.rows if r.rid[0] == "c"}
                assert not cids & set().union(*(hull[u] for u in subset)), subset
                seen["other hulls"] += any(cids & c for u, c in hull.items() if u not in subset)
            for cert in out.certificates:
                assert certs.check_guarded(store.normalize(), store.layout, cert).ok
            seen["refined"] += out.status == PRUNE and out.refinements > 0
            seen["exact start"] += out.status == PRUNE and bool(start)
            return out

        def spied_solve(store, subset, *args, **kwargs):
            subset_now[0] = set(subset)
            try:
                return real_solve(store, subset, *args, **kwargs)
            finally:
                subset_now[0] = None

        def spied_feasible(sys, *args, **kwargs):
            if subset_now[0] is not None:
                queries.append((subset_now[0], sys))
            return real_feasible(sys, *args, **kwargs)

        monkeypatch.setattr(search, "exactness_gate", spied_gate)
        monkeypatch.setattr(gate, "exact_solve", spied_solve)
        monkeypatch.setattr(lp, "lp_feasible", spied_feasible)
        for config in (Config(), Config(templates="margin-only")):
            for idx in (42, 57, 89):
                for driver in (search.icl_verify, search.hsrv_verify):
                    assert driver(*tightened(idx), config).status == "unsat"
        assert seen["refined"] >= 3 and seen["exact start"] >= 3, seen
        assert seen["other hulls"] >= 1, seen
