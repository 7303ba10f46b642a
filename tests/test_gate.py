import itertools
import json
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
        res = exact_solve(store, start=store.unstable)
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

    def test_sat_start_returns_a_validated_witness(self):
        # the model is exact on every unit of the start, so no unit is refined
        store = _raw_store("1/2")
        assert len(store.unstable) == 2
        res = exact_solve(store, start=store.unstable)
        assert res.status == SAT and res.refinements == 0
        assert validate_witness(store.net, store.region, store.prop, res.witness).accepted

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
        res = exact_solve(store, budget, start=store.unstable)
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
        res = exact_solve(store, local_limit=0, start=store.unstable)
        assert res.status == DEFER


class TestCoreMinimization:
    def test_zero_multiplier_guards_dropped(self):
        store = _raw_store("1")
        res = exact_solve(store, start=store.unstable)
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
        solved = []  # the guard literals of each LP's system

        def feasible(sys):
            solved.append(_guards(sys))
            return lp.LpOutcome(lp.FEASIBLE, primal=bad)

        monkeypatch.setattr(lp, "lp_feasible", feasible)
        with pytest.raises(RefinementFailed):
            exactness_gate(store, Budget())
        # icl: the empty assignment's model makes (1,0) exact, and the same
        # model on (1,0)'s active branch picks it again
        assert solved == [set(), {GuardLiteral((1, 0), ACTIVE)}]
        solved.clear()
        with pytest.raises(RefinementFailed):
            exactness_gate(store, Budget(), start=store.unstable)
        assert solved == [{GuardLiteral(u, ACTIVE) for u in store.unstable}]

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

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_gate_budget_counts_the_answered_query(self, k):
        # k queries answered at most, the point's among them when given: at
        # most k LPs, k - 1 with the point, and a gate that defers at k
        # queries has made them all
        spent = {None: 0, "point": 0}
        for problem, point in self._open():
            net, region, prop = problem
            for given in (None, "point"):
                store = build_initial_store(net, build_layout(net, prop), region, prop, {})
                propagate_node(store, Budget())
                budget = Budget()
                out = exactness_gate(store, budget, gate_lp_limit=k,
                                     point=point if given else None)
                assert budget.lp_calls <= k - bool(given), (k, given, budget.lp_calls)
                if out.status == DEFER:
                    assert budget.lp_calls == k - bool(given)
                    spent[given] += 1
                if k == 1 and out.status == DEFER:
                    # the first model made one unit exact, then the budget ran out
                    assert out.refinements == 1
        # one query defers every node whose first model is spurious; two or
        # three decide all but the few that refine twice
        floor = 3 if k == 1 else 1
        assert spent[None] >= floor and spent["point"] >= floor, spent


def _guards(sys) -> set[GuardLiteral]:
    """The guard literals whose rows a gate LP's system holds: its query's
    assignment."""
    return {GuardLiteral((r.rid[1], r.rid[2]), r.rid[3]) for r in sys.rows if r.rid[0] == "g"}


def _spy_gate_lps(monkeypatch) -> list:
    """Record each `exact_solve` call as (its LPs, its result), each LP as
    (system, outcome), in the order made."""
    calls = []
    real_solve, real_feasible = gate.exact_solve, lp.lp_feasible
    lps = [None]  # the LPs of the call being solved

    def spied_solve(*args, **kwargs):
        lps[0] = []
        try:
            res = real_solve(*args, **kwargs)
            calls.append((lps[0], res))
            return res
        finally:
            lps[0] = None

    def spied_feasible(sys, *args, **kwargs):
        out = real_feasible(sys, *args, **kwargs)
        if lps[0] is not None:
            lps[0].append((sys, out))
        return out

    monkeypatch.setattr(gate, "exact_solve", spied_solve)
    monkeypatch.setattr(lp, "lp_feasible", spied_feasible)
    return calls


class TestOneSearch:
    """A gate call is one DPLL over guard assignments: no assignment reaches
    an LP twice, and none that a certificate the call has already found
    refutes.  The i-th infeasible LP of a call gives its cover's i-th
    certificate."""

    def test_no_assignment_solved_twice_or_after_its_refutation(self, monkeypatch):
        from test_acceptance import _spec_suite
        from test_search import tightened

        from relucert import search
        from relucert.search import Config

        calls = _spy_gate_lps(monkeypatch)
        runs = [(problem, Config()) for problem in _spec_suite(100)]
        runs += [(tightened(idx), Config(templates=templates))
                 for templates in ("default", "margin-only") for idx in (42, 57, 89)]
        for problem, config in runs:
            for driver in (search.icl_verify, search.hsrv_verify):
                driver(*problem, config)
        pruned = 0  # LPs made with a nonempty cover, none of which refutes them
        for solved, res in calls:
            cover, seen, found = iter(res.cover), [], []
            for sys, out in solved:
                sigma = _guards(sys)
                assert sigma not in seen, sigma
                assert not any(c.guard_set <= sigma for c in found), sigma
                pruned += bool(found)
                seen.append(sigma)
                if out.status == lp.INFEASIBLE:
                    found.append(next(cover))
            assert next(cover, None) is None
        assert pruned >= 3, pruned
        assert any(res.refinements >= 2 for _, res in calls)

    def test_a_cover_over_two_refined_units_is_checked_whole(self, monkeypatch, tmp_path):
        """Branching instance 42 under icl: one gate call makes two units
        exact and closes its node.  `check` accepts the proof, and rejects
        it at that leaf once any one certificate of the cover is dropped."""
        from conftest import dump_problem, file_digest
        from test_prooflog import _dumps, _leaf_nodes, _tree_node
        from test_search import tightened

        from relucert import prooflog, search

        calls = _spy_gate_lps(monkeypatch)
        problem = tightened(42)
        res = search.icl_verify(*problem)
        assert res.status == "unsat"
        [(_, out)] = [call for call in calls if call[1].refinements >= 2]
        assert out.status == UNSAT and out.refinements == 2
        assert len({g.unit for c in out.cover for g in c.guards}) == 2
        path = tmp_path / "p42.json"
        dump_problem(*problem, path)
        digest = file_digest(path)
        data = prooflog.emit(res.tree, digest)
        assert prooflog.check_proof(problem, data, digest).accepted
        base = prooflog.parse_proof(data)
        [(at, leaf)] = [(at, leaf) for at, leaf in _leaf_nodes(base["tree"])
                        if len(leaf["cover"]) == len(out.cover)]
        for k in range(len(out.cover)):
            doc = json.loads(json.dumps(base))
            del _tree_node(doc, at)["cover"][k]
            checked = prooflog.check_proof(problem, _dumps(doc), digest)
            assert not checked.accepted, k
            assert checked.path == "/".join(("tree", *map(str, at))), (k, checked)
            assert checked.reason.startswith("cover: "), (k, checked)


class TestGateReadsTheStore:
    """The gate sends each theory LP the store's rows without the hull rows
    of the units its query makes exact, read from the guard rows of the
    LP's system, whose guard rows imply them over the unit's interval, and
    it changes nothing of the store: neither its rows nor which of them are
    retired, under either start.  Every cover certificate passes
    `check_guarded` over the store's rows.  On every gate call of both
    drivers on the branching instances 42, 57 and 89, with either template
    set and no gate budget."""

    def test_no_hull_row_of_an_exact_unit_and_no_write(self, monkeypatch):
        from test_search import tightened

        from relucert import search
        from relucert.search import Config

        calls = _spy_gate_lps(monkeypatch)
        real_gate = search.exactness_gate
        seen = {"refined": 0, "exact start": 0, "other hulls": 0}

        def spied_gate(store, budget, gate_lp_limit=None, start=(), point=None):
            rows, retired = dict(store.constraints), set(store.retired)
            hull = {unit: set(cids) for unit, cids in store.hull_ids.items()}
            del calls[:]
            out = real_gate(store, budget, gate_lp_limit, start, point)
            assert (store.constraints, store.retired) == (rows, retired)
            [(solved, _)] = calls
            for sys, _ in solved:
                exact = {g.unit for g in _guards(sys)}
                cids = {r.rid[1] for r in sys.rows if r.rid[0] == "c"}
                assert not cids & set().union(*(hull[u] for u in exact)), exact
                seen["other hulls"] += any(cids & c for u, c in hull.items() if u not in exact)
            for cert in out.certificates:
                assert certs.check_guarded(store.normalize(), store.layout, cert).ok
            seen["refined"] += out.status == PRUNE and out.refinements > 0
            seen["exact start"] += out.status == PRUNE and bool(start)
            return out

        monkeypatch.setattr(search, "exactness_gate", spied_gate)
        for config in (Config(), Config(templates="margin-only")):
            for idx in (42, 57, 89):
                for driver in (search.icl_verify, search.hsrv_verify):
                    assert driver(*tightened(idx), config).status == "unsat"
        assert seen["refined"] >= 3 and seen["exact start"] >= 3, seen
        assert seen["other hulls"] >= 1, seen


class TestGateOnTheBenchmark:
    """The acceptance suite hardly reaches the gate (2 gate calls in 200
    runs), so the instances whose node the gate closes are found where it
    closes some: spying `gate.exact_solve` over the benchmark's
    `tight-unsat` family at both family seeds, under both drivers.  On
    each such instance both drivers' verdicts match `oracle_verify`, and
    `check` accepts each proof, in this process and under `python -O`."""

    def test_tight_unsat_nodes_the_gate_closes(self, monkeypatch, tmp_path):
        from pathlib import Path

        from conftest import dump_problem, file_digest
        from test_cli import _cli_o

        from relucert import prooflog, search

        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import families

        closed = []
        real = gate.exact_solve

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            closed.append(res.status == UNSAT)
            return res

        monkeypatch.setattr(gate, "exact_solve", spy)
        found = []
        for seed in (families.MIXED_SEED, families.HELD_OUT_SEED):
            for inst in families.family(families.WORKLOADS["tight-unsat"], seed):
                for driver in (search.icl_verify, search.hsrv_verify):
                    del closed[:]
                    driver(*inst.problem)
                    if any(closed) and (seed, inst) not in found:
                        found.append((seed, inst))
        monkeypatch.setattr(gate, "exact_solve", real)
        assert [(seed, inst.idx) for seed, inst in found] == [
            (families.MIXED_SEED, 42), (families.MIXED_SEED, 46), (families.HELD_OUT_SEED, 25)]
        for seed, inst in found:
            problem = inst.problem
            path = tmp_path / f"p{seed}-{inst.idx}.json"
            dump_problem(*problem, path)
            digest = file_digest(path)
            truth = search.oracle_verify(*problem)
            for driver in (search.icl_verify, search.hsrv_verify):
                res = driver(*problem)
                assert res.status == truth.status == "unsat", (seed, inst.idx, driver.__name__)
                data = prooflog.emit(res.tree, digest)
                assert prooflog.check_proof(problem, data, digest).accepted
                proof = tmp_path / f"p{seed}-{inst.idx}.{driver.__name__}.proof"
                proof.write_bytes(data)
                run = _cli_o("check", str(path), str(proof))
                assert run.returncode == 0 and run.stdout.strip() == "ACCEPT", run
