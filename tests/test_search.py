import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    WORKED,
    dump_problem,
    layout_of,
    random_instance,
    snapshot_system,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, lp, prooflog
from relucert.budget import Budget
from relucert.model import ACTIVE, INACTIVE, Region, build_layout, validate_witness
from relucert.propagate import propagate_node
from relucert.search import (
    CapExceeded,
    Config,
    MergeJustification,
    NothingToSplit,
    ProofLeaf,
    ProofSplit,
    _domain_split,
    _margin_evidence,
    _Node,
    hsrv_verify,
    icl_verify,
    oracle_verify,
    pick_split,
    refine,
)
from relucert.model import SafetyProperty
from relucert.store import NEGP, build_initial_store, interval_bounds


def _count_unstable(net, region):
    from relucert.store import interval_bounds

    bounds = interval_bounds(net, region, {})
    return sum(1 for u in net.hidden_units if bounds[u][0] < 0 < bounds[u][1])


class TestRefinement:
    def test_phase_split_prefers_widest_straddling_unit(self):
        net, prop = worked_network(), worked_prop("1/2")
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        node = _Node(worked_region(), {}, 0)
        kind = pick_split(store, node, Config())
        assert kind == ("phase", (1, 0))  # min(-l, u) = 1 beats 1/2

    def test_domain_split_once_every_unit_is_settled(self):
        net, prop = worked_network(), worked_prop("1/2")
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        propagate_node(store, Budget())  # certified tightening settles both units
        assert not store.unstable
        node = _Node(worked_region(), {}, 0)
        assert pick_split(store, node, Config()) == ("domain", 0, F(1, 2))

    def test_phase_split_children_commit_complementary_phases(self):
        node = _Node(worked_region(), {}, 0)
        kids = refine(node, ("phase", (1, 0)))
        assert [k.alpha for k in kids] == [{(1, 0): ACTIVE}, {(1, 0): INACTIVE}]
        assert all(k.region == node.region and k.depth == 1 for k in kids)

    def test_domain_split_bisects_the_longest_edge(self):
        region = Region((F(0), F(0)), (F(1), F(4)))
        assert _domain_split(region) == ("domain", 1, F(2))

    def test_domain_split_children_share_the_midpoint(self):
        node = _Node(worked_region(), {(1, 0): ACTIVE}, 2)
        kids = refine(node, ("domain", 0, F(1, 2)))
        assert kids[0].region == Region((F(0),), (F(1, 2),))
        assert kids[1].region == Region((F(1, 2),), (F(1),))
        assert all(k.alpha == {(1, 0): ACTIVE} for k in kids)

    def test_degenerate_region_has_nothing_to_split(self):
        with pytest.raises(NothingToSplit):
            _domain_split(Region((F(1),), (F(1),)))


class TestWorkedInstance:
    def test_unsat_under_both_strategies(self):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop)
            assert res.status == "unsat"
            assert res.proof is not None
            out = prooflog.check_proof((net, region, prop), prooflog.emit(res.proof, WORKED))
            assert out.accepted, out

    def test_sat_variant_yields_validated_witness_and_trace(self):
        net, region = worked_network(), worked_region()
        prop = worked_prop("1/2")
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop)
            assert res.status == "sat"
            assert validate_witness(net, region, prop, res.witness).accepted
            layout = build_layout(net, prop)
            assert res.trace[layout.input_index(0)] == res.witness[0]
            # the midpoint x = 1/2 gives y = 0 < 3/5, so this SAT comes from
            # an LP: the relaxation point or the gate
            assert res.budget.lp_calls > 0

    def test_lp_budget_exhaustion_reports_unknown(self):
        res = icl_verify(worked_network(), worked_region(), worked_prop("1/2"),
                         Config(lp_budget=1))
        assert res.status == "unknown" and res.reason == "resource"


class TestMidpointProbe:
    """The box midpoint is evaluated exactly before any store is built."""

    def test_midpoint_counterexample_is_sat_without_an_lp(self):
        # y(1/2) = 0 and the violation threshold is -1/2 + 1/10 = -2/5
        net, region, prop = worked_network(), worked_region(), worked_prop("-1/2")
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop)
            assert res.status == "sat"
            assert res.witness == (F(1, 2),)
            assert res.budget.lp_calls == 0
            assert validate_witness(net, region, prop, res.witness).accepted


class TestMergeDemo:
    def _run(self, strategy):
        config = Config(strategy=strategy, first_split="domain")
        driver = hsrv_verify if strategy == "hsrv" else icl_verify
        return driver(worked_network(), worked_region(), worked_prop(), config)

    def test_forced_root_split_produces_published_child_bounds(self):
        res = self._run("hsrv")
        assert res.status == "unsat"
        root = res.proof.root
        assert isinstance(root, ProofSplit)
        assert root.kind == ("domain", 0, F(1, 2))
        assert all(isinstance(leaf, ProofLeaf) for leaf in root.children)
        # the child bounds are the merge lemma's evidence
        entry, = res.proof.lemmas
        assert [beta for _, _, beta, _, _ in entry.justification.children] == [F(0), F(1)]

    def test_child_certificates_pass_the_dual_checker(self):
        res = self._run("hsrv")
        entry, = res.proof.lemmas
        for _, _, beta, cert, sid in entry.justification.children:
            assert cert.bound == beta
            assert certs.check_dual(snapshot_system(res.proof, sid), cert).ok

    def test_merged_lemma_bounds_the_output_by_one(self):
        res = self._run("hsrv")
        lemmas = res.proof.lemmas
        assert len(lemmas) == 1
        entry = lemmas[0]
        layout = layout_of(worked_network(), worked_prop())
        assert dict(entry.row) == {layout.margin_index: F(1)}
        assert entry.bound == F(1)
        assert entry.is_global
        assert isinstance(entry.justification, MergeJustification)
        assert entry.justification.beta == F(1)

    def test_merge_learning_also_fires_under_icl(self):
        res = self._run("icl")
        assert res.status == "unsat"
        assert res.budget.lemmas >= 1
        out = prooflog.check_proof((worked_network(), worked_region(), worked_prop()),
                                   prooflog.emit(res.proof, WORKED))
        assert out.accepted, out


class TestClauseLearning:
    def test_clause_db_blocks_supersets_of_its_literals(self):
        from relucert.certs import FarkasCertificate, GuardedCertificate
        from relucert.search import ClauseDB, ClauseEntry
        from relucert.store import GuardLiteral

        db = ClauseDB()
        lits = frozenset({GuardLiteral((1, 0), ACTIVE)})
        cert = GuardedCertificate.make(sorted(lits, key=lambda g: (g.unit, g.phase)),
                                       FarkasCertificate.make({}))
        from relucert.certs import ConflictClause

        db.append(ClauseEntry(ConflictClause(lits, 0), lits, cert, snapshot_id=3))
        hit = db.blocking({(1, 0): ACTIVE, (1, 1): INACTIVE})
        assert hit is not None and hit.snapshot_id == 3
        assert db.blocking({(1, 0): INACTIVE}) is None
        assert db.blocking({}) is None

    def test_clause_certificates_shrink_by_the_node_commitments(self):
        from relucert.certs import ConflictClause, FarkasCertificate, GuardedCertificate
        from relucert.search import ClauseDB, ClauseEntry, _clause_certs
        from relucert.store import GuardLiteral

        lits = frozenset({GuardLiteral((1, 0), ACTIVE), GuardLiteral((1, 1), INACTIVE)})
        cert = GuardedCertificate.make(sorted(lits, key=lambda g: (g.unit, g.phase)),
                                       FarkasCertificate.make({}))
        db = ClauseDB()
        db.append(ClauseEntry(ConflictClause(lits, 0), lits, cert, snapshot_id=7))
        # below a node already committed to (1,0):Active only the remainder
        # of the guard set needs proving
        out = _clause_certs(db, {(1, 0): ACTIVE})
        (residual, sid), = out.items()
        assert sid == 7
        assert residual.guard_set == frozenset({GuardLiteral((1, 1), INACTIVE)})


class TestOracle:
    def test_ground_truth_on_the_worked_pair(self):
        net, region = worked_network(), worked_region()
        assert oracle_verify(net, region, worked_prop()).status == "unsat"
        res = oracle_verify(net, region, worked_prop("1/2"))
        assert res.status == "sat"
        assert validate_witness(net, region, worked_prop("1/2"), res.witness).accepted

    def test_cap_exceeded_raises(self):
        with pytest.raises(CapExceeded):
            oracle_verify(worked_network(), worked_region(), worked_prop(), cap=1)


class TestRandomAgreement:
    def test_strategies_agree_with_the_oracle(self):
        rng = random.Random(77)
        done = 0
        while done < 25:
            net, region, prop = random_instance(rng)
            if _count_unstable(net, region) > 6:
                continue
            truth = oracle_verify(net, region, prop)
            for driver in (icl_verify, hsrv_verify):
                res = driver(net, region, prop)
                assert res.status == truth.status, (net, region, prop)
                if res.status == "sat":
                    assert validate_witness(net, region, prop, res.witness).accepted
            done += 1


def _max_margin(net, region, prop):
    """Exact maximum of the margin over the box: the best LP value, without
    the negated property, over every phase assignment of the root-unstable
    units (stable units keep their phase, as in `oracle_verify`)."""
    layout = build_layout(net, prop)
    bounds = interval_bounds(net, region, {})
    free = [u for u in net.hidden_units if bounds[u][0] < 0 < bounds[u][1]]
    fixed = {u: ACTIVE if bounds[u][0] >= 0 else INACTIVE
             for u in net.hidden_units if u not in free}
    best = None
    for phases in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
        alpha = {**fixed, **dict(zip(free, phases))}
        store = build_initial_store(net, layout, region, prop, alpha)
        out = lp.lp_max(store.normalize(exclude=lambda cid, c: c.block == NEGP),
                        {layout.margin_index: F(1)})
        if out.status == lp.OPTIMAL and (best is None or out.value > best):
            best = out.value
    return best


def _phase_splits(entry):
    if isinstance(entry, ProofSplit):
        if entry.kind[0] == "phase":
            yield entry
        for child in entry.children:
            yield from _phase_splits(child)


class TestBranchingOracleAgreement:
    """Both drivers against the oracle on instances that really branch: two
    acceptance-suite networks with at least four root-unstable units, their
    threshold moved to 1/1000 above (UNSAT) and below (SAT) the exact
    maximum margin, verified with margin-only templates and a one-LP gate.
    Of the eight such instances among the first hundred, these two are the
    ones whose UNSAT variants split and merge under both drivers within
    about two seconds."""

    CONFIG = Config(templates="margin-only", gate_budget=1)

    def test_verdicts_match_the_oracle_and_proofs_replay(self, tmp_path):
        from test_acceptance import _spec_suite

        suite = _spec_suite(90)
        phase_splits = lemmas = proofs = 0
        for idx in (57, 89):
            net, region, prop = suite[idx]
            assert _count_unstable(net, region) >= 4
            maximum = _max_margin(net, region, prop)
            for gap in (F(1, 1000), F(-1, 1000)):
                tight = SafetyProperty(prop.margin, maximum + gap - prop.epsilon, prop.epsilon)
                truth = oracle_verify(net, region, tight)
                assert truth.status == ("unsat" if gap > 0 else "sat")
                path = tmp_path / f"p{idx}-{gap > 0}.json"
                dump_problem(net, region, tight, path)
                for driver in (icl_verify, hsrv_verify):
                    res = driver(net, region, tight, self.CONFIG)
                    assert res.status == truth.status, (idx, gap, driver.__name__)
                    if res.status == "sat":
                        assert validate_witness(net, region, tight, res.witness).accepted
                        continue
                    out = prooflog.check_proof((net, region, tight),
                                               prooflog.emit(res.proof, path), str(path))
                    assert out.accepted, (idx, driver.__name__, out)
                    proofs += 1
                    phase_splits += len(list(_phase_splits(res.proof.root)))
                    lemmas += len(res.proof.lemmas)
        assert proofs == 4
        assert phase_splits >= 1 and lemmas >= 1


class TestMarginEvidence:
    def test_open_node_margin_bound_never_rules_out_the_violation(self):
        # why neither strategy prunes on the margin bound of an open node:
        # propagation found the store LP-feasible with the negated property,
        # so the margin's maximum without that row is at least the threshold
        from test_acceptance import _spec_suite

        opened = 0
        for net, region, prop in _spec_suite(8):
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            if propagate_node(store, Budget()).status != "open":
                continue
            ev = _margin_evidence(store, Budget())
            assert ev is None or ev[0] >= prop.violation_threshold
            opened += 1
        assert opened >= 5
