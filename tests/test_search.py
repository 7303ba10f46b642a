import dataclasses
import functools
import hashlib
import inspect
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (
    WORKED,
    dump_problem,
    file_digest,
    layout_of,
    leaf_system,
    rand_rational,
    random_instance,
    scoped_leaves,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, lp, prooflog, propagate, search
from relucert.budget import Budget
from relucert.model import (
    ACTIVE,
    IDENTITY,
    INACTIVE,
    RELU,
    Layer,
    Network,
    Region,
    build_layout,
    validate_witness,
)
from relucert.propagate import PropagationResult, _margin_lp, propagate_node
from relucert.search import (
    CapExceeded,
    Config,
    NothingToSplit,
    ProofLeaf,
    ProofSplit,
    _domain_split,
    hsrv_verify,
    icl_verify,
    oracle_verify,
    pick_split,
    refine,
)
from relucert.model import SafetyProperty
from relucert.rows import NormalizedSystem, NormRow
from relucert.store import NEGP, Store, build_initial_store, interval_bounds


def _count_unstable(net, region):
    from relucert.store import interval_bounds

    bounds = interval_bounds(net, region, {})
    return sum(1 for u in net.hidden_units if bounds[u][0] < 0 < bounds[u][1])


class TestRefinement:
    def test_phase_split_prefers_the_largest_chord_term(self):
        # the root store of instance 57 under margin-only templates: the
        # back-substitution leans on the chord of (2, 0) most, and not at
        # all on that of (2, 1), the widest-straddling unit
        net, region, prop = tightened(57)
        store = build_initial_store(net, layout_of(net, prop), region, prop, {})
        assert propagate_node(store, Budget(), templates="margin-only").status == "open"
        sub = propagate.back_substitution(store)
        # each multiplier times its row's right-hand side is that row's term
        # of rho
        cited = store.cited_rows(sub.multipliers).rows
        assert len(cited) == len(sub.multipliers)
        assert sum(sub.multipliers[r.rid] * r.rhs for r in cited) == sub.rho
        terms, straddle = {}, {}
        for unit in store.unstable:
            lo, hi = store.hull_bounds[unit]
            chord = store.constraints[store.hull_ids[unit][2]].sides[0]
            assert chord.rhs == -lo * hi / (hi - lo)
            terms[unit] = sub.multipliers.get(chord.rid, F(0)) * chord.rhs
            lo, hi = store.bounds.pre[unit]
            straddle[unit] = min(-lo, hi)
        assert max(straddle, key=straddle.get) == (2, 1) and terms[(2, 1)] == 0
        assert max(terms, key=terms.get) == (2, 0)
        assert pick_split(store) == ("phase", (2, 0))

    def test_zero_chord_terms_fall_back_to_the_widest_straddle_then_the_unit(self):
        # x in [-1, 1]; s0 = x, s1 = 2x, s2 = -2x; y = -(z0 + z1 + z2).
        # The margin y falls as each z rises, so back-substitution bounds
        # every z from below and leans on no chord; (1, 1) and (1, 2) tie
        # on the widest straddle, 2, and (1, 1) comes first
        net = Network((
            Layer(((F(1),), (F(2),), (F(-2),)), (F(0), F(0), F(0)), RELU),
            Layer(((F(-1), F(-1), F(-1)),), (F(0),), IDENTITY),
        ), 1, 1)
        region = Region((F(-1),), (F(1),))
        prop = SafetyProperty(((0, F(1)),), F(-10), F(1, 10))
        store = build_initial_store(net, layout_of(net, prop), region, prop, {})
        assert propagate_node(store, Budget(), templates="margin-only").status == "open"
        assert store.unstable == {(1, 0), (1, 1), (1, 2)}
        sub = propagate.back_substitution(store)
        chords = {store.constraints[ids[2]].sides[0].rid for ids in store.hull_ids.values()}
        assert sub is not None and not chords & set(sub.multipliers)
        assert pick_split(store) == ("phase", (1, 1))
        store.unstable.discard((1, 1))
        assert pick_split(store) == ("phase", (1, 2))

    def test_a_store_without_hull_rows_splits_the_widest_straddle(self):
        # before propagation no unstable unit has hull rows, and no
        # back-substitution can end: every score is zero
        net, prop = worked_network(), worked_prop("1/2")
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        assert store.unstable and not store.hull_ids
        assert propagate.back_substitution(store) is None
        assert pick_split(store) == ("phase", (1, 0))  # min(-l, u) = 1 beats 1/2

    def test_no_unstable_unit_is_a_fault(self):
        # every unit then has its phase equality, so the node's LP point is
        # a witness and the search never asks for a split
        net, prop = worked_network(), worked_prop("1/2")
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        # the sum uses the chord of (1, 0) alone, so propagation tightens and
        # settles (1, 0) only; tightening (1, 1) too settles it
        assert propagate_node(store, Budget()).status == "open"
        assert store.unstable == {(1, 1)}
        propagate.tgct(store, [(1, 1)], Budget())
        res = propagate_node(store, Budget())
        assert not store.unstable and res.status == "open"
        assert validate_witness(net, worked_region(), prop,
                                (res.feasible_point.get(0, F(0)),)).accepted
        with pytest.raises(NothingToSplit):
            pick_split(store)

    def test_every_split_finds_an_unstable_unit(self, monkeypatch):
        """Over the acceptance suite with the default flags and the
        benchmark's `branching` family with its own, at both benchmark
        family seeds and at 1001 and 1002, under both drivers, every node
        that asks for a split has an unstable unit.  The two further seeds
        keep the count of splits at 60 or more, now that splits on the
        largest chord term make smaller trees."""
        from relucert import search
        from test_acceptance import _spec_suite

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import families

        branching = families.WORKLOADS["branching"]
        assert branching.flags == ("--templates", "margin-only", "--gate-budget", "1")
        runs = [(problem, Config()) for problem in _spec_suite(100)]
        runs += [(inst.problem, TestBranchingOracleAgreement.CONFIG)
                 for seed in (families.MIXED_SEED, families.HELD_OUT_SEED, 1001, 1002)
                 for inst in families.family(branching, seed)]
        unstable = []
        pick = search.pick_split

        def spy(store):
            unstable.append(len(store.unstable))
            return pick(store)

        monkeypatch.setattr(search, "pick_split", spy)
        for problem, config in runs:
            for driver in (icl_verify, hsrv_verify):
                driver(*problem, config)
        assert len(unstable) >= 60 and all(unstable), unstable

    def test_phase_split_children_commit_complementary_phases(self):
        kids = refine(worked_region(), {}, ("phase", (1, 0)))
        assert [alpha for _, alpha in kids] == [{(1, 0): ACTIVE}, {(1, 0): INACTIVE}]
        assert all(region == worked_region() for region, _ in kids)

    def test_domain_split_bisects_the_longest_edge(self):
        region = Region((F(0), F(0)), (F(1), F(4)))
        assert _domain_split(region) == ("domain", 1, F(2))

    def test_domain_split_children_share_the_midpoint(self):
        kids = refine(worked_region(), {(1, 0): ACTIVE}, ("domain", 0, F(1, 2)))
        assert kids[0][0] == Region((F(0),), (F(1, 2),))
        assert kids[1][0] == Region((F(1, 2),), (F(1),))
        assert all(alpha == {(1, 0): ACTIVE} for _, alpha in kids)

    def test_forced_domain_split_of_a_zero_width_box_is_skipped(self):
        # the worked network over [0, 0]: with nothing to split, the forced
        # root split gives way, and the run is the one without it
        net, prop, point = worked_network(), worked_prop(), Region((F(0),), (F(0),))
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, point, prop, Config(first_split="domain"))
            plain = driver(net, point, prop)
            assert (res.status, res.budget.lp_calls) == ("unsat", 0), driver.__name__
            assert res.budget.counters() == plain.budget.counters()
            assert isinstance(res.tree, ProofLeaf)
            data = prooflog.emit(res.tree, file_digest(WORKED))
            assert data == prooflog.emit(plain.tree, file_digest(WORKED))
            assert prooflog.check_proof((net, point, prop), data).accepted


class TestWorkedInstance:
    def test_unsat_under_both_strategies(self):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop)
            assert res.status == "unsat"
            assert res.tree is not None
            out = prooflog.check_proof((net, region, prop),
                                       prooflog.emit(res.tree, file_digest(WORKED)))
            assert out.accepted, out

    def test_sat_variant_yields_validated_witness(self):
        net, region = worked_network(), worked_region()
        prop = worked_prop("1/2")
        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop)
            assert res.status == "sat"
            assert validate_witness(net, region, prop, res.witness).accepted
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

    def test_midpoint_sat_builds_no_layout_and_no_shared_rows(self, monkeypatch):
        """The SAT fast path builds nothing it does not read: a run that
        ends at the midpoint builds neither the variable layout nor the
        rows every node's store shares, and an UNSAT run builds each once."""
        made = Counter()

        def spied(name, real):
            def build(*args, **kwargs):
                made[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(search, name, build)

        spied("build_layout", search.build_layout)
        spied("ProblemRows", search.ProblemRows)
        net, region = worked_network(), worked_region()
        for driver in (icl_verify, hsrv_verify):
            made.clear()
            assert driver(net, region, worked_prop("-1/2")).status == "sat"
            assert not made, driver.__name__
            assert driver(net, region, worked_prop()).status == "unsat"
            assert made == {"build_layout": 1, "ProblemRows": 1}, driver.__name__


class TestMergeDemo:
    def _run(self, strategy):
        driver = hsrv_verify if strategy == "hsrv" else icl_verify
        return driver(worked_network(), worked_region(), worked_prop(),
                      Config(first_split="domain"))

    def test_forced_root_split_produces_published_child_bounds(self):
        res = self._run("hsrv")
        assert res.status == "unsat"
        root = res.tree
        assert isinstance(root, ProofSplit)
        assert root.kind == ("domain", 0, F(1, 2))
        assert all(isinstance(leaf, ProofLeaf) for leaf in root.children)
        assert [leaf.bound for leaf in root.children] == [F(0), F(1)]

    def test_child_certificates_pass_the_dual_checker(self):
        res = self._run("hsrv")
        layout = layout_of(worked_network(), worked_prop())
        problem = (worked_network(), worked_region(), worked_prop())
        for leaf, region, alpha in scoped_leaves(res.tree, worked_region()):
            assert leaf.evidence.objective_dict == layout.margin
            assert certs.check_dual(leaf_system(problem, leaf, region, alpha), leaf.evidence).ok

    def test_merged_lemma_bounds_the_output_by_one(self):
        res = self._run("hsrv")
        assert res.tree.bound == F(1)
        assert res.budget.lemmas == 1

    def test_merge_learning_also_fires_under_icl(self):
        res = self._run("icl")
        assert res.status == "unsat"
        assert res.budget.lemmas >= 1
        out = prooflog.check_proof((worked_network(), worked_region(), worked_prop()),
                                   prooflog.emit(res.tree, file_digest(WORKED)))
        assert out.accepted, out


class TestClauseLearning:
    def test_clause_db_blocks_supersets_of_its_literals(self):
        from relucert.certs import FarkasCertificate, GuardedCertificate
        from relucert.search import ClauseDB, ClauseEntry
        from relucert.rows import GuardLiteral

        db = ClauseDB()
        lits = frozenset({GuardLiteral((1, 0), ACTIVE)})
        cert = GuardedCertificate.make(sorted(lits, key=lambda g: (g.unit, g.phase)),
                                       FarkasCertificate.make({}))
        db.append(ClauseEntry(lits, cert, rows=[]))
        hit = db.blocking({(1, 0): ACTIVE, (1, 1): INACTIVE})
        assert hit is not None and hit.cert is cert
        assert db.blocking({(1, 0): INACTIVE}) is None
        assert db.blocking({}) is None

    def test_no_run_makes_a_blocked_clause_leaf(self, monkeypatch):
        """A blocked-clause leaf would replay another node's rows, hull rows
        among them, under the seed of its own scope, and its certificates
        would cite the base rows of the other node's scope.  The fixed ids
        of `relucert-proof-10`'s base rows, guard rows among them, rely on
        no run making one: over the benchmark's `branching`, `mixed` and
        `tight-unsat` families, each under its workload's configuration, at
        both family seeds, and the worked `first_split="domain"` proof,
        under both drivers, `ClauseDB.blocking` answers every node with
        None, although the runs learn clauses."""
        from relucert import search

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import families

        answers = []
        blocking = search.ClauseDB.blocking

        def spy(db, alpha):
            answers.append(blocking(db, alpha))
            return answers[-1]

        monkeypatch.setattr(search.ClauseDB, "blocking", spy)
        configs = {"branching": TestBranchingOracleAgreement.CONFIG,
                   "mixed": Config(), "tight-unsat": Config()}
        runs = [(inst.problem, config, inst.expected)
                for name, config in configs.items()
                for seed in (families.MIXED_SEED, families.HELD_OUT_SEED)
                for inst in families.family(families.WORKLOADS[name], seed)]
        runs.append(((worked_network(), worked_region(), worked_prop()),
                     Config(first_split="domain"), "unsat"))
        learned = 0
        for problem, config, expected in runs:
            for driver in (icl_verify, hsrv_verify):
                res = driver(*problem, config)
                assert res.status == expected
                learned += res.budget.clauses
        assert (len(runs), len(answers), learned) == (285, 532, 81)
        assert [a for a in answers if a is not None] == []


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
        out = lp.lp_max(store.normalize(exclude=lambda cid, c: c.block == NEGP), layout.margin)
        if out.status == lp.OPTIMAL and (best is None or out.value > best):
            best = out.value
    return best


@functools.cache
def _suite_maximum(idx):
    from test_acceptance import _spec_suite

    # the suite is one stream: its first idx + 1 problems end on problem idx
    net, region, prop = _spec_suite(idx + 1)[idx]
    return net, region, prop, _max_margin(net, region, prop)


def tightened(idx, gap=F(1, 1000)):
    """Acceptance-suite instance `idx` with threshold + epsilon `gap` above
    the exact maximum margin: UNSAT for a positive gap, SAT for a negative
    one."""
    net, region, prop, maximum = _suite_maximum(idx)
    return net, region, SafetyProperty(prop.margin, maximum + gap - prop.epsilon, prop.epsilon)


#: (outputs, margin) of `general_margin_suite`: y0 - y1 over two outputs,
#: one output with coefficient 2, -1 or 1/3, and one output with a zero
#: coefficient on a second
GENERAL_MARGINS = (
    (2, ((0, F(1)), (1, F(-1)))),
    (1, ((0, F(2)),)),
    (1, ((0, F(-1)),)),
    (1, ((0, F(1, 3)),)),
    (2, ((0, F(2)), (1, F(0)))),
    (2, ((0, F(0)), (1, F(-1)))),
    (2, ((0, F(1, 3)), (1, F(0)))),
)


def general_margin_suite(count, seed=20241018):
    """`count` problems of the acceptance suite's shape (<= 3 hidden layers,
    <= 4 neurons per layer, denominators <= 8, <= 6 units unstable at the
    root), their margins in turn those of GENERAL_MARGINS; a second output
    gets a random row.  Every second problem has threshold + epsilon 1/1000
    above or below the exact maximum margin, in turn; the others keep their
    random threshold."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        net, region, prop = random_instance(rng, max_hidden_layers=3, max_width=4, max_den=8)
        if _count_unstable(net, region) > 6:
            continue
        outputs, margin = GENERAL_MARGINS[len(out) % len(GENERAL_MARGINS)]
        if outputs == 2:
            last = net.layers[-1]
            row = tuple(rand_rational(rng, 8) for _ in last.weights[0])
            net = Network(net.layers[:-1] + (Layer(last.weights + (row,), last.bias + (
                rand_rational(rng, 8),), IDENTITY),), net.input_dim, 2)
        prop = SafetyProperty(margin, prop.threshold, prop.epsilon)
        if len(out) % 2:
            gap = F(1, 1000) if len(out) % 4 == 1 else F(-1, 1000)
            prop = SafetyProperty(margin, _max_margin(net, region, prop) + gap - prop.epsilon,
                                  prop.epsilon)
        out.append((net, region, prop))
    return out


class TestGeneralMargins:
    """Margins other than one output with coefficient 1, end to end: each
    verdict is the oracle's under both drivers, with the default flags and
    with margin-only templates and a one-LP gate, each witness validates and
    each proof is ACCEPTed."""

    def test_verdicts_match_the_oracle_and_proofs_replay(self, tmp_path):
        seen = Counter()
        for idx, (net, region, prop) in enumerate(general_margin_suite(56)):
            truth = oracle_verify(net, region, prop)
            if idx % 2:  # threshold + epsilon 1/1000 above or below the maximum
                assert truth.status == ("unsat" if idx % 4 == 1 else "sat"), idx
            path = tmp_path / f"g{idx}.json"
            dump_problem(net, region, prop, path)
            for config in (Config(), TestBranchingOracleAgreement.CONFIG):
                for driver in (icl_verify, hsrv_verify):
                    res = driver(net, region, prop, config)
                    where = (idx, config.templates, driver.__name__)
                    assert res.status == truth.status, where
                    seen[res.status] += 1
                    seen["splits"] += res.budget.splits
                    if res.status == "sat":
                        assert validate_witness(net, region, prop, res.witness).accepted, where
                        continue
                    digest = file_digest(path)
                    out = prooflog.check_proof((net, region, prop),
                                               prooflog.emit(res.tree, digest), digest)
                    assert out.accepted, (where, out)
        assert seen["sat"] >= 40 and seen["unsat"] >= 40 and seen["splits"] >= 1


def _splits(entry):
    if isinstance(entry, ProofSplit):
        yield entry
        for child in entry.children:
            yield from _splits(child)


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
        phase_splits = bounds = proofs = 0
        for idx in (57, 89):
            for gap in (F(1, 1000), F(-1, 1000)):
                net, region, tight = tightened(idx, gap)
                assert _count_unstable(net, region) >= 4
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
                    digest = file_digest(path)
                    out = prooflog.check_proof((net, region, tight),
                                               prooflog.emit(res.tree, digest), digest)
                    assert out.accepted, (idx, driver.__name__, out)
                    proofs += 1
                    splits = list(_splits(res.tree))
                    phase_splits += sum(sp.kind[0] == "phase" for sp in splits)
                    merged = sum(sp.bound is not None for sp in splits)
                    assert merged == res.budget.lemmas
                    bounds += merged
        assert proofs == 4
        assert phase_splits >= 1 and bounds >= 1


class TestTrimmedLeaves:
    """A leaf keeps only the rows its certificates reach (`Store.cone`).
    Against runs whose leaves keep every row of their store, as they did
    before, on the first 40 problems of the acceptance suite with the
    default flags and on three branching instances (margin-only templates,
    a one-LP gate), under both drivers: the same verdicts, witnesses, Budget
    counters and split trees; each leaf's rows a subset of its store's
    rows, under the same ids; and every proof ACCEPTed."""

    def test_trimming_changes_only_the_leaf_rows(self, tmp_path, monkeypatch):
        from test_acceptance import _spec_suite

        cone = Store.cone
        runs = [(problem, Config()) for problem in _spec_suite(40)]
        runs += [(tightened(idx), TestBranchingOracleAgreement.CONFIG) for idx in (42, 57, 89)]
        seen = Counter()
        for k, (problem, config) in enumerate(runs):
            path = tmp_path / f"p{k}.json"
            dump_problem(*problem, path)
            digest = file_digest(path)
            for driver in (icl_verify, hsrv_verify):
                monkeypatch.setattr(Store, "cone",
                                    lambda store, rids: list(store.constraints.items()))
                full = driver(*problem, config)
                monkeypatch.setattr(Store, "cone", cone)
                res = driver(*problem, config)
                where = (k, driver.__name__)
                assert (res.status, res.witness, res.budget.counters()) == (
                    full.status, full.witness, full.budget.counters()), where
                seen[res.status] += 1
                if res.tree is None:
                    continue
                assert [sp.kind for sp in _splits(res.tree)] == \
                    [sp.kind for sp in _splits(full.tree)], where
                region = problem[1]
                for (leaf, _, _), (whole, _, _) in zip(scoped_leaves(res.tree, region),
                                                       scoped_leaves(full.tree, region),
                                                       strict=True):
                    assert dict(leaf.rows).items() <= dict(whole.rows).items(), where
                    assert (leaf.cover, leaf.evidence) == (whole.cover, whole.evidence), where
                    seen["rows kept"] += len(leaf.rows)
                    seen["rows"] += len(whole.rows)
                out = prooflog.check_proof(problem, prooflog.emit(res.tree, digest), digest)
                assert out.accepted, (where, out)
                seen["splits"] += res.budget.splits
        assert seen["sat"] >= 20 and seen["unsat"] >= 20 and seen["splits"] >= 10, seen
        assert seen["rows kept"] < 0.8 * seen["rows"], seen


def _reference_reads(store) -> dict:
    """Per row id, the ids of the rows it rests on, by the rule `check`
    rebuilds rows by, found over the store's rows alone in one id-order
    rescan (as `Store.cone` once did): a derived row rests on the rows its
    certificate cites; a hull or `stabilize` row rests, per end of its
    unit's pre-activation s that it reads, on the tightest single-variable
    row on s of smaller id.  The chord reads both ends, hull row 3 the
    upper one, rows 0 and 1 none, and a `stabilize` row the end that fixes
    its sign."""
    reads = {}
    # per variable and end (True: upper), the (bound, id) of its tightest
    # single-variable row so far
    tightest = {}
    for cid, c in sorted(store.constraints.items()):
        kind, *tag = c.derivation
        if kind == "derived":
            reads[cid] = {rid[1] for rid, _ in tag[0].multipliers if rid[0] == "c"}
        elif kind in ("hull", "stabilize"):
            s = store.layout.pre_index(tag[0])
            if kind == "hull":
                ends = ((), (), (True, False), (True,))[tag[1]]
            else:
                ends = (tag[1] == INACTIVE,)
            reads[cid] = {tightest[s, up][1] for up in ends if (s, up) in tightest}
        _, coeffs, b = c.sides[0].ints
        if len(c.sides) == 1 and len(coeffs) == 1:
            (j, a), = coeffs.items()
            # a x <= b: x <= bound for a > 0, -x <= bound for a < 0
            up, bound = a > 0, F(b, abs(a))
            if (j, up) not in tightest or bound < tightest[j, up][0]:
                tightest[j, up] = (bound, cid)
    return {cid: ids for cid, ids in reads.items() if ids}


class TestConeWalk:
    """`Store.cone` walks the premises propagation records when it writes a
    row.  `close` calls it once per leaf; spied there, on the default
    flags and margin-only templates with a one-LP gate, over the
    branching instances whose default proofs keep hull rows built over
    derived rows (`test_prooflog._REFRESHED`) and 57 and 89, under both
    drivers: every row of the leaf's store records the premises
    `_reference_reads` finds, and the leaf's cone is their closure from the
    rows its certificates cite, in id order."""

    def test_every_leaf_cone_is_the_rebuild_rule_closure(self, monkeypatch):
        from test_prooflog import _REFRESHED

        cone = Store.cone
        seen = Counter()

        def spy(store, rids):
            rids = list(rids)
            reads = _reference_reads(store)
            assert {cid: set(ids) for cid, ids in store.premises.items()} == reads
            keep = {rid[1] for rid in rids if rid[0] == "c"}
            for cid in sorted(store.constraints, reverse=True):
                if cid in keep:
                    keep.update(reads.get(cid, ()))
            rows = cone(store, rids)
            assert rows == [(cid, store.constraints[cid]) for cid in sorted(keep)]
            seen["leaves"] += 1
            seen.update(c.derivation[0] for cid, c in rows if cid in reads)
            seen.update(f"hull {c.derivation[2]}" for cid, c in store.constraints.items()
                        if cid in reads and c.derivation[0] == "hull")
            return rows

        monkeypatch.setattr(Store, "cone", spy)
        for idx in (*_REFRESHED, 57, 89):
            for config in (Config(), TestBranchingOracleAgreement.CONFIG):
                for driver in (icl_verify, hsrv_verify):
                    assert driver(*tightened(idx), config).status == "unsat", (idx, config)
        # rows in cones that rest on others, of each kind propagation
        # writes, and store rows of hull rows 2 and 3 that do
        assert seen["leaves"] >= 70 and min(seen[k] for k in (
            "derived", "hull", "stabilize", "hull 2", "hull 3")) >= 10, seen


class TestIntervalRowsLeftOut:
    """No LP holds a row that states a unit's seed interval, which
    `relucert-proof-8` kept in the store as two `interval` rows, since the
    rows an LP reads imply it.  Against runs whose LPs read each ReLU
    unit's seed as two such rows besides, where that format's store held
    them (before the unit's first hull or `stabilize` row, and every one
    before the first derived row), on the first 40 problems of the
    acceptance suite with the default flags and on three branching
    instances (margin-only templates, a one-LP gate), under both drivers:
    the same verdicts, witnesses, Budget counters, split trees and proof
    bytes."""

    def test_leaving_interval_rows_out_moves_no_decision(self, tmp_path, monkeypatch):
        from test_acceptance import _spec_suite

        from relucert import search
        from relucert.store import bound_form

        normalize, build = Store.normalize, search.build_initial_store
        seeds = {}  # id of a store -> (unit, its seed as two rows), in unit order

        def seeded(*args):
            store = build(*args)
            seeds[id(store)] = [(unit, [NormRow(("seed", unit, side), bound_form(
                store.layout.pre_index(unit), sign, sign * end))
                for side, sign, end in (("up", 1, hi), ("lo", -1, lo))])
                for unit, (lo, hi) in store.bounds.pre.items()]
            return store

        def with_interval_rows(store, exclude=None):
            pending = list(seeds[id(store)])
            rows = []
            for cid, c in store.active_constraints():
                if exclude is not None and exclude(cid, c):
                    continue
                kind = c.derivation[0]
                while pending and (kind == "derived" or kind in ("hull", "stabilize")
                                   and pending[0][0] <= c.derivation[1]):
                    rows.extend(pending.pop(0)[1])
                rows.extend(c.sides)
            for _, seed in pending:
                rows.extend(seed)
            return NormalizedSystem(rows, store.layout.n_vars)

        runs = [(problem, Config()) for problem in _spec_suite(40)]
        runs += [(tightened(idx), TestBranchingOracleAgreement.CONFIG) for idx in (42, 57, 89)]
        seen = Counter()
        monkeypatch.setattr(search, "build_initial_store", seeded)
        for k, (problem, config) in enumerate(runs):
            path = tmp_path / f"p{k}.json"
            dump_problem(*problem, path)
            digest = file_digest(path)
            for driver in (icl_verify, hsrv_verify):
                monkeypatch.setattr(Store, "normalize", with_interval_rows)
                full = driver(*problem, config)
                monkeypatch.setattr(Store, "normalize", normalize)
                res = driver(*problem, config)
                where = (k, driver.__name__)
                assert (res.status, res.witness, res.budget.counters()) == (
                    full.status, full.witness, full.budget.counters()), where
                seen[res.status] += 1
                if res.tree is None:
                    continue
                assert [sp.kind for sp in _splits(res.tree)] == \
                    [sp.kind for sp in _splits(full.tree)], where
                assert prooflog.emit(res.tree, digest) == prooflog.emit(full.tree, digest), where
                seen["splits"] += res.budget.splits
        assert seen["sat"] >= 20 and seen["unsat"] >= 20 and seen["splits"] >= 10, seen


def _shared_value(shared):
    """What a run's `ProblemRows` holds, by value."""
    rows = [(r.derivation, r.block, [(side.rid, side.ints) for side in r.sides])
            for r in shared.affine + [shared.negp]]
    return rows, shared.aff_ids, shared.negp_id


class TestSharedRows:
    """A run builds its affine rows and its negated property once, and
    every node's store holds those very objects.  After runs that split,
    merge, tighten and learn, those rows still equal a fresh build: no
    node, LP or proof has mutated a shared row."""

    def test_shared_rows_are_never_mutated(self, monkeypatch):
        from relucert import search, store as storemod

        made, stores = [], 0
        real_rows, real_build = search.ProblemRows, search.build_initial_store

        def recording_rows(*args):
            made.append((args, real_rows(*args)))
            return made[-1][1]

        def sharing_build(net, layout, region, prop, alpha, shared=None):
            nonlocal stores
            store = real_build(net, layout, region, prop, alpha, shared)
            assert shared is made[-1][1] and store.shared is shared
            assert all(store.constraints[cid] is row for cid, row in enumerate(shared.affine))
            assert store.constraints[shared.negp_id] is shared.negp
            stores += 1
            return store

        monkeypatch.setattr(search, "ProblemRows", recording_rows)
        monkeypatch.setattr(search, "build_initial_store", sharing_build)
        # 181 keeps the splits and lemmas at their floors, now that splits
        # on the largest chord term make smaller trees
        runs = [(tightened(idx), TestBranchingOracleAgreement.CONFIG)
                for idx in (42, 57, 89, 181)]
        runs += [(tightened(57), Config()),
                 ((worked_network(), worked_region(), worked_prop()),
                  Config(first_split="domain"))]
        splits = lemmas = 0
        for problem, config in runs:
            for driver in (icl_verify, hsrv_verify):
                res = driver(*problem, config)
                assert res.status == "unsat"
                prooflog.emit(res.tree, "0" * 64)
                splits += res.budget.splits
                lemmas += res.budget.lemmas
        assert len(made) == 2 * len(runs) and stores > len(made)
        assert splits >= 10 and lemmas >= 5, (splits, lemmas)
        for args, shared in made:
            assert _shared_value(shared) == _shared_value(storemod.ProblemRows(*args))
            # the network's integer weights, which every row above is built
            # from, equal those of a fresh copy of the network
            net = args[0]
            assert net.ints == dataclasses.replace(net).ints


def _propagation_results(monkeypatch):
    """The list of every `PropagationResult` that `propagate_node` makes
    from now on, including one whose call a spent budget ends."""
    made = []
    real = propagate.PropagationResult

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(propagate, "PropagationResult", spy)
    return made


def _stabilized(made) -> int:
    return sum(len(res.stability_certs) for res in made)


class TestStabilizedCount:
    """`budget.stabilized` counts the units of the `stability_certs` of the
    run's `propagate_node` calls, one for one."""

    def test_branching_runs_count_each_stabilized_unit_once(self, monkeypatch):
        made = _propagation_results(monkeypatch)
        stabilized = 0
        # 181 keeps the count at its floor, now that splits on the largest
        # chord term make smaller trees
        for idx in (42, 57, 89, 181):
            for driver in (icl_verify, hsrv_verify):
                made.clear()
                res = driver(*tightened(idx), TestBranchingOracleAgreement.CONFIG)
                assert res.status == "unsat"
                assert res.budget.stabilized == _stabilized(made), (idx, driver.__name__)
                stabilized += res.budget.stabilized
        assert stabilized >= 80


class TestLpBudget:
    """A run under an LP budget makes at most that many LPs and answers its
    unbudgeted verdict or UNKNOWN `reason=resource`; at exactly its own LP
    count it is the unbudgeted run.  Its `budget.stabilized` counts the
    units its propagation stabilized, in the call the budget ended too."""

    def test_every_budget_up_to_the_runs_own_lp_count(self, tmp_path, monkeypatch):
        made = _propagation_results(monkeypatch)
        runs = resource = 0
        # instances 32, 46, 181 and 193 keep the sweep at 400 runs or more,
        # now that the others make fewer LPs
        for idx, gap in itertools.product((32, 42, 46, 53, 57, 89, 181, 193),
                                          (F(1, 1000), F(-1, 1000))):
            net, region, prop = tightened(idx, gap)
            path = tmp_path / f"p{idx}.json"
            dump_problem(net, region, prop, path)
            for config in (Config(), TestBranchingOracleAgreement.CONFIG):
                for driver in (icl_verify, hsrv_verify):
                    full = driver(net, region, prop, config)
                    for lp_budget in range(full.budget.lp_calls + 1):
                        made.clear()
                        res = driver(net, region, prop,
                                     dataclasses.replace(config, lp_budget=lp_budget))
                        where = (idx, gap, config, driver.__name__, lp_budget)
                        assert res.budget.lp_calls <= lp_budget, where
                        assert (res.status, res.reason) in ((full.status, ""),
                                                            ("unknown", "resource")), where
                        if res.reason == "resource":
                            assert res.budget.stabilized == _stabilized(made), where
                            resource += 1
                        runs += 1
                    assert res.status == full.status and res.witness == full.witness, where
                    if full.tree is not None:
                        digest = file_digest(path)
                        assert prooflog.emit(res.tree, digest) == prooflog.emit(full.tree, digest)
        assert runs >= 400 and resource >= 350

    def test_no_split_once_the_budget_is_spent(self):
        # the root's gate makes the run's 18th LP and needs another: the run
        # ends there, not after a split whose children can make no LP (and
        # which would stabilize two more units)
        res = hsrv_verify(*tightened(42), Config(lp_budget=18))
        assert (res.status, res.reason) == ("unknown", "resource")
        assert res.budget.lp_calls == 18
        assert res.budget.splits == 0 and res.budget.stabilized == 2
        # the root's one LP spends the budget; the gate answers its one
        # query from the node's point, with no LP, and defers
        res = icl_verify(*tightened(42),
                         dataclasses.replace(TestBranchingOracleAgreement.CONFIG, lp_budget=1))
        assert (res.status, res.reason) == ("unknown", "resource")
        assert res.budget.lp_calls == 1 and res.budget.gate_calls == 1
        assert res.budget.splits == 0


class TestMaxDepth:
    """`max_depth` caps the split depth: each split's children are one level
    deeper, and a node at the cap that stays open answers UNKNOWN `depth`."""

    def test_each_level_of_depth_allows_one_more_split(self):
        # per level one pass with one LP, and the gate's one query: answered
        # by the node's point under icl, an LP with the unstable units exact
        # under hsrv.  Instance 415's search is three levels deep and its
        # first two levels stay open
        net, region, prop = tightened(415)
        for driver, per_level in ((icl_verify, 1), (hsrv_verify, 2)):
            for max_depth in (0, 1, 2):
                config = dataclasses.replace(TestBranchingOracleAgreement.CONFIG,
                                             max_depth=max_depth)
                res = driver(net, region, prop, config)
                assert (res.status, res.reason) == ("unknown", "depth"), max_depth
                assert res.budget.splits == max_depth
                assert res.budget.lp_calls == per_level * (max_depth + 1)

    def test_a_proof_is_no_deeper_than_the_cap(self):
        # instance 57's search splits twice, one split under the other
        net, region, prop = tightened(57)
        config = dataclasses.replace(TestBranchingOracleAgreement.CONFIG, max_depth=2)

        def depth(entry):
            if isinstance(entry, ProofSplit):
                return 1 + max(depth(child) for child in entry.children)
            return 0

        for driver in (icl_verify, hsrv_verify):
            res = driver(net, region, prop, config)
            assert res.status == "unsat" and res.budget.splits == 2
            assert depth(res.tree) == 2

    def test_a_search_deeper_than_the_interpreter_stack_is_unknown_depth(self):
        # at every stack size, from one too small for the root node up to
        # one that holds the whole search, the run answers its verdict or
        # UNKNOWN `depth`, never a RecursionError
        net, region, prop = tightened(57)
        config = dataclasses.replace(TestBranchingOracleAgreement.CONFIG, max_depth=10**6)
        full = icl_verify(net, region, prop, config)
        limit = sys.getrecursionlimit()
        answers = []
        for spare in range(20, 100, 5):
            sys.setrecursionlimit(len(inspect.stack()) + spare)
            try:
                res = icl_verify(net, region, prop, config)
            finally:
                sys.setrecursionlimit(limit)
            answers.append((res.status, res.reason))
        assert set(answers) == {("unknown", "depth"), (full.status, "")}
        assert answers[0] == ("unknown", "depth") and answers[-1] == ("unsat", "")


class TestProofPins:
    """SHA-256 of emitted proofs.  A change to the proof format or to the
    order in which the search visits nodes, or to the LP that produces a
    certificate, must re-pin them.  57 and 89 were re-pinned when a node
    below the root came to close with its margin LP: every leaf of theirs
    is refuted by that LP's dual plus the negated-property row, and none by
    back-substitution, which is not tried there without a TGCT LP to save.
    The worked proof's two leaves are refuted the same way, with the
    multipliers the feasibility LP found, so its pin held.  All three were
    re-pinned when the format became `relucert-proof-6`: each proof is the
    `relucert-proof-5` proof with every interval bound row written as its
    `["interval", unit, side]` tag instead of a derived row with its row,
    rhs and multipliers, and the new format string; every other byte is the
    same.  57 and 89 were re-pinned when a stabilized unit came to add only
    its phase equality: each proof is the earlier one with every
    `["stabilize", unit, phase, 1]` sign row deleted, the rows after it
    renumbered and the multipliers citing them renamed to match.  The
    worked proof held its pin: each of its sign rows equalled an interval
    row already in the store, which the store then did not add again.  All
    three were re-pinned when the format became `relucert-proof-7`: each
    proof is the `relucert-proof-6` proof with each leaf's snapshot rows
    moved into the leaf, each cover item's certificate in place of its
    `{"cert", "snapshot"}` item, the snapshot table, every snapshot id and
    region and the root region dropped, every `stabilize` tag without its
    trailing 0, and the new format string.  All three were re-pinned when
    the format became `relucert-proof-8`: each proof is the
    `relucert-proof-7` proof with only its format string replaced.  All
    three were re-pinned when a leaf came to keep only the rows its
    certificates reach (`Store.cone`): each proof is the earlier one with
    every other row of each leaf deleted, ids unchanged; every other byte
    is the same.  57 was re-pinned when the simplex came to keep
    single-variable rows as bounds: its tree, splits, guards and leaves are
    the earlier proof's, and only the multipliers of degenerate optima, and
    so the rows each leaf keeps, moved; the worked proof and 89 held their
    pins.  57 and 89 were re-pinned when a phase split came to split the
    unit whose hull chord adds most to the node's back-substituted margin
    bound: 57 splits (2, 0) at its root where it split (2, 1), in 2 splits
    where it made 4, and 89 makes 1 split where it made 2.  The parent's
    and the new proofs give the same verdicts and are both ACCEPTed by the
    same checker; the worked proof, a domain split, held its pin.  All
    three were re-pinned when the format became `relucert-proof-9`, which
    has no `interval` rows: `check` seeds each unit's interval from the
    leaf's scope.  Each proof is the earlier one with the new format
    string, its interval rows dropped, and with them the region, hull and
    `stabilize` rows that only they rested on, its other rows renumbered in
    order; each cover and bound is the earlier one over the renumbered
    rows (compared leaf by leaf).  Under both drivers the verdicts, Budget
    counters and split kinds equal the parent's, and both checkers ACCEPT
    their proofs.  The proofs shrank from 1,581, 3,333 and
    3,102 bytes to 1,310, 2,411 and 1,256.  All three were re-pinned when
    the format became `relucert-proof-10`, whose leaves list no base row:
    each proof is the earlier one with the new format string and every
    `aff`, `region`, `negp` and `guard` row deleted, ids unchanged; every
    other byte is the same.  They shrank to 1,033, 1,719 and 959 bytes.
    All three were re-pinned when the format became `relucert-proof-11`,
    whose derived rows hold TGCT bounds rounded outward: none of them holds
    a derived row, so each proof is the earlier one with only its format
    string replaced."""

    PINS = {
        "worked": "6bda2bf379c21c730b9a21dc65a6ebd70f30223eebcadab8d16087cbfe172dc9",
        57: "2b238276bd87f305dcdc757017248a4f85527eb39734d6730a2666aac06ea5cf",
        89: "50570df544692bc138cf9e4411dccd2211d4ee57ba4212d10f3b3c5dd61aaeef",
    }

    def test_proof_bytes_are_pinned(self, tmp_path):
        for driver in (icl_verify, hsrv_verify):
            res = driver(worked_network(), worked_region(), worked_prop(),
                         Config(first_split="domain"))
            digest = hashlib.sha256(prooflog.emit(res.tree, file_digest(WORKED))).hexdigest()
            assert digest == self.PINS["worked"], driver.__name__
            for idx in (57, 89):
                net, region, prop = tightened(idx)
                path = tmp_path / f"p{idx}.json"
                dump_problem(net, region, prop, path)
                res = driver(net, region, prop, TestBranchingOracleAgreement.CONFIG)
                digest = hashlib.sha256(prooflog.emit(res.tree, file_digest(path))).hexdigest()
                assert digest == self.PINS[idx], (idx, driver.__name__)


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
            res = PropagationResult("open")
            assert _margin_lp(store, Budget(), res) is None
            assert res.evidence.bound >= prop.violation_threshold
            opened += 1
        assert opened >= 5


class TestEveryLpIsNew:
    """A node makes only the LPs it cannot answer otherwise: no LP sees the
    row ids and objective of the LP just before it at the same node."""

    def test_no_lp_repeats_the_one_before_it(self, monkeypatch):
        from relucert import search

        seen = []  # per node: (row ids, objective) of each LP
        build = search.build_initial_store

        def node(*args):
            seen.append([])
            return build(*args)

        def spying(solve, objective):
            def spy(sys, *args, **kwargs):
                seen[-1].append((tuple(r.rid for r in sys.rows), objective(args)))
                return solve(sys, *args, **kwargs)
            return spy

        problems = {(idx, gap): tightened(idx, gap)
                    for idx in (42, 57, 89, 181) for gap in (F(1, 1000), F(-1, 1000))}
        monkeypatch.setattr(search, "build_initial_store", node)
        monkeypatch.setattr(lp, "lp_feasible", spying(lp.lp_feasible, lambda args: None))
        monkeypatch.setattr(lp, "lp_max", spying(lp.lp_max,
                                                 lambda args: tuple(sorted(args[0].items()))))
        lps = 0
        for where, problem in problems.items():
            for config in (Config(), TestBranchingOracleAgreement.CONFIG):
                for driver in (icl_verify, hsrv_verify):
                    seen.clear()
                    driver(*problem, config)
                    for calls in seen:
                        for before, after in zip(calls, calls[1:]):
                            assert before != after, (where, config, driver.__name__)
                        lps += len(calls)
        assert lps >= 100, lps


class TestLeafBounds:
    """A leaf's margin bound is the maximum of the margin over its rows
    without the negated property, made by `propagate._margin_lp` whether it
    is the node's closing LP or made after back-substitution or a TGCT LP
    refuted the node."""

    def test_every_leaf_bound_is_its_snapshots_margin_maximum(self, monkeypatch):
        from relucert import propagate

        paths = Counter()
        refuted = [False]  # did the node's last refutation attempt succeed
        back_substitution, tgct, margin_lp = (propagate.back_substitution, propagate.tgct,
                                              propagate._margin_lp)

        def substituted(*args):
            out = back_substitution(*args)
            refuted[0] = out.rho < 0
            return out

        def tightening(*args):
            out = tgct(*args)
            refuted[0] = out.farkas is not None
            return out

        def counted(*args):
            paths["after refutation" if refuted[0] else "closing"] += 1
            return margin_lp(*args)

        monkeypatch.setattr(propagate, "back_substitution", substituted)
        monkeypatch.setattr(propagate, "tgct", tightening)
        monkeypatch.setattr(propagate, "_margin_lp", counted)
        worked = (worked_network(), worked_region(), worked_prop())
        runs = [(worked, Config(first_split="domain"))]
        runs += [(tightened(idx), Config(first_split="domain")) for idx in (42, 57, 89)]
        runs += [(tightened(idx), TestBranchingOracleAgreement.CONFIG) for idx in (57, 89, 181)]
        for problem, config in runs:
            layout = build_layout(problem[0], problem[2])
            for driver in (icl_verify, hsrv_verify):
                res = driver(*problem, config)
                assert res.status == "unsat"
                for leaf, region, alpha in scoped_leaves(res.tree, problem[1]):
                    if leaf.evidence is None:
                        continue
                    negp = {cid for cid, c in leaf.rows if c.derivation == ("negp",)}
                    system = leaf_system(problem, leaf, region, alpha)
                    rows = NormalizedSystem([r for r in system.rows if r.rid[1] not in negp],
                                            system.n_vars)
                    out = lp.lp_max(rows, layout.margin)
                    assert out.status == lp.OPTIMAL and out.value == leaf.bound
                    paths["bounds"] += 1
        assert paths["bounds"] >= 25 and paths["after refutation"] >= 2, paths
        assert paths["closing"] >= 10, paths


class TestDecisionPins:
    """The Budget counters of three branching-suite instances, all but
    `lp_calls`, as the search made them before the node LPs that repeat an
    answer the node already had were cut: splits, gate calls, stabilized
    units, merge lemmas and conflict clauses.  The conflict clauses of the
    default-configuration gate prunes of 42 and 89 were re-pinned when the
    gate's cover came to list each certificate once: each count fell by
    exactly the certificates the cover had listed a second time.  The
    branching-configuration counters were re-pinned when a phase split came
    to split the unit whose hull chord adds most to the node's
    back-substituted margin bound: the trees are smaller, and the verdicts
    and the acceptance of every proof held (old values in CHANGES.md).  The
    conflict clauses of (42, default, hsrv) went from 8 to 9 when TGCT came
    to tighten only the units whose chord the back-substituted sum uses:
    the root's rows are looser, and the gate's cover lists one certificate
    more; the verdict held and `check` accepts the proof."""

    PINS = {
        (42, "default", "icl"): (0, 1, 2, 0, 3),
        (42, "default", "hsrv"): (0, 1, 2, 0, 9),
        (42, "branching", "icl"): (2, 2, 10, 0, 3),
        (42, "branching", "hsrv"): (2, 2, 10, 0, 3),
        (57, "default", "icl"): (0, 0, 3, 0, 0),
        (57, "default", "hsrv"): (0, 0, 3, 0, 0),
        (57, "branching", "icl"): (2, 2, 5, 0, 3),
        (57, "branching", "hsrv"): (2, 2, 5, 0, 3),
        (89, "default", "icl"): (0, 1, 1, 0, 2),
        (89, "default", "hsrv"): (0, 1, 1, 0, 4),
        (89, "branching", "icl"): (1, 1, 3, 1, 2),
        (89, "branching", "hsrv"): (1, 1, 3, 1, 2),
    }

    def test_counters_are_pinned(self):
        configs = {"default": Config(), "branching": TestBranchingOracleAgreement.CONFIG}
        drivers = {"icl": icl_verify, "hsrv": hsrv_verify}
        for (idx, config, driver), pin in self.PINS.items():
            res = drivers[driver](*tightened(idx), configs[config])
            counters = res.budget.counters()
            assert res.status == "unsat"
            assert tuple(counters[key] for key in ("splits", "gate_invocations",
                                                   "stabilized_units", "lemmas_learned",
                                                   "clauses_learned")) == pin, (idx, config, driver)


class TestBranchingSplitCounts:
    """The splits and LP calls of the benchmark's `branching` family, summed
    over its eight instances, at both family seeds, under both drivers.  A
    change to the split rule shows up here.  Splitting the widest-straddling
    unit made 18 splits and 43 LPs (icl) and 18 and 61 (hsrv) at the first
    seed, and 13 and 33, 13 and 46 at the held-out seed."""

    PINS = {
        ("mixed-seed", "icl"): (8, 23),
        ("mixed-seed", "hsrv"): (8, 31),
        ("held-out", "icl"): (6, 19),
        ("held-out", "hsrv"): (6, 25),
    }

    def test_totals_are_pinned(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import families

        seeds = {"mixed-seed": families.MIXED_SEED, "held-out": families.HELD_OUT_SEED}
        drivers = {"icl": icl_verify, "hsrv": hsrv_verify}
        for (seed, driver), pin in self.PINS.items():
            splits = lps = 0
            for inst in families.family(families.WORKLOADS["branching"], seeds[seed]):
                res = drivers[driver](*inst.problem, TestBranchingOracleAgreement.CONFIG)
                assert res.status == "unsat", (seed, driver, inst.idx)
                splits += res.budget.splits
                lps += res.budget.lp_calls
            assert (splits, lps) == pin, (seed, driver)
