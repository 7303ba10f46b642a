"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and reports a single
PASS line on the terminal (failures surface as ordinary assertion errors).
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from conftest import (
    WORKED,
    WORKED_SAT,
    dump_problem,
    layout_of,
    mutate_rational_field,
    random_instance,
    snapshot_system,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, gate, prooflog
from relucert.budget import Budget
from relucert.certs import DualBoundCertificate, FarkasCertificate, check_dual, check_farkas
from relucert.cli import EXIT_SAT, EXIT_UNSAT, main
from relucert.model import build_layout, forward_eval, validate_witness
from relucert.propagate import Template, default_templates, propagate_node, tgct
from relucert.search import (
    Config,
    LemmaStore,
    MergeJustification,
    ProofLeaf,
    ProofSplit,
    hsrv_verify,
    icl_verify,
    oracle_verify,
)
from relucert.store import (
    NormRow,
    NormalizedSystem,
    build_initial_store,
    interval_bounds,
)


@pytest.fixture
def report(capsys):
    def _p(msg):
        with capsys.disabled():
            print(msg)
    return _p


def _root_unstable(net, region):
    bounds = interval_bounds(net, region, {})
    return [u for u in net.hidden_units if bounds[u][0] < 0 < bounds[u][1]]


def _spec_suite(count, seed=20240824):
    """Random problems: <=3 hidden layers, <=4 neurons/layer, denominators
    <=8, <=6 unstable units at the root."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        net, region, prop = random_instance(rng, max_hidden_layers=3, max_width=4,
                                            max_den=8)
        if len(_root_unstable(net, region)) <= 6:
            out.append((net, region, prop))
    return out


class TestAcceptance:
    def test_01_worked_farkas_certificate_exact(self, report):
        # rows over v = (z1, z2, y):
        #   (1) z1 <= 1   (2) -z2 <= 0   (3) -z1 + z2 + y <= 0   (4) -y <= -11/10
        sys = NormalizedSystem([
            NormRow({0: F(1)}, F(1), ("c", 0, "le")),
            NormRow({1: F(-1)}, F(0), ("c", 1, "le")),
            NormRow({0: F(-1), 1: F(1), 2: F(1)}, F(0), ("c", 2, "le")),
            NormRow({2: F(-1)}, F(-11, 10), ("c", 3, "le")),
        ], 3)
        lam = FarkasCertificate.make({("c", i, "le"): F(1) for i in range(4)})
        combo, rhs = certs._combine(sys, lam.multipliers)
        assert combo == {}          # lambda^T A = (0, 0, 0)
        assert rhs == F(-1, 10)     # lambda^T b = -1/10
        start = time.perf_counter()
        res = check_farkas(sys, lam)
        elapsed = time.perf_counter() - start
        assert res.ok
        assert elapsed < 0.010, f"check took {elapsed * 1000:.2f} ms"
        report(f"ACCEPTANCE 1: PASS - all-ones Farkas vector accepted exactly "
               f"(lambda^T b = -1/10) in {elapsed * 1e6:.0f} us")

    def test_02_end_to_end_unsat_both_strategies(self, report, capsys, tmp_path):
        start = time.perf_counter()
        for strategy in ("icl", "hsrv"):
            proof = tmp_path / f"{strategy}.proof"
            code = main(["verify", WORKED, "--strategy", strategy,
                         "--emit-proof", str(proof)])
            assert code == EXIT_UNSAT, strategy
            assert main(["check", WORKED, str(proof)]) == 0, strategy
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        report(f"ACCEPTANCE 2: PASS - verify exits 0 under icl and hsrv, proofs "
               f"re-checked, in {elapsed:.3f} s")

    def test_03_end_to_end_sat_with_validated_witness(self, report, capsys, tmp_path):
        start = time.perf_counter()
        witness_file = tmp_path / "w.txt"
        code = main(["verify", WORKED_SAT, "--witness", str(witness_file)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == EXIT_SAT
        x = tuple(F(line) for line in witness_file.read_text().splitlines())
        y = forward_eval(worked_network(), x).outputs[0]
        assert y >= F(1, 2), f"forward_eval gave y = {y}"
        assert worked_region().contains(x)
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        report(f"ACCEPTANCE 3: PASS - SAT exit 1, witness x = {x[0]} gives "
               f"y = {y} >= 1/2, in {elapsed:.3f} s")

    def test_04_merge_demo_matches_published_bounds(self, report):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        res = hsrv_verify(net, region, prop, Config(first_split="domain"))
        assert res.status == "unsat"
        root = res.proof.root
        assert isinstance(root, ProofSplit) and root.kind == ("domain", 0, F(1, 2))
        assert all(isinstance(leaf, ProofLeaf) for leaf in root.children)
        # the published child bounds are the merge lemma's evidence
        entry, = res.proof.lemmas
        children = entry.justification.children
        assert [beta for _, _, beta, _, _ in children] == [F(0), F(1)]
        for _, _, beta, cert, sid in children:
            assert cert.bound == beta
            assert check_dual(snapshot_system(res.proof, sid), cert).ok
        layout = layout_of(net, prop)
        assert dict(entry.row) == {layout.margin_index: F(1)} and entry.bound == F(1)
        assert isinstance(entry.justification, MergeJustification)
        report("ACCEPTANCE 4: PASS - forced root split at 1/2 gives child bounds "
               "beta1=0, beta2=1 and merged lemma y <= 1; child certificates "
               "pass check_dual")

    def test_05_oracle_equivalence_over_100_random_networks(self, report, tmp_path):
        start = time.perf_counter()
        suite = _spec_suite(100)
        sat = unsat = proofs = 0
        # SAT verdicts per driver decided by the midpoint probe (no LP) and by
        # an LP; both paths must stay covered
        sat_paths = {driver: [0, 0] for driver in ("icl_verify", "hsrv_verify")}
        for idx, (net, region, prop) in enumerate(suite):
            truth = oracle_verify(net, region, prop)
            for driver in (icl_verify, hsrv_verify):
                res = driver(net, region, prop)
                assert res.status == truth.status, f"instance {idx} ({driver.__name__})"
                if res.status == "sat":
                    assert validate_witness(net, region, prop, res.witness).accepted
                    sat_paths[driver.__name__][res.budget.lp_calls > 0] += 1
                else:
                    path = tmp_path / f"p{idx}.json"
                    dump_problem(net, region, prop, path)
                    out = prooflog.check_proof(
                        (net, region, prop), prooflog.emit(res.proof, path), str(path))
                    assert out.accepted, f"instance {idx} ({driver.__name__}): {out}"
                    proofs += 1
            sat += truth.status == "sat"
            unsat += truth.status == "unsat"
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"{elapsed:.1f} s"
        for name, (no_lp, with_lp) in sat_paths.items():
            assert no_lp >= 1 and with_lp >= 1, f"{name}: SAT paths {no_lp}/{with_lp}"
        paths = ", ".join(f"{name.split('_')[0]} {no_lp} with 0 LPs / {with_lp} with LPs"
                          for name, (no_lp, with_lp) in sat_paths.items())
        report(f"ACCEPTANCE 5: PASS - 100 random instances ({sat} sat / {unsat} "
               f"unsat), icl = hsrv = oracle, {proofs} proofs re-checked, "
               f"SAT decided {paths}, in {elapsed:.1f} s")

    def test_06_tgct_saturation_and_row_budget(self, report):
        checked = 0
        for net, region, prop in _spec_suite(10, seed=606):
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            budget = Budget()
            res = propagate_node(store, budget)
            templates = default_templates(store)
            bound = 2 * len(templates)
            assert all(n <= bound for n in res.tgct_rows_per_call), res.tgct_rows_per_call
            if res.status != "open":
                continue
            # a second consecutive call at the unchanged store adds nothing
            again = tgct(store, templates, Budget())
            assert again.rows_added == 0, again.rows_added
            checked += 1
        assert checked >= 3
        report(f"ACCEPTANCE 6: PASS - TGCT adds <= 2|templates| rows per pass and "
               f"saturates (0 rows on repeat) on {checked} open stores")

    def test_07_gate_refinement_bound_and_witness_elimination(self, report, monkeypatch):
        eliminations = []
        real = gate._model_violates_exactness

        def spy(store, model, unit):
            out = real(store, model, unit)
            eliminations.append(out)
            return out

        monkeypatch.setattr(gate, "_model_violates_exactness", spy)
        gates = refinements = 0
        for net, region, prop in _spec_suite(25, seed=707):
            # raw stores (no relaxation rows) force the gate to repair
            # spurious relaxation models by refinement
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            u = len(store.unstable)
            out = gate.exactness_gate(store, Budget())
            assert out.refinements <= u, (out.refinements, u)
            gates += 1
            refinements += out.refinements
        assert gates >= 5 and refinements >= 1
        assert eliminations and all(eliminations)
        report(f"ACCEPTANCE 7: PASS - {gates} gate runs, {refinements} refinements, "
               f"all <= |U|; every refined unit provably eliminated the prior "
               f"witness ({len(eliminations)} direct checks)")

    def test_08_checker_cost_linear_in_nonzeros(self, report):
        def chain(m):
            rows = [NormRow({0: F(1)}, F(0), ("c", 0, "le"))]
            for i in range(m):
                rows.append(NormRow({i + 1: F(1), i: F(-1)}, F(1), ("c", i + 1, "le")))
            sys = NormalizedSystem(rows, m + 1)
            dual = DualBoundCertificate.make(
                {m: F(1)}, F(m), {("c", i, "le"): F(1) for i in range(m + 1)})
            return sys, dual

        per_nnz = {}
        for m in (10, 100, 1000):
            sys, dual = chain(m)
            nnz = sum(len(r.row) for r in sys.rows)
            certs.counter.reset()
            assert check_dual(sys, dual).ok
            per_nnz[m] = F(certs.counter.mults, nnz)
        assert per_nnz[100] <= per_nnz[10] * F(12, 10), per_nnz
        assert per_nnz[1000] <= per_nnz[100] * F(12, 10), per_nnz
        report(f"ACCEPTANCE 8: PASS - checker multiplications per nonzero at "
               f"m=10/100/1000: {float(per_nnz[10]):.3f} / {float(per_nnz[100]):.3f} "
               f"/ {float(per_nnz[1000]):.3f} (growth <= 1.2x)")

    def test_09_proof_mutation_fuzzing(self, report):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        res = icl_verify(net, region, prop, Config(first_split="domain"))
        base = prooflog.parse_proof(prooflog.emit(res.proof, WORKED))
        rng = random.Random(909)
        for i in range(120):
            doc = json.loads(json.dumps(base))
            where = mutate_rational_field(rng, doc)
            data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            out = prooflog.check_proof((net, region, prop), data, WORKED)
            assert not out.accepted, f"mutation {i} at {where} survived"
        report("ACCEPTANCE 9: PASS - 120 random single-field proof mutations all "
               "rejected by check_proof")

    def test_10_monotone_learning(self, report):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        res = icl_verify(net, region, prop, Config(first_split="domain"))
        assert res.status == "unsat" and res.proof.lemmas
        # a fresh root store accepts every learned lemma row
        lemmas = LemmaStore()
        for entry in res.proof.lemmas:
            lemmas.append(entry)
        layout = build_layout(net, prop)
        fresh = build_initial_store(net, layout, region, prop, {}, lemmas)
        assert fresh.lemma_ids == {e.lemma_id for e in lemmas.global_entries()}
        lemma_rows = [
            NormRow(dict(e.row), e.bound, ("c", 10 ** 6 + k, "le"))
            for k, e in enumerate(lemmas.global_entries())
        ]

        def with_lemmas(sid):
            sys = snapshot_system(res.proof, sid)
            return NormalizedSystem(sys.rows + lemma_rows, sys.n_vars)

        def walk(entry):
            if isinstance(entry, ProofSplit):
                for child in entry.children:
                    yield from walk(child)
            else:
                yield entry

        checked = 0
        from relucert.store import guard_norm_rows

        for leaf in walk(res.proof.root):
            for cert, sid in leaf.cover:
                sys = with_lemmas(sid)
                rows = list(sys.rows)
                for lit in cert.guards:
                    rows.extend(guard_norm_rows(layout, lit))
                assert check_farkas(NormalizedSystem(rows, sys.n_vars), cert.inner).ok
                checked += 1
        assert checked >= 2
        report(f"ACCEPTANCE 10: PASS - {checked} leaf certificates still accepted "
               f"after injecting all {len(lemma_rows)} learned lemmas")
