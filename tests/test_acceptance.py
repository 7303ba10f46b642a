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
    file_digest,
    layout_of,
    leaf_system,
    mutate_rational_field,
    norm_row,
    random_instance,
    scoped_leaves,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, gate, prooflog, propagate
from relucert.budget import Budget
from relucert.certs import DualBoundCertificate, FarkasCertificate, check_dual, check_farkas
from relucert.cli import EXIT_SAT, EXIT_UNSAT, main
from relucert.model import (
    IDENTITY,
    RELU,
    Layer,
    Network,
    Region,
    SafetyProperty,
    build_layout,
    forward_eval,
    validate_witness,
)
from relucert.propagate import propagate_node
from relucert.search import (
    Config,
    ProofLeaf,
    ProofSplit,
    hsrv_verify,
    icl_verify,
    oracle_verify,
)
from relucert.rows import NormalizedSystem
from relucert.store import build_initial_store, interval_bounds


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


def _ladder(depth):
    """x in [0, 1] through `depth` ReLU layers of two units, s = x in the
    first and s = (z0 + z1) / 2 after it, then y = (z0 + z1) / 2, so y = x:
    with threshold 1 and epsilon 1/10, UNSAT.  Each unit is active, and
    its proof is one leaf of about 8 rows per layer."""
    half = F(1, 2)
    layers = [Layer(((F(1),), (F(1),)), (F(0), F(0)), RELU)]
    layers += [Layer(((half, half), (half, half)), (F(0), F(0)), RELU)] * (depth - 1)
    layers.append(Layer(((half, half),), (F(0),), IDENTITY))
    return (Network(tuple(layers), 1, 1), Region((F(0),), (F(1),)),
            SafetyProperty(((0, F(1)),), F(1), F(1, 10)))


class TestAcceptance:
    def test_01_worked_farkas_certificate_exact(self, report):
        # rows over v = (z1, z2, y):
        #   (1) z1 <= 1   (2) -z2 <= 0   (3) -z1 + z2 + y <= 0   (4) -y <= -11/10
        sys = NormalizedSystem([
            norm_row({0: F(1)}, F(1), ("c", 0, "le")),
            norm_row({1: F(-1)}, F(0), ("c", 1, "le")),
            norm_row({0: F(-1), 1: F(1), 2: F(1)}, F(0), ("c", 2, "le")),
            norm_row({2: F(-1)}, F(-11, 10), ("c", 3, "le")),
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
        root = res.tree
        assert isinstance(root, ProofSplit) and root.kind == ("domain", 0, F(1, 2))
        assert all(isinstance(leaf, ProofLeaf) for leaf in root.children)
        # the published child bounds are the leaves' margin bounds
        assert [leaf.bound for leaf in root.children] == [F(0), F(1)]
        layout = layout_of(net, prop)
        for leaf, scope, alpha in scoped_leaves(root, region):
            cert = leaf.evidence
            assert cert.objective_dict == layout.margin
            assert check_dual(leaf_system((net, region, prop), leaf, scope, alpha), cert).ok
        # the merged lemma y <= 1 is the root split's bound
        assert root.bound == F(1)
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
                    digest = file_digest(path)
                    out = prooflog.check_proof(
                        (net, region, prop), prooflog.emit(res.tree, digest), digest)
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

    def test_06_tgct_saturation_and_row_budget(self, report, monkeypatch):
        real = propagate.tgct
        calls = []

        def spy(store, units, budget):
            units = list(units)
            res = real(store, units, budget)
            calls.append((units, res.rows_added))
            return res

        monkeypatch.setattr(propagate, "tgct", spy)
        checked = opened = 0
        for net, region, prop in _spec_suite(60, seed=606):
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            res = propagate_node(store, Budget())
            assert all(added <= 2 * len(units) for units, added in calls), calls
            selected = calls[-1][0] if calls else []
            calls.clear()
            if res.status != "open":
                continue
            opened += 1
            # a second consecutive call over the last pass's selection, at
            # the unchanged store, adds nothing
            again = real(store, selected, Budget())
            assert again.rows_added == 0, again.rows_added
            checked += bool(selected)
        assert checked >= 3
        report(f"ACCEPTANCE 6: PASS - each pass's TGCT tightens the units whose hull "
               f"chord its back-substitution uses and adds <= 2|selected| rows; it "
               f"saturates (0 rows on repeat) on {opened} open stores, {checked} with "
               f"a selection")

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

    def test_08_checker_cost_linear_in_nonzeros(self, report, monkeypatch):
        def chain(m):
            rows = [norm_row({0: F(1)}, F(0), ("c", 0, "le"))]
            for i in range(m):
                rows.append(norm_row({i + 1: F(1), i: F(-1)}, F(1), ("c", i + 1, "le")))
            sys = NormalizedSystem(rows, m + 1)
            dual = DualBoundCertificate.make(
                {m: F(1)}, F(m), {("c", i, "le"): F(1) for i in range(m + 1)})
            return sys, dual

        per_nnz = {}
        for m in (10, 100, 1000):
            sys, dual = chain(m)
            nnz = sum(len(r.ints[1]) for r in sys.rows)
            certs.counter.reset()
            assert check_dual(sys, dual).ok
            per_nnz[m] = F(certs.counter.mults, nnz)
        assert per_nnz[100] <= per_nnz[10] * F(12, 10), per_nnz
        assert per_nnz[1000] <= per_nnz[100] * F(12, 10), per_nnz

        # full replay: `check_proof` over the proofs of ladders of growing
        # depth builds each proof row once, and multiplies per nonzero of
        # the rows it builds at a rate that does not grow
        build = prooflog._check_snapshot_row
        built = []

        def building(*args):
            forms = build(*args)
            built.append(forms)
            return forms

        monkeypatch.setattr(prooflog, "_check_snapshot_row", building)
        replay = {}
        for depth in (4, 16, 64, 256):
            problem = _ladder(depth)
            res = icl_verify(*problem)
            assert res.status == "unsat"
            data = prooflog.emit(res.tree, "")
            rows = len(prooflog.parse_proof(data)["tree"]["rows"])
            built.clear()
            certs.counter.reset()
            assert prooflog.check_proof(problem, data).accepted
            nnz = sum(len(coeffs) for forms in built for _, coeffs, _ in forms)
            assert len(built) == rows, (depth, len(built), rows)
            replay[depth] = (F(rows, depth), F(certs.counter.mults, nnz))
        for small, large in ((4, 16), (16, 64), (64, 256)):
            for a, b in zip(replay[small], replay[large]):
                assert b <= a * F(12, 10), replay
        report(f"ACCEPTANCE 8: PASS - checker multiplications per nonzero at "
               f"m=10/100/1000: {float(per_nnz[10]):.3f} / {float(per_nnz[100]):.3f} "
               f"/ {float(per_nnz[1000]):.3f}; full replay of ladder proofs of depth "
               f"4/16/64/256: rows per layer "
               f"{' / '.join(f'{float(replay[d][0]):.2f}' for d in replay)}, "
               f"multiplications per nonzero "
               f"{' / '.join(f'{float(replay[d][1]):.3f}' for d in replay)} "
               f"(growth <= 1.2x)")

    def test_09_proof_mutation_fuzzing(self, report):
        """Proofs whose leaves keep only the rows their certificates reach:
        the worked domain-split proof, and the branching proofs of suite
        instances 57 and 89, which split, merge and carry hull rows."""
        from test_search import TestBranchingOracleAgreement, tightened

        worked = (worked_network(), worked_region(), worked_prop())
        proofs = [(worked, Config(first_split="domain"), file_digest(WORKED), 120)]
        proofs += [(tightened(idx), TestBranchingOracleAgreement.CONFIG, "", 60) for idx in (57, 89)]
        rng = random.Random(909)
        mutations = 0
        for problem, config, digest, count in proofs:
            res = icl_verify(*problem, config)
            base = prooflog.parse_proof(prooflog.emit(res.tree, digest))
            for i in range(count):
                doc = json.loads(json.dumps(base))
                where = mutate_rational_field(rng, doc)
                data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                out = prooflog.check_proof(problem, data, digest)
                assert not out.accepted, f"mutation {i} at {where} survived"
                mutations += 1
        report(f"ACCEPTANCE 9: PASS - {mutations} random single-field mutations of "
               f"trimmed proofs (120 worked, 60 each of two branching proofs) all "
               f"rejected by check_proof")

    def test_10_monotone_learning(self, report):
        net, region, prop = worked_network(), worked_region(), worked_prop()
        res = icl_verify(net, region, prop, Config(first_split="domain"))
        assert res.status == "unsat" and res.tree.bound is not None
        # the root split's merged bound, margin <= beta, as one more row
        layout = build_layout(net, prop)
        bound_row = norm_row(dict(layout.margin), res.tree.bound, ("c", 10 ** 6, "le"))

        checked = 0
        from relucert.rows import guard_norm_rows

        for leaf, scope, alpha in scoped_leaves(res.tree, region):
            sys = leaf_system((net, region, prop), leaf, scope, alpha)
            for cert in leaf.cover:
                rows = sys.rows + [bound_row]
                for lit in cert.guards:
                    rows.extend(guard_norm_rows(layout, lit))
                assert check_farkas(NormalizedSystem(rows, sys.n_vars), cert.inner).ok
                checked += 1
        assert checked >= 2
        report(f"ACCEPTANCE 10: PASS - {checked} leaf certificates still accepted "
               f"with the root's merged bound margin <= {res.tree.bound} added")
