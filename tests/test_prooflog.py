import ast
import json
import random
import re
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (
    WORKED,
    dump_problem,
    file_digest,
    scoped_leaves,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import prooflog
from relucert.certs import FarkasCertificate, GuardedCertificate
from relucert.model import ACTIVE, INACTIVE, SafetyProperty, build_layout, format_rational
from relucert.rows import GuardLiteral
from relucert.search import Config, hsrv_verify, icl_verify


def _problem():
    return worked_network(), worked_region(), worked_prop()


def _proof_bytes(config=None, driver=icl_verify):
    res = driver(*_problem(), config)
    assert res.status == "unsat"
    return prooflog.emit(res.tree, file_digest(WORKED))


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _leaf_rows(doc, at=()):
    """The rows of the leaf at child-index path `at`, by id (the default
    worked proof is one leaf)."""
    return {r["id"]: r for r in _tree_node(doc, at)["rows"]}


class TestSerialization:
    def test_emitted_log_is_accepted(self):
        data = _proof_bytes()
        out = prooflog.check_proof(_problem(), data, file_digest(WORKED))
        assert out.accepted, out

    def test_round_trip_preserves_structure(self):
        data = _proof_bytes()
        doc = prooflog.parse_proof(data)
        again = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert again == data

    def test_emission_is_deterministic(self):
        assert _proof_bytes() == _proof_bytes()

    def test_digest_is_sha256_of_the_problem_bytes(self):
        import hashlib

        doc = prooflog.parse_proof(_proof_bytes())
        assert doc["digest"] == hashlib.sha256(Path(WORKED).read_bytes()).hexdigest()

    def test_rationals_serialized_as_strings(self):
        doc = prooflog.parse_proof(_proof_bytes())

        def walk(o):
            if isinstance(o, dict):
                for v in o.values():
                    walk(v)
            elif isinstance(o, list):
                for v in o:
                    walk(v)
            else:
                assert not isinstance(o, float), f"float {o} leaked into the log"

        walk(doc)

    def test_unrecognized_document_rejected_by_parser(self):
        with pytest.raises(ValueError):
            prooflog.parse_proof(b'{"format":"something-else"}')

    def test_duplicated_key_rejected(self):
        # JSON keeps the last of two equal keys: read so, the bogus tree in
        # front of the real one would go unseen
        data = _proof_bytes()
        assert data.count(b'"tree":') == 1
        doubled = data.replace(b'"tree":', b'"tree":{"type":"bogus"},"tree":')
        out = prooflog.check_proof(_problem(), doubled, file_digest(WORKED))
        assert not out.accepted and out.path == "document", out
        assert "duplicated key 'tree'" in out.reason, out

    def _old_format_rejected(self, n, config=None):
        data = _proof_bytes(config)
        current = f'"format":"{prooflog.FORMAT}"'.encode()
        assert prooflog.FORMAT == "relucert-proof-8" and current in data
        old = data.replace(current, f'"format":"relucert-proof-{n}"'.encode())
        out = prooflog.check_proof(_problem(), old, file_digest(WORKED))
        assert not out.accepted and out.path == "document"

    def test_format_1_document_rejected(self):
        self._old_format_rejected(1)

    def test_format_2_document_rejected(self):
        self._old_format_rejected(2, Config(first_split="domain"))

    def test_format_3_document_rejected(self):
        # proof-3 kept merge lemmas in a preamble, not on the tree
        self._old_format_rejected(3, Config(first_split="domain"))

    def test_format_4_document_rejected(self):
        # proof-4 wrote every row, relation, rhs and block beside its
        # derivation, and each derived row's objective and bound
        self._old_format_rejected(4, Config(first_split="domain"))

    def test_format_5_document_rejected(self):
        # proof-5 wrote each interval bound row as a derived row, with its
        # row, rhs and dual certificate
        self._old_format_rejected(5, Config(first_split="domain"))

    def test_format_6_document_rejected(self):
        # proof-6 kept each leaf's rows in a table of snapshots, each with
        # its region, which the leaf's certificates cited by id
        self._old_format_rejected(6, Config(first_split="domain"))

    def test_format_7_document_rejected(self):
        # proof-7 gave a margin other than one output with coefficient 1 a
        # variable of its own, defined by a `margin-def` row
        self._old_format_rejected(7, Config(first_split="domain"))

    def test_only_derived_rows_carry_a_row(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        for leaf in _leaves(doc["tree"]):
            for row in leaf["rows"]:
                if row["derivation"][0] == "derived":
                    assert set(row) == {"id", "row", "rhs", "derivation"}
                    assert len(row["derivation"]) == 2
                else:
                    assert set(row) == {"id", "derivation"}

    def test_leaves_have_one_kind(self):
        for strategy in (icl_verify, hsrv_verify):
            res = strategy(*_problem(), Config(first_split="domain"))
            doc = prooflog.parse_proof(prooflog.emit(res.tree, file_digest(WORKED)))
            assert set(doc) == {"format", "digest", "tree"}
            for leaf in _leaves(doc["tree"]):
                assert set(leaf) <= {"type", "rows", "cover", "bound"} and leaf["cover"]


class TestCheckerIndependence:
    def test_prooflog_never_imports_the_lp_engine(self):
        src = Path("src/relucert/prooflog.py").read_text()
        tree = ast.parse(src)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                imported.add(mod)
                imported.update(f"{mod}.{a.name}" for a in node.names)
        assert not any(name == "lp" or name.endswith(".lp") or ".lp." in name
                       for name in imported), imported
        assert "relucert.lp" not in imported


class TestTargetedRejections:
    def test_digest_mismatch(self, tmp_path):
        data = _proof_bytes()
        other = tmp_path / "other.json"
        other.write_bytes(Path(WORKED).read_bytes() + b"\n")
        out = prooflog.check_proof(_problem(), data, file_digest(other))
        assert not out.accepted and out.path == "digest"

    def test_wrong_root_region(self):
        # the checker builds the region rows from the problem's region: over
        # x in [0, 2] the rows no longer support the cover
        from relucert.model import Region

        data = _proof_bytes()
        out = prooflog.check_proof(
            (worked_network(), Region((F(0),), (F(2),)), worked_prop()), data)
        assert not out.accepted and out.path == "tree", out

    def test_flipped_farkas_sign_rejected(self):
        # the checker builds the negated-property row from the problem; with
        # the violation threshold 11/10 flipped to -11/10 its rhs flips sign,
        # and the certificate combination no longer reaches a negative total
        data = _proof_bytes()
        assert b'["negp"]' in data
        problem = (worked_network(), worked_region(), worked_prop("-6/5"))
        assert problem[2].violation_threshold == -F(11, 10)
        out = prooflog.check_proof(problem, data)
        assert not out.accepted

    def test_corrupted_multiplier_rejected(self):
        raw = _proof_bytes().decode()
        assert '"multipliers":[[' in raw
        mutated = re.sub(r'("multipliers":\[\[\[[^]]*\],")(\d+)',
                         lambda m: m.group(1) + str(int(m.group(2)) + 1), raw, count=1)
        assert mutated != raw
        out = prooflog.check_proof(_problem(), mutated.encode())
        assert not out.accepted

    def test_bad_split_midpoint_rejected(self):
        config = Config(first_split="domain")
        res = icl_verify(*_problem(), config)
        data = prooflog.emit(res.tree, file_digest(WORKED)).decode()
        mutated = data.replace('["domain",0,"1/2"]', '["domain",0,"2/3"]')
        assert mutated != data
        out = prooflog.check_proof(_problem(), mutated.encode())
        assert not out.accepted

    def test_midpoint_outside_the_parent_edge_rejected(self):
        config = Config(first_split="domain")
        res = icl_verify(*_problem(), config)
        data = prooflog.emit(res.tree, file_digest(WORKED)).decode()
        mutated = data.replace('["domain",0,"1/2"]', '["domain",0,"3"]')
        out = prooflog.check_proof(_problem(), mutated.encode())
        assert not out.accepted

    def test_truncated_document_rejected(self):
        data = _proof_bytes()
        out = prooflog.check_proof(_problem(), data[: len(data) // 2])
        assert not out.accepted and out.path == "document"

    def test_foreign_guard_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        rows = doc["tree"]["rows"]
        next_id = max(r["id"] for r in rows) + 1
        rows.append({"id": next_id, "derivation": ["guard", 1, 0, "active", 0]})
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        out = prooflog.check_proof(_problem(), data)
        assert not out.accepted and out.reason.endswith(
            f"row {next_id}: guard row for uncommitted phase (1, 0):active"), out

    def test_margin_def_row_rejected(self, tmp_path):
        # the margin is a row over the outputs and has no variable to define
        net, region = worked_network(), worked_region()
        prop = SafetyProperty(((0, F(2)),), F(2), F(1, 10))
        path = tmp_path / "p.json"
        dump_problem(net, region, prop, path)
        res = icl_verify(net, region, prop)
        doc = prooflog.parse_proof(prooflog.emit(res.tree, file_digest(path)))
        assert prooflog.check_proof((net, region, prop), _dumps(doc), file_digest(path)).accepted
        rows = doc["tree"]["rows"]
        rows.append({"id": max(r["id"] for r in rows) + 1, "derivation": ["margin-def"]})
        out = prooflog.check_proof((net, region, prop), _dumps(doc), file_digest(path))
        assert not out.accepted and out.path == "tree", out
        assert out.reason.endswith("unknown derivation kind margin-def"), out

    def test_leaf_without_rows_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        del doc["tree"]["rows"]
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree", out
        assert out.reason == "rows: malformed: KeyError('rows')", out

    def test_rows_moved_to_the_other_phase_of_a_split_rejected(self, tmp_path):
        """Each phase split of the branching proofs whose children are both
        leaves, with the two leaves' rows swapped: each leaf's guard row on
        the split's unit then commits the phase of the other child."""
        cases = 0
        for problem, data, path in _branching(tmp_path, (icl_verify, hsrv_verify)):
            base = prooflog.parse_proof(data)
            for at, node in _tree_nodes(base["tree"]):
                if node["type"] != "split" or node["kind"][0] != "phase" or any(
                        child["type"] != "leaf" for child in node["children"]):
                    continue
                doc = json.loads(json.dumps(base))
                active, inactive = _tree_node(doc, at)["children"]
                active["rows"], inactive["rows"] = inactive["rows"], active["rows"]
                (i, j) = node["kind"][1]
                out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                assert not out.accepted and out.path == "/".join(("tree", *map(str, at), "0"))
                assert f"guard row for uncommitted phase ({i}, {j}):inactive" in out.reason, out
                cases += 1
        assert cases >= 4


    def test_derived_row_citing_its_own_or_a_later_row_rejected(self, tmp_path):
        # the certificate is checked over the rows built before it, so a row
        # of the same or a later id is an unknown row; the worked proofs
        # have no derived row, so take the first TGCT row of instance 57
        problem, data, path = _tgct_proof(tmp_path)
        rid = _first_row(prooflog.parse_proof(data), "derived")["id"]
        for cited in (rid, rid + 1):
            doc = prooflog.parse_proof(data)
            mults = _first_row(doc, "derived")["derivation"][1]
            mults[0][0] = ["c", cited, "le"]
            out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
            assert not out.accepted and out.reason.endswith(
                f"row {rid}: derived-row certificate rejected: unknown row ('c', {cited}, 'le')"), out

    @pytest.mark.parametrize("mutate, reason", [
        (lambda r: r.update(row={}), "derived row with no nonzero coefficient"),
        (lambda r: r.update(row=dict.fromkeys(r["row"], "0")),
         "derived row with no nonzero coefficient"),
        (lambda r: r.update(rhs="1/0"), "malformed: ParseError("),
        (lambda r: r["row"].update({min(r["row"]): "1/0"}), "malformed: ParseError("),
    ], ids=["empty-row", "all-zero-row", "rhs-1/0", "coefficient-1/0"])
    def test_derived_row_without_a_row_or_with_a_zero_denominator_rejected(
            self, tmp_path, mutate, reason):
        # `check` builds a derived row in integers straight from its
        # rationals: one with no nonzero coefficient, or a rational with
        # denominator 0, is a REJECT of that row at its leaf
        problem, data, path = _tgct_proof(tmp_path)
        doc = prooflog.parse_proof(data)
        at, leaf = next((at, leaf) for at, leaf in _leaf_nodes(doc["tree"])
                        if any(r["derivation"][0] == "derived" for r in leaf["rows"]))
        row = next(r for r in leaf["rows"] if r["derivation"][0] == "derived")
        mutate(row)
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted and out.path == "/".join(("tree", *map(str, at))), out
        assert out.reason.startswith(f"rows: row {row['id']}: {reason}"), out

    def test_hull_bound_proved_only_by_a_later_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        rows = _leaf_rows(doc)
        # row 6 proves s(1,0) <= 1, the upper end of the interval that hull
        # row 10 envelopes; renumbered past every other row it no longer
        # precedes it
        assert rows[6] == {"id": 6, "derivation": ["interval", [1, 0], "up"]}
        assert rows[10]["derivation"] == ["hull", [1, 0], 2]
        rows[6]["id"] = max(rows) + 1
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.reason.endswith(
            "row 10: certified bounds [-1, None] do not straddle zero"), out

    def test_sign_proved_only_by_a_later_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rows = _leaf_rows(doc, (1,))
        # row 7 proves s(1,0) >= 0, the sign that row 8 stabilizes as active;
        # renumbered past every other row it no longer precedes it
        assert rows[7] == {"id": 7, "derivation": ["interval", [1, 0], "lo"]}
        assert rows[8]["derivation"] == ["stabilize", [1, 0], "active"]
        rows[7]["id"] = max(rows) + 1
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "row 8:" in out.reason and "sign" in out.reason, out

    def test_stabilize_row_on_a_straddling_unit_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rows = _leaf_rows(doc, (1,))
        # the leaf of x in [1/2, 1] moved to the root, whose scope is x in
        # [0, 1]: the checker rebuilds region row 4 and interval row 7 over
        # it, and now they prove s(1,0) >= -1, which no longer fixes row 8's
        # active sign (the leaf keeps no upper bound row on s(1,0), which
        # the sign does not read)
        assert rows[4]["derivation"] == ["region", 0, "lo"]
        assert rows[7]["derivation"] == ["interval", [1, 0], "lo"]
        doc["tree"] = doc["tree"]["children"][1]
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.reason.endswith(
            "row 8: certified bounds [-1, None] do not fix the active sign"), out

    @pytest.mark.parametrize("k", [0, 1])
    def test_stabilize_row_with_a_phase_row_index_rejected(self, k):
        # proof-6 wrote ["stabilize", unit, phase, k]; k = 1, the sign row,
        # was accepted although the solver never wrote it.  A stabilize row
        # is the phase equality, and its tag names no other row
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        row = _leaf_rows(doc, (1,))[8]
        assert row["derivation"] == ["stabilize", [1, 0], "active"]
        row["derivation"].append(k)
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree/1", out
        assert out.reason.startswith("rows: row 8: malformed: ValueError('too many values"), out

    def test_stabilize_rows_run_no_dual_check(self, monkeypatch):
        checking, dual_checked = [], []
        check_row, check_dual = prooflog._check_snapshot_row, prooflog.check_dual_exact

        def row(pb, r, *args):
            checking.append(r["derivation"][0])
            try:
                return check_row(pb, r, *args)
            finally:
                checking.pop()

        def dual(*args):
            dual_checked.append(checking[-1] if checking else "evidence")
            return check_dual(*args)

        monkeypatch.setattr(prooflog, "_check_snapshot_row", row)
        monkeypatch.setattr(prooflog, "check_dual_exact", dual)
        data = _proof_bytes(Config(first_split="domain"))
        tags = [r["derivation"] for leaf in _leaves(prooflog.parse_proof(data)["tree"])
                for r in leaf["rows"]]
        stabilize = [t for t in tags if t[0] == "stabilize"]
        assert len(stabilize) == 4 and all(len(t) == 3 for t in stabilize)
        assert sum(t[0] == "interval" for t in tags) == 4
        assert prooflog.check_proof(_problem(), data, file_digest(WORKED)).accepted
        # only the two leaf bounds are dual certificates
        assert dual_checked == ["evidence"] * 2

    def test_proof_checked_against_a_lowered_threshold_rejected(self):
        # without its digest a proof is tied to the problem only by the rows
        # the checker builds from it: the negated-property row of threshold
        # 1/2 no longer supports the cover
        out = prooflog.check_proof(
            (worked_network(), worked_region(), worked_prop("1/2")), _proof_bytes())
        assert not out.accepted and out.reason == "cover[0] rejected: lambda^T b = 2/5 not < 0", out

    def test_proof_checked_against_a_changed_weight_rejected(self):
        from relucert.model import Layer, Network

        # weight 2 -> 3 on s(1,0) makes the problem SAT; the checker builds
        # the affine, interval and hull rows of (1,0) from the changed weight,
        # and the cover's multipliers no longer cancel over them
        net = worked_network()
        first = net.layers[0]
        changed = Network((Layer(((F(3),), first.weights[1]), first.bias, first.activation),
                           net.layers[1]), 1, 1)
        assert icl_verify(changed, worked_region(), worked_prop()).status == "sat"
        out = prooflog.check_proof((changed, worked_region(), worked_prop()), _proof_bytes())
        assert not out.accepted and out.reason == "cover[0] rejected: lambda^T A != 0", out

    def test_phase_row_index_out_of_range_rejected(self):
        # a guard has two phase rows; -1 must not wrap to the last one
        for k in (2, -1):
            doc = prooflog.parse_proof(_proof_bytes())
            rows = doc["tree"]["rows"]
            last = max(r["id"] for r in rows) + 1
            rows.append({"id": last, "derivation": ["guard", 1, 0, "active", k]})
            out = prooflog.check_proof(_problem(), _dumps(doc))
            assert not out.accepted and out.reason.endswith(f"row {last}: no phase row {k}"), out

    def test_hull_row_index_out_of_range_rejected(self):
        # an envelope has four rows; -1 must not wrap to the last one
        for k in (4, -1):
            doc = prooflog.parse_proof(_proof_bytes())
            row = _leaf_rows(doc)[10]
            assert row["derivation"] == ["hull", [1, 0], 2]
            row["derivation"][2] = k
            out = prooflog.check_proof(_problem(), _dumps(doc))
            assert not out.accepted and out.reason.endswith(f"row 10: no hull row {k}"), out

    def test_phases_of_a_unit_without_a_relu_rejected(self):
        # z aliases s on the identity output unit (2, 0), so either phase's
        # rows would force s = 0: with the negated property they refute both
        # phases, a complete cover, although the problem is SAT
        problem = (worked_network(), worked_region(), worked_prop("1/2"))
        box = {"lower": ["0"], "upper": ["1"]}

        def refutation(phase, k):
            mults = [[["c", 0, "le"], "1"], [["g", 2, 0, phase, k], "1"]]
            return {"guards": [[2, 0, phase]], "farkas": {"multipliers": mults}}

        doc = {"format": prooflog.FORMAT, "digest": "",
               "tree": {"type": "leaf", "rows": [{"id": 0, "derivation": ["negp"]}],
                        "cover": [refutation("active", 1), refutation("inactive", 2)]}}
        out = prooflog.check_proof(problem, _dumps(doc))
        assert not out.accepted and out.path == "tree", out
        assert out.reason.startswith("cover[0] rejected: guard without rows: "), out
        assert "(2, 0) is not a ReLU unit" in out.reason, out
        # well-formed cover guards, and the guard row on (2, 0) among the
        # leaf's rows
        for item in doc["tree"]["cover"]:
            item["guards"][0][:2] = [1, 0]
        doc["tree"]["rows"].append({"id": 1, "derivation": ["guard", 2, 0, "active", 0]})
        out = prooflog.check_proof(problem, _dumps(doc))
        assert not out.accepted and "(2, 0) is not a ReLU unit" in out.reason, out
        assert out.reason.startswith("rows: row 1: "), out

    def test_hull_row_of_a_unit_without_a_relu_rejected(self):
        pb = prooflog._Problem(*_problem())
        s = pb.layout.pre_index((2, 0))
        assert s == pb.layout.post_index((2, 0))
        with pytest.raises(prooflog._Rejected, match=r"\(2, 0\), which is not a ReLU unit"):
            prooflog._check_snapshot_row(pb, {"id": 0, "derivation": ["hull", [2, 0], 0]},
                                         worked_region(), None, {s: (F(-1), F(1))}, set())

    @pytest.mark.parametrize("guard, reason", [
        ([9, 9, "active"], "KeyError((9, 9))"),
        ([2, 0, "active"], "(2, 0) is not a ReLU unit"),
        ([1, 0, "sideways"], "unknown phase 'sideways'"),
    ], ids=["unknown-unit", "unit-without-a-relu", "unknown-phase"])
    def test_cover_guard_outside_the_networks_phases_rejected_at_its_leaf(self, guard, reason):
        # parsing checks only the unit's shape; `certs.check_guarded` finds
        # no rows for the guard
        doc = prooflog.parse_proof(_proof_bytes(driver=hsrv_verify))
        doc["tree"]["cover"][0]["guards"].append(guard)
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree", out
        assert out.reason.startswith("cover[0] rejected: guard without rows: "), out
        assert reason in out.reason, out

    def test_duplicated_row_id_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        doc["tree"]["rows"].append(dict(_leaf_rows(doc)[6]))
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "duplicate row id 6" in out.reason, out


class TestIntervalRows:
    """`check` builds a unit's two interval rows by interval arithmetic
    over the intervals that earlier rows prove for its sources; the row
    names only its unit and side."""

    def _worked(self):
        doc = prooflog.parse_proof(_proof_bytes())
        row = _leaf_rows(doc)[6]
        assert row == {"id": 6, "derivation": ["interval", [1, 0], "up"]}
        return doc, row

    def _rejected(self, doc, words):
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree" and words in out.reason, out

    @pytest.mark.parametrize("side", ["hi", "UP", "", None, 0])
    def test_side_other_than_up_or_lo_rejected(self, side):
        doc, row = self._worked()
        row["derivation"][2] = side
        self._rejected(doc, f"row 6: no interval side {side!r}")

    @pytest.mark.parametrize("unit", [[2, 0], [3, 0], [1, 2], [0, 0], [1, -1]],
                             ids=["identity-output", "layer-out-of-range",
                                  "neuron-out-of-range", "layer-0", "neuron-negative"])
    def test_unit_without_a_relu_rejected(self, unit):
        # (2, 0) is the worked network's identity output, whose z is s
        doc, row = self._worked()
        row["derivation"][1] = unit
        self._rejected(doc, f"row 6: interval row for {tuple(unit)}, which is not a ReLU unit")

    @pytest.mark.parametrize("unit", [[1.0, 0], [1, "0"], [True, 0], [1], [1, 0, 0], 1],
                             ids=["float", "string", "bool", "short", "long", "scalar"])
    def test_non_integer_unit_rejected(self, unit):
        doc, row = self._worked()
        row["derivation"][1] = unit
        self._rejected(doc, "row 6: malformed: ")

    def test_row_placed_before_the_rows_it_needs_rejected(self, tmp_path):
        """Each interval row of a unit past the first layer in the icl
        branching proofs, swapped in id with the earliest hull, guard or
        stabilize row of one of its sources: there the source has no
        interval yet."""
        cases = 0
        for problem, data, path in _branching(tmp_path, (icl_verify,)):
            net = problem[0]
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                first = {}  # unit -> id of its earliest hull, guard or stabilize row
                for r in leaf["rows"]:
                    tag = r["derivation"]
                    if tag[0] in ("hull", "guard", "stabilize"):
                        unit = tuple(tag[1:3] if tag[0] == "guard" else tag[1])
                        first[unit] = min(first.get(unit, r["id"]), r["id"])
                for r in leaf["rows"]:
                    if r["derivation"][0] != "interval" or r["derivation"][1][0] == 1:
                        continue
                    i, j = r["derivation"][1]
                    target = min(first[(i - 1, k)]
                                 for k, w in enumerate(net.layers[i - 1].weights[j]) if w)
                    doc = json.loads(json.dumps(base))
                    rows = _leaf_rows(doc, at)
                    rows[r["id"]]["id"], rows[target]["id"] = target, r["id"]
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted and f"row {target}: no certified interval" in out.reason, (
                        at, r, out)
                    cases += 1
        assert cases >= 20


class TestBounds:
    """Margin bounds on the tree: the worked domain split proves margin <= 0
    on [0, 1/2] and margin <= 1 on [1/2, 1], and the root carries their
    maximum."""

    def _doc(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        assert doc["tree"]["bound"] == "1"
        assert [c["bound"]["beta"] for c in doc["tree"]["children"]] == ["0", "1"]
        assert prooflog.check_proof(_problem(), _dumps(doc)).accepted
        return doc

    def _rejected(self, doc, path, words):
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == path and words in out.reason, out

    def test_split_bound_other_than_the_childrens_maximum_rejected(self):
        for bound in ("0", "2"):
            doc = self._doc()
            doc["tree"]["bound"] = bound
            self._rejected(doc, "tree", "is not the maximum of the child bounds")

    def test_split_bound_over_a_child_without_one_rejected(self):
        doc = self._doc()
        del doc["tree"]["children"][0]["bound"]
        self._rejected(doc, "tree", "split bound over a child without one")

    def test_split_without_a_bound_accepted(self):
        doc = self._doc()
        del doc["tree"]["bound"]
        assert prooflog.check_proof(_problem(), _dumps(doc)).accepted

    def test_leaf_bound_other_than_lambda_b_rejected(self):
        # 1/2 still leaves the root bound the maximum; the leaf's own
        # certificate sums to lambda^T b = 0
        doc = self._doc()
        doc["tree"]["children"][0]["bound"]["beta"] = "1/2"
        self._rejected(doc, "tree/0", "differs from lambda^T b = 0")

    def test_leaf_bound_multiplier_changed_rejected(self):
        doc = self._doc()
        mults = doc["tree"]["children"][1]["bound"]["multipliers"]
        mults[0][1] = str(F(mults[0][1]) + 1)
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree/1", out

    def test_leaf_bound_snapshot_with_a_guard_outside_alpha_rejected(self):
        # the rows of the leaf of [0, 1/2], which its bound reads as its
        # cover does, with one more row: a guard on (1,0):active, which the
        # path never commits
        doc = self._doc()
        rows = doc["tree"]["children"][0]["rows"]
        last = max(r["id"] for r in rows) + 1
        rows.append({"id": last, "derivation": ["guard", 1, 0, "active", 0]})
        self._rejected(doc, "tree/0",
                       f"rows: row {last}: guard row for uncommitted phase (1, 0):active")


class TestNeverRaises:
    """Input the checker cannot follow is a REJECT that names the exception."""

    def _check(self, data, exc_name):
        out = prooflog.check_proof(_problem(), data)
        assert not out.accepted and out.path == "document" and exc_name in out.reason, out

    def test_malformed_split_bound(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        assert doc["tree"]["bound"] == "1"
        doc["tree"]["bound"] = ["1"]
        self._check(_dumps(doc), "ParseError")

    def test_deeply_nested_json_array(self):
        self._check(b"[" * 5000 + b"]" * 5000, "RecursionError")

    def test_deep_split_tree(self):
        raw = _proof_bytes().decode()
        leaf = '{"cover":[],"type":"leaf"}'
        tree = leaf
        for _ in range(900):
            tree = f'{{"children":[{tree},{leaf}],"kind":["domain",0,"1/2"],"type":"split"}}'
        head, _ = raw.split('"tree":')
        self._check(f'{head}"tree":{tree}}}'.encode(), "RecursionError")


class TestCover:
    """The leaf cover check is a complete case split, with no size cap."""

    def _chain(self, n):
        """{u0=A}, {u0=I,u1=A}, ..., {u0..u(n-2)=I,u(n-1)=A}, all inactive."""
        certs = []
        for k in range(n + 1):
            guards = [GuardLiteral((1, i), INACTIVE) for i in range(k)]
            if k < n:
                guards.append(GuardLiteral((1, k), ACTIVE))
            certs.append(GuardedCertificate.make(guards, FarkasCertificate.make({})))
        return certs

    def test_chain_cover_over_17_units_accepted(self):
        assert prooflog._check_cover(self._chain(17), {}) is None

    def test_chain_cover_missing_one_certificate_rejected(self):
        certs = self._chain(17)
        for k in range(len(certs)):
            assert prooflog._check_cover(certs[:k] + certs[k + 1:], {}) is not None

    def test_commitments_contradicting_a_certificate_leave_a_gap(self):
        certs = self._chain(2)
        assert prooflog._check_cover(certs[1:], {(1, 0): INACTIVE}) is None
        assert prooflog._check_cover(certs[1:], {(1, 0): ACTIVE}) is not None


class TestReplayOnce:
    """A leaf's rows are replayed once, although both its cover and its
    margin bound read them."""

    def _count(self, monkeypatch, name):
        calls = []
        original = getattr(prooflog, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(prooflog, name, counted)
        return calls

    def _check_domain_proof(self):
        data = _proof_bytes(Config(first_split="domain"))
        doc = prooflog.parse_proof(data)
        assert all("bound" in leaf and leaf["cover"] for leaf in doc["tree"]["children"])
        assert prooflog.check_proof(_problem(), data, file_digest(WORKED)).accepted
        return doc

    def test_each_snapshot_replayed_once(self, monkeypatch):
        calls = self._count(monkeypatch, "_check_snapshot")
        doc = self._check_domain_proof()
        assert len(calls) == len(list(_leaves(doc["tree"]))) == 2

    def test_each_snapshot_row_built_once(self, monkeypatch):
        checked = self._count(monkeypatch, "_check_snapshot_row")
        doc = self._check_domain_proof()
        rows = sum(len(leaf["rows"]) for leaf in _leaves(doc["tree"]))
        assert len(checked) == rows


class TestTrimmedProofs:
    """A leaf keeps only the rows its certificates reach (`Store.cone`):
    the rows they cite, the rows those rows are built from, and so on.
    Dropping such a row from a proof is a REJECT at its leaf.  The proofs
    are the worked domain-split proof, the branching proofs of 57 and 89
    under both drivers and the default-configuration proof of 57, whose
    TGCT rows are derived."""

    def _proofs(self, tmp_path):
        return (*_proofs(tmp_path, (icl_verify, hsrv_verify)), _tgct_proof(tmp_path))

    def _rejected_without(self, problem, base, path, at, ids):
        doc = json.loads(json.dumps(base))
        leaf = _tree_node(doc, at)
        leaf["rows"] = [r for r in leaf["rows"] if r["id"] not in ids]
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted and out.path == "/".join(("tree", *map(str, at))), (
            path, at, ids, out)

    def test_dropping_a_row_a_cover_certificate_cites_rejected(self, tmp_path):
        cases = 0
        for problem, data, path in self._proofs(tmp_path):
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                cited = {rid[1] for item in leaf["cover"]
                         for rid, _ in item["farkas"]["multipliers"] if rid[0] == "c"}
                for cid in sorted(cited):
                    self._rejected_without(problem, base, path, at, {cid})
                    cases += 1
        assert cases == 142, cases

    def test_dropping_the_phase_rows_of_an_interval_rows_source_rejected(self, tmp_path):
        """Each source of an interval row past the first layer whose phase a
        guard or `stabilize` row before it fixes, with those rows dropped:
        the source then reads as free, and no kept row bounds its
        post-activation."""
        cases = 0
        for problem, data, path in self._proofs(tmp_path):
            net = problem[0]
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                phase_rows = {}  # unit -> ids of its guard and stabilize rows
                for r in leaf["rows"]:
                    tag = r["derivation"]
                    if tag[0] in ("guard", "stabilize"):
                        unit = tuple(tag[1:3] if tag[0] == "guard" else tag[1])
                        phase_rows.setdefault(unit, set()).add(r["id"])
                dropped = set()
                for r in leaf["rows"]:
                    tag = r["derivation"]
                    if tag[0] != "interval" or tag[1][0] == 1:
                        continue
                    i, j = tag[1]
                    for k, w in enumerate(net.layers[i - 1].weights[j]):
                        ids = frozenset(cid for cid in phase_rows.get((i - 1, k), ())
                                        if cid < r["id"])
                        if w and ids and ids not in dropped:
                            dropped.add(ids)
                            self._rejected_without(problem, base, path, at, ids)
                cases += len(dropped)
        assert cases == 19, cases

    def test_dropping_the_bound_row_under_a_hull_row_rejected(self, tmp_path):
        """Each row bounding a hull row's pre-activation before it, dropped:
        the interval the envelope was built over loses an end."""
        cases = 0
        for problem, data, path in self._proofs(tmp_path):
            net = problem[0]
            layout = build_layout(net, problem[2])
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                rows = sorted(leaf["rows"], key=lambda r: r["id"])
                needed = {cid for r in rows if r["derivation"][0] == "hull"
                          for cid in _needed_rows(net, layout, rows, r)}
                for cid in sorted(needed):
                    self._rejected_without(problem, base, path, at, {cid})
                cases += len(needed)
        assert cases == 60, cases


class TestMutationFuzzing:
    def test_mutation_helper_always_changes_the_value(self):
        from conftest import mutate_rational_field
        rng = random.Random(7)
        for old in ("-1/2", "0", "1/2", "-1", "3/4"):
            for _ in range(20):
                doc = {"rhs": old}
                mutate_rational_field(rng, doc)
                assert F(doc["rhs"]) != F(old), old

    def test_random_single_field_mutations_all_rejected(self):
        """Every rational of the proof: derived rows, multipliers, bounds
        and the domain split's midpoint."""
        from conftest import mutate_rational_field
        base = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rng = random.Random(123)
        rejected = 0
        for _ in range(40):
            doc = json.loads(json.dumps(base))
            mutate_rational_field(rng, doc)
            data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            out = prooflog.check_proof(_problem(), data, file_digest(WORKED))
            assert not out.accepted, f"mutation survived: {out}"
            rejected += 1
        assert rejected == 40


class TestStructuralFuzzing:
    """Rows moved and the tree or its annotations changed, rather than
    certificate values.  Renumbering the interval rows that bound a
    stabilized unit's pre-activation past its stabilize row leaves every
    row intact, so only the stabilize sign rule can see it: the sign
    those rows prove no longer precedes the row.  A domain split moved
    inside its edge still covers the parent, so only the children's rows,
    rebuilt over the moved regions, can see it.  Row ids carry only order:
    renumbering a leaf's rows in order, with the multipliers that cite
    them, keeps a proof valid, and a row moved before a row it reads is
    rejected."""

    def test_sign_rows_moved_past_each_stabilize_row_rejected(self, tmp_path):
        # a stabilized unit has one stabilize row, and a leaf keeps one
        # row bounding its pre-activation on the side of its sign; instance
        # 42 under the branching configuration adds 13 stabilize rows to the
        # 12 of the worked, 57 and 89 proofs.  The hsrv proofs are replayed
        # too, but where one equals the icl proof byte for byte it adds no
        # case
        cases = 0
        seen = set()
        for problem, data, path in _proofs(tmp_path, (icl_verify, hsrv_verify), (57, 89, 42)):
            if data in seen:
                continue
            seen.add(data)
            layout = build_layout(problem[0], problem[2])
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                for stab in leaf["rows"]:
                    if stab["derivation"][0] != "stabilize":
                        continue
                    unit = stab["derivation"][1]
                    s = str(layout.pre_index(tuple(unit)))
                    doc = json.loads(json.dumps(base))
                    rows = _tree_node(doc, at)["rows"]
                    last = max(r["id"] for r in rows)
                    moved = [r for r in rows if r["id"] < stab["id"] and (
                        r["derivation"][:2] == ["interval", unit] or list(r.get("row", ())) == [s])]
                    assert moved
                    for r in moved:
                        last += 1
                        r["id"] = last
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted and "sign" in out.reason, (at, stab["id"], out)
                    cases += 1
        assert cases >= 20

    def test_tree_mutations_all_rejected(self, tmp_path):
        """Each split of the icl and hsrv proofs of both branching instances
        in turn loses a child, gains a third, has its children swapped or
        child 0 copied over child 1, or is retyped as a leaf; each leaf is
        retyped as a split, loses its cover, or loses its rows."""
        mutations = 0
        for problem, data, path in _branching(tmp_path, (icl_verify, hsrv_verify)):
            base = prooflog.parse_proof(data)
            for at, node in _tree_nodes(base["tree"]):
                for mutate in _SPLIT_MUTATIONS if node["type"] == "split" else _LEAF_MUTATIONS:
                    doc = json.loads(json.dumps(base))
                    mutate(_tree_node(doc, at), doc)
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted, (path, at, mutate.__name__)
                    mutations += 1
        assert mutations == 108

    def test_domain_split_mutations_all_rejected(self):
        """The worked proofs' domain split of dimension 0 at 1/2, moved to 0,
        1/1000 or 1/3 (inside the edge, but not the split the children's
        rows were built on), to -1/2 or 3/2 (outside the edge), or to
        dimension 1, which the one-input network lacks."""
        mutations = 0
        for problem, data, path in _worked_domain_proofs():
            base = prooflog.parse_proof(data)
            assert base["tree"]["kind"] == ["domain", 0, "1/2"]
            for part, value in ((2, "0"), (2, "1/1000"), (2, "1/3"), (2, "-1/2"), (2, "3/2"),
                                (1, 1)):
                doc = json.loads(json.dumps(base))
                doc["tree"]["kind"][part] = value
                out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                assert not out.accepted, (path, part, value)
                mutations += 1
        assert mutations == 12

    @pytest.mark.parametrize("part, value", [(1, -1), (1, "0"), (1, 0.0), (1, False), (2, 0.5),
                                             (0, "Domain")],
                             ids=["dim-negative-index", "dim-string", "dim-float", "dim-bool",
                                  "mid-float", "kind-unknown"])
    def test_non_canonical_domain_split_rejected(self, part, value):
        """The worked proofs' domain split written in a form `emit` never
        writes: its dimension 0 as -1 (Python's index of the same edge),
        "0", 0.0 or false, its midpoint "1/2" as the JSON float 0.5, or an
        unknown split kind."""
        for problem, data, path in _worked_domain_proofs():
            doc = prooflog.parse_proof(data)
            assert doc["tree"]["kind"] == ["domain", 0, "1/2"]
            doc["tree"]["kind"][part] = value
            out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
            assert not out.accepted and "split annotation" in out.reason, (path, out)

    @pytest.mark.parametrize("coord, value", [(0, "2"), (0, 2.0), (1, "1"), (1, 1.0), (1, True)],
                             ids=["layer-string", "layer-float", "neuron-string",
                                  "neuron-float", "neuron-bool"])
    def test_non_canonical_phase_split_rejected(self, tmp_path, coord, value):
        """The root phase split on unit (2, 1) of a branching proof, with
        one coordinate written as a string, a float or a bool."""
        problem, data, path = next(_branching(tmp_path, (icl_verify,)))
        doc = prooflog.parse_proof(data)
        assert doc["tree"]["kind"] == ["phase", [2, 1]]
        doc["tree"]["kind"][1][coord] = value
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted and "split annotation" in out.reason, out

    @pytest.mark.parametrize("mutate", [
        "row-id-float", "row-id-string", "multiplier-row-id-float", "aff-layer-float",
        "guard-layer-string", "hull-unit-float", "stabilize-unit-float", "guard-float",
        "row-key-leading-zero"])
    def test_non_canonical_integer_rejected(self, tmp_path, mutate):
        """An integer field of a branching proof written in a form `emit`
        never writes but Python reads as the same integer: a float, a
        numeric string, or an object key other than its canonical decimal.
        The guarded certificate is taken from the hsrv proof of instance 42
        under the default configuration, whose gate prunes its root, and the
        derived row from the icl proof of 57 under that configuration.  A
        bad integer in a row is reported with its row at its leaf, and one
        in a certificate, at the leaf that carries it."""
        from test_search import TestBranchingOracleAgreement, tightened

        config = TestBranchingOracleAgreement.CONFIG
        idx, driver = 57, icl_verify
        if mutate == "guard-float":
            idx, config, driver = 42, Config(), hsrv_verify
        elif mutate == "row-key-leading-zero":
            config = Config()
        problem = tightened(idx)
        path = str(tmp_path / f"p{idx}.json")
        dump_problem(*problem, path)
        res = driver(*problem, config)
        doc = prooflog.parse_proof(prooflog.emit(res.tree, file_digest(path)))
        _NON_CANONICAL[mutate](doc)
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted, out
        assert "JSON integer" in out.reason or "canonical decimal" in out.reason, out
        assert out.path.startswith("tree"), out
        if mutate.startswith("row-id"):
            assert out.reason.startswith("rows: malformed: "), out
        elif mutate.startswith(("row-", "aff-", "guard-layer", "hull-", "stabilize-")):
            assert re.match(r"rows: row [0-9]+: malformed: ", out.reason), out

    def test_split_bound_mutations_all_rejected(self, tmp_path):
        """Each split bound of the worked domain proofs and of the branching
        proofs, moved by 1/1000 either way, or set to the smaller child
        bound where the two children's differ."""
        mutations = 0
        proofs = (*_worked_domain_proofs(), *_branching(tmp_path, (icl_verify, hsrv_verify)))
        for problem, data, path in proofs:
            base = prooflog.parse_proof(data)
            for at, node in _tree_nodes(base["tree"]):
                if node["type"] != "split" or "bound" not in node:
                    continue
                bound = F(node["bound"])
                betas = [F(c["bound"] if c["type"] == "split" else c["bound"]["beta"])
                         for c in node["children"]]
                assert bound == max(betas)
                for value in sorted({bound + F(1, 1000), bound - F(1, 1000), min(betas)} - {bound}):
                    doc = json.loads(json.dumps(base))
                    _tree_node(doc, at)["bound"] = format_rational(value)
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted and "split bound" in out.reason, (path, at, value)
                    mutations += 1
        assert mutations == 22

    def test_rows_renumbered_in_order_accepted(self, tmp_path):
        """Each leaf's row ids mapped by a random strictly increasing map,
        and every multiplier citing them rewritten to match: each row is
        still built after the same rows, from the same rows.  Left
        unrewritten, the multipliers cite rows the leaf no longer has."""
        rng = random.Random(13)
        proofs = 0
        for problem, data, path in (*_proofs(tmp_path, (icl_verify, hsrv_verify)),
                                    _tgct_proof(tmp_path)):
            base = prooflog.parse_proof(data)
            for rewrite in (True, False):
                doc = json.loads(json.dumps(base))
                for _, leaf in _leaf_nodes(doc["tree"]):
                    old = sorted(r["id"] for r in leaf["rows"])
                    new = sorted(rng.sample(range(3 * len(old) + 10), len(old)))
                    _renumber(leaf, dict(zip(old, new)), rewrite)
                out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                assert out.accepted == rewrite, (path, rewrite, out)
            proofs += 1
        assert proofs == 6

    def test_row_swapped_with_a_row_it_needs_rejected(self, tmp_path):
        """Each row of a kind that reads earlier rows, swapped in id with the
        earliest row it needs: a derived row
        with a row its certificate cites, a first-layer interval row with a
        region row of one of its inputs, a hull row with a row bounding its
        unit's pre-activation, a stabilize row with a row proving its sign.
        The row then has the id of the row it needs, and cannot be built
        there.  Interval rows of later layers are swapped in
        `TestIntervalRows`."""
        cases = Counter()
        for problem, data, path in (*_proofs(tmp_path, (icl_verify,)), _tgct_proof(tmp_path)):
            net = problem[0]
            layout = build_layout(net, problem[2])
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                rows = sorted(leaf["rows"], key=lambda r: r["id"])
                for r in rows:
                    needed = _needed_rows(net, layout, rows, r)
                    if not needed:
                        continue
                    target = min(needed)
                    assert target < r["id"]
                    doc = json.loads(json.dumps(base))
                    by_id = _leaf_rows(doc, at)
                    by_id[r["id"]]["id"], by_id[target]["id"] = target, r["id"]
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted and f"row {target}: " in out.reason, (
                        path, at, r, out)
                    cases[r["derivation"][0]] += 1
        assert cases == {"derived": 2, "interval": 24, "hull": 27, "stabilize": 15}, cases


def _worked_domain_proofs():
    """(problem, proof bytes, problem path) for the worked
    `first_split="domain"` proof under icl and under hsrv."""
    for driver in (icl_verify, hsrv_verify):
        res = driver(*_problem(), Config(first_split="domain"))
        assert res.status == "unsat"
        yield _problem(), prooflog.emit(res.tree, file_digest(WORKED)), WORKED


def _branching_trees(tmp_path, drivers, instances=(57, 89)):
    """(problem, proof tree, problem path) for the UNSAT runs of the
    branching instances (by default the two of `TestBranchingOracleAgreement`)
    under each driver."""
    from test_search import TestBranchingOracleAgreement, tightened

    for idx in instances:
        problem = tightened(idx)
        path = str(tmp_path / f"p{idx}.json")
        dump_problem(*problem, path)
        for driver in drivers:
            res = driver(*problem, TestBranchingOracleAgreement.CONFIG)
            assert res.status == "unsat"
            yield problem, res.tree, path


def _branching(tmp_path, drivers, instances=(57, 89)):
    """As `_branching_trees`, with each tree emitted as proof bytes."""
    for problem, tree, path in _branching_trees(tmp_path, drivers, instances):
        yield problem, prooflog.emit(tree, file_digest(path)), path


def _tgct_proof(tmp_path):
    """(problem, proof bytes, problem path) for instance 57 under icl and
    the default configuration, whose TGCT LPs leave derived rows."""
    from test_search import tightened

    problem = tightened(57)
    path = str(tmp_path / "p57-default.json")
    dump_problem(*problem, path)
    res = icl_verify(*problem, Config())
    assert res.status == "unsat"
    return problem, prooflog.emit(res.tree, file_digest(path)), path


def _proofs(tmp_path, drivers, instances=(57, 89)):
    """The worked `first_split="domain"` proof, then the proofs of the
    branching instances under each driver."""
    yield _problem(), _proof_bytes(Config(first_split="domain")), WORKED
    yield from _branching(tmp_path, drivers, instances)


class TestSolverCheckerAgreement:
    """`check` builds every leaf row from its derivation alone, in
    integers.  The row it builds must be the one the solver's store held:
    its integer form, in lowest terms, that of the store's row."""

    def test_every_built_row_is_the_stores_row(self, monkeypatch, tmp_path):
        from test_search import tightened

        built = []  # per replayed leaf: id -> the integer form of each side
        replay, check_row = prooflog._check_snapshot, prooflog._check_snapshot_row

        def replaying(*args):
            built.append({})
            return replay(*args)

        def building(pb, r, *args):
            forms = check_row(pb, r, *args)
            built[-1][r["id"]] = forms
            return forms

        monkeypatch.setattr(prooflog, "_check_snapshot", replaying)
        monkeypatch.setattr(prooflog, "_check_snapshot_row", building)
        kinds = Counter()
        worked = icl_verify(*_problem(), Config(first_split="domain")).tree
        tgct = tmp_path / "p57-default.json"
        dump_problem(*tightened(57), tgct)
        for problem, tree, path in ((_problem(), worked, WORKED),
                                    (tightened(57), icl_verify(*tightened(57)).tree, tgct),
                                    *_branching_trees(tmp_path, (icl_verify, hsrv_verify))):
            built.clear()
            digest = file_digest(path)
            assert prooflog.check_proof(problem, prooflog.emit(tree, digest), digest).accepted
            leaves = [leaf for leaf, _, _ in scoped_leaves(tree, problem[1])]
            assert built == [{cid: [r.ints for r in c.sides] for cid, c in leaf.rows}
                             for leaf in leaves], path
            kinds.update(c.derivation[0] for leaf in leaves for _, c in leaf.rows)
        assert sum(kinds.values()) > 300 and kinds["interval"] > 90, kinds
        assert kinds["derived"] and kinds["hull"] and kinds["stabilize"], kinds


class TestSolverCheckerRowParity:
    """The solver builds every store row straight into its integer form,
    and `check` rebuilds each from its tag alone.  With `Store.cone`
    patched to keep every row of a leaf's store, as `TestTrimmedLeaves`
    does, every row the solver added, retired ones included, reaches the
    checker: on the first 40 acceptance problems (default flags) and the
    branching instances 42, 57 and 89 (margin-only templates, a one-LP
    gate), under both drivers, each store row's integer sides equal the
    ones `check` builds under the same id, and every proof is ACCEPTed."""

    def test_every_store_row_is_the_row_check_rebuilds(self, monkeypatch, tmp_path):
        from test_acceptance import _spec_suite
        from test_search import TestBranchingOracleAgreement, tightened

        from relucert.store import Store

        built = []  # per replayed leaf: id -> the integer form of each side
        replay, check_row = prooflog._check_snapshot, prooflog._check_snapshot_row

        def replaying(*args):
            built.append({})
            return replay(*args)

        def building(pb, r, *args):
            forms = check_row(pb, r, *args)
            built[-1][r["id"]] = forms
            return forms

        monkeypatch.setattr(prooflog, "_check_snapshot", replaying)
        monkeypatch.setattr(prooflog, "_check_snapshot_row", building)
        monkeypatch.setattr(Store, "cone", lambda store, rids: list(store.constraints.items()))
        runs = [(problem, Config()) for problem in _spec_suite(40)]
        runs += [(tightened(idx), TestBranchingOracleAgreement.CONFIG) for idx in (42, 57, 89)]
        kinds, proofs = Counter(), 0
        for k, (problem, config) in enumerate(runs):
            path = tmp_path / f"p{k}.json"
            dump_problem(*problem, path)
            digest = file_digest(path)
            for driver in (icl_verify, hsrv_verify):
                tree = driver(*problem, config).tree
                if tree is None:
                    continue
                built.clear()
                out = prooflog.check_proof(problem, prooflog.emit(tree, digest), digest)
                assert out.accepted, (k, driver.__name__, out)
                leaves = [leaf for leaf, _, _ in scoped_leaves(tree, problem[1])]
                assert built == [{cid: [r.ints for r in c.sides] for cid, c in leaf.rows}
                                 for leaf in leaves], (k, driver.__name__)
                kinds.update(c.derivation[0] for leaf in leaves for _, c in leaf.rows)
                proofs += 1
        assert proofs >= 40 and set(kinds) == {
            "aff", "region", "negp", "guard", "interval", "hull", "stabilize", "derived"}, kinds
        assert min(kinds.values()) >= 10, kinds


def _renumber(leaf, ids: dict, rewrite: bool = True):
    """Give the leaf's rows the ids `ids` maps theirs to; with `rewrite`,
    also the ids that multipliers over its rows cite: those of its derived
    rows, its certificates and its bound."""
    def cite(multipliers):
        for rid, _ in multipliers:
            if rewrite and rid[0] == "c":
                rid[1] = ids[rid[1]]

    for r in leaf["rows"]:
        r["id"] = ids[r["id"]]
        if r["derivation"][0] == "derived":
            cite(r["derivation"][1])
    for cert in leaf["cover"]:
        cite(cert["farkas"]["multipliers"])
    if "bound" in leaf:
        cite(leaf["bound"]["multipliers"])


def _needed_rows(net, layout, rows, r) -> list[int]:
    """Ids of earlier rows that row `r` cannot be built without: for a
    derived row the rows its certificate cites, for a first-layer interval
    row the region rows of its inputs, for a hull row every row bounding
    its unit's pre-activation, for a stabilize row every row bounding it on
    the side of its sign; none for other rows."""
    tag = r["derivation"]
    if tag[0] == "derived":
        return [rid[1] for rid, _ in tag[1] if rid[0] == "c"]
    if tag[0] == "interval" and tag[1][0] == 1:
        _, j = tag[1]
        inputs = {k for k, w in enumerate(net.layers[0].weights[j]) if w}
        return [q["id"] for q in rows
                if q["derivation"][0] == "region" and q["derivation"][1] in inputs]
    if tag[0] in ("hull", "stabilize"):
        unit = tag[1]
        s = str(layout.pre_index(tuple(unit)))
        # the sign of the coefficient on s of each single-variable row on s
        sides = {q["id"]: q["derivation"][2] == "up" for q in rows
                 if q["derivation"][:2] == ["interval", unit]}
        sides.update({q["id"]: F(q["row"][s]) > 0 for q in rows
                      if list(q.get("row", ())) == [s]})
        if tag[0] == "hull":
            return [cid for cid in sides if cid < r["id"]]
        upper = tag[2] == INACTIVE  # s <= 0 needs an upper bound
        return [cid for cid, up in sides.items() if cid < r["id"] and up == upper]
    return []


def _tree_nodes(node, at=()):
    """(child-index path, node) for every node of a proof tree, preorder."""
    yield at, node
    if node["type"] == "split":
        for k, child in enumerate(node["children"]):
            yield from _tree_nodes(child, at + (k,))


def _tree_node(doc, at):
    node = doc["tree"]
    for k in at:
        node = node["children"][k]
    return node


def _drop_a_child(node, doc):
    node["children"].pop()


def _add_a_third_child(node, doc):
    node["children"].append(node["children"][0])


def _swap_the_children(node, doc):
    node["children"].reverse()


def _copy_child_0_over_child_1(node, doc):
    node["children"][1] = node["children"][0]


def _retype_as_a_leaf(node, doc):
    node["type"] = "leaf"


def _retype_as_a_split(node, doc):
    node["type"] = "split"


def _empty_the_cover(node, doc):
    node["cover"].clear()


def _drop_the_rows(node, doc):
    del node["rows"]


_SPLIT_MUTATIONS = (_drop_a_child, _add_a_third_child, _swap_the_children,
                    _copy_child_0_over_child_1, _retype_as_a_leaf)
_LEAF_MUTATIONS = (_retype_as_a_split, _empty_the_cover, _drop_the_rows)


def _leaf_nodes(tree):
    """(child-index path, leaf) for every leaf of a proof tree, preorder."""
    return [(at, node) for at, node in _tree_nodes(tree) if node["type"] == "leaf"]


def _leaves(tree):
    return [leaf for _, leaf in _leaf_nodes(tree)]


def _first_row(doc, kind):
    return next(r for leaf in _leaves(doc["tree"]) for r in leaf["rows"]
                if r["derivation"][0] == kind)


def _cover_items(doc):
    return [item for leaf in _leaves(doc["tree"]) for item in leaf["cover"]]


def _retype(container, key, kind=float):
    container[key] = kind(container[key])


_NON_CANONICAL = {
    "row-id-float": lambda doc: _retype(_first_row(doc, "aff"), "id"),
    "row-id-string": lambda doc: _retype(_first_row(doc, "aff"), "id", str),
    "multiplier-row-id-float": lambda doc: _retype(
        _cover_items(doc)[0]["farkas"]["multipliers"][0][0], 1),
    "aff-layer-float": lambda doc: _retype(_first_row(doc, "aff")["derivation"], 1),
    "guard-layer-string": lambda doc: _retype(_first_row(doc, "guard")["derivation"], 1, str),
    "hull-unit-float": lambda doc: _retype(_first_row(doc, "hull")["derivation"][1], 0),
    "stabilize-unit-float": lambda doc: _retype(_first_row(doc, "stabilize")["derivation"][1], 0),
    "guard-float": lambda doc: _retype(next(
        item for item in _cover_items(doc) if item["guards"])["guards"][0], 0),
    "row-key-leading-zero": lambda doc: _first_row(doc, "derived").update(row={
        "0" + j: v for j, v in _first_row(doc, "derived")["row"].items()}),
}
