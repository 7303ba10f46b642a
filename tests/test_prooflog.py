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
        assert prooflog.FORMAT == "relucert-proof-9" and current in data
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

    def test_format_8_document_rejected(self):
        # proof-8 wrote each unit's interval as two `interval` rows, which
        # `check` rebuilt by interval arithmetic over the rows before them
        self._old_format_rejected(8, Config(first_split="domain"))

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

    def test_hull_bound_proved_only_by_a_later_row_rejected(self, tmp_path):
        problem, data, path = _default_proof(tmp_path, 30)
        doc = prooflog.parse_proof(data)
        rows = _leaf_rows(doc)
        # rows 21 and 22 prove s(1,0) <= 173007221/176886600 and
        # s(1,0) >= -436768243/125320200, the interval that hull chord 28
        # envelopes; renumbered past every other row they no longer precede
        # it, and the chord is rebuilt over the looser seed, which derived
        # row 34's certificate cannot use
        s = str(build_layout(problem[0], problem[2]).pre_index((1, 0)))
        assert [(rows[k]["row"], rows[k]["rhs"]) for k in (21, 22)] == [
            ({s: "1"}, "173007221/176886600"), ({s: "-1"}, "436768243/125320200")]
        assert rows[28]["derivation"] == ["hull", [1, 0], 2]
        assert ["c", 28, "le"] in [rid for rid, _ in rows[34]["derivation"][1]]
        for k, cid in enumerate((21, 22), start=1):
            rows[cid]["id"] = max(rows) + k
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted and out.reason.startswith(
            "rows: row 34: derived-row certificate rejected: "), out

    def test_sign_proved_only_by_a_later_row_rejected(self, tmp_path):
        problem, data, path = _tgct_proof(tmp_path)
        doc = prooflog.parse_proof(data)
        rows = _leaf_rows(doc)
        # row 27 proves s(2,0) > 0, the sign that row 30 stabilizes as
        # active, which the seed leaves open; renumbered past every other
        # row (no row cites it), it no longer precedes row 30
        s = str(build_layout(problem[0], problem[2]).pre_index((2, 0)))
        assert list(rows[27]["row"].items()) == [(s, "-1")] and F(rows[27]["rhs"]) < 0
        assert rows[30]["derivation"] == ["stabilize", [2, 0], "active"]
        assert not any(["c", 27, "le"] in [rid for rid, _ in r["derivation"][1]]
                       for r in rows.values() if r["derivation"][0] == "derived")
        rows[27]["id"] = max(rows) + 1
        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
        assert not out.accepted and re.search(
            r"row 30: certified bounds \[-[0-9/]+, [0-9/]+\] do not fix the active sign$",
            out.reason), out

    def test_stabilize_row_on_a_straddling_unit_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rows = _leaf_rows(doc, (1,))
        # the leaf of x in [1/2, 1] moved to the root, whose scope is x in
        # [0, 1]: the checker seeds s(1,0) = 2x - 1 over it with [-1, 1],
        # which no longer fixes row 6's active sign, and no row of the leaf
        # tightens it
        assert rows[6]["derivation"] == ["stabilize", [1, 0], "active"]
        assert not any(r["derivation"][0] == "derived" for r in rows.values())
        doc["tree"] = doc["tree"]["children"][1]
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.reason.endswith(
            "row 6: certified bounds [-1, 1] do not fix the active sign"), out

    @pytest.mark.parametrize("k", [0, 1])
    def test_stabilize_row_with_a_phase_row_index_rejected(self, k):
        # proof-6 wrote ["stabilize", unit, phase, k]; k = 1, the sign row,
        # was accepted although the solver never wrote it.  A stabilize row
        # is the phase equality, and its tag names no other row
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        row = _leaf_rows(doc, (1,))[6]
        assert row["derivation"] == ["stabilize", [1, 0], "active"]
        row["derivation"].append(k)
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree/1", out
        assert out.reason.startswith("rows: row 6: malformed: ValueError('too many values"), out

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
        # the affine row, seed and hull rows of (1,0) from the changed weight,
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
            row = _leaf_rows(doc)[8]
            assert row["derivation"] == ["hull", [1, 0], 2]
            row["derivation"][2] = k
            out = prooflog.check_proof(_problem(), _dumps(doc))
            assert not out.accepted and out.reason.endswith(f"row 8: no hull row {k}"), out

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
                                         worked_region(), None, {s: ((-1, 1), (1, 1))})

    @pytest.mark.parametrize("guard, reason", [
        ([9, 9, "active"], "(9, 9) is not a ReLU unit"),
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
        doc["tree"]["rows"].append(dict(_leaf_rows(doc)[8]))
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "duplicate row id 8" in out.reason, out


class TestIntervalRows:
    """`relucert-proof-8` wrote each unit's interval as two rows tagged
    `["interval", unit, "up" | "lo"]`, which `check` rebuilt by interval
    arithmetic.  A leaf now starts each unit's interval at the seed of its
    scope, and `interval` is no derivation kind: a row so tagged, in the
    place proof-8 gave it, is a REJECT of that row at its leaf as an
    unknown kind, whatever its unit and side, and never raises."""

    def _rejected(self, unit, side):
        doc = prooflog.parse_proof(_proof_bytes())
        rows = _leaf_rows(doc)
        assert 6 not in rows and rows[8]["derivation"] == ["hull", [1, 0], 2]
        doc["tree"]["rows"].append({"id": 6, "derivation": ["interval", unit, side]})
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.path == "tree", out
        assert out.reason == "rows: row 6: unknown derivation kind interval", out

    @pytest.mark.parametrize("side", ["up", "lo"])
    def test_proof_8_interval_row_rejected(self, side):
        self._rejected([1, 0], side)

    @pytest.mark.parametrize("side", ["hi", "UP", "", None, 0])
    def test_side_other_than_up_or_lo_rejected(self, side):
        self._rejected([1, 0], side)

    @pytest.mark.parametrize("unit", [[2, 0], [3, 0], [1, 2], [0, 0], [1, -1]],
                             ids=["identity-output", "layer-out-of-range",
                                  "neuron-out-of-range", "layer-0", "neuron-negative"])
    def test_unit_without_a_relu_rejected(self, unit):
        self._rejected(unit, "up")

    @pytest.mark.parametrize("unit", [[1.0, 0], [1, "0"], [True, 0], [1], [1, 0, 0], 1],
                             ids=["float", "string", "bool", "short", "long", "scalar"])
    def test_non_integer_unit_rejected(self, unit):
        self._rejected(unit, "up")


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
        # 142 with the all-rows tableau; the bounded-variable simplex finds
        # other multipliers for degenerate optima, which cite fewer rows
        # (138); splits on the largest chord term leave 57 and 89 fewer
        # leaves, which cite fewer rows in all (92)
        assert cases == 92, cases

    def test_dropping_the_bound_row_under_a_hull_row_rejected(self, tmp_path):
        """Each derived row bounding a hull row's pre-activation before it,
        dropped: the interval the envelope was built over loses an end.
        Only TGCT writes such rows, so the default-configuration proofs of
        `_REFRESHED` are added."""
        cases = 0
        for problem, data, path in (*self._proofs(tmp_path),
                                    *(_default_proof(tmp_path, idx) for idx in _REFRESHED)):
            layout = build_layout(problem[0], problem[2])
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                rows = sorted(leaf["rows"], key=lambda r: r["id"])
                needed = {cid for r in rows if r["derivation"][0] == "hull"
                          for cid in _needed_rows(layout, rows, r)}
                for cid in sorted(needed):
                    self._rejected_without(problem, base, path, at, {cid})
                cases += len(needed)
        assert cases == 16, cases


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
    certificate values.  Moving a stabilize row before the derived rows
    that prove its sign, with every multiplier citing it rewritten, leaves
    every row intact, so only the stabilize sign rule can see it: the sign
    those rows prove no longer precedes the row.  A domain split moved
    inside its edge still covers the parent, so only the children's rows,
    rebuilt over the moved regions, can see it.  Row ids carry only order:
    renumbering a leaf's rows in order, with the multipliers that cite
    them, keeps a proof valid, and a row moved before a row it reads is
    rejected."""

    def test_sign_rows_moved_past_each_stabilize_row_rejected(self, tmp_path):
        # each stabilize row whose sign a derived row proves, where the seed
        # leaves it open, moved just before the earliest such row; only TGCT
        # writes derived rows, so the proofs are those of the default
        # configuration of instances whose leaves keep such stabilize rows.
        # The hsrv proofs are replayed too, but where one equals the icl
        # proof byte for byte it adds no case
        from test_search import tightened

        cases = 0
        seen = set()
        for idx in (57, 181, 30, 32, 151, 193):
            problem = tightened(idx)
            path = str(tmp_path / f"p{idx}.json")
            dump_problem(*problem, path)
            layout = build_layout(problem[0], problem[2])
            for driver in (icl_verify, hsrv_verify):
                res = driver(*problem, Config())
                assert res.status == "unsat"
                data = prooflog.emit(res.tree, file_digest(path))
                if data in seen:
                    continue
                seen.add(data)
                base = prooflog.parse_proof(data)
                for at, leaf in _leaf_nodes(base["tree"]):
                    rows = sorted(leaf["rows"], key=lambda r: r["id"])
                    for stab in rows:
                        needed = _needed_rows(layout, rows, stab)
                        if stab["derivation"][0] != "stabilize" or not needed:
                            continue
                        doc = json.loads(json.dumps(base))
                        ids = {r["id"]: 2 * r["id"] for r in rows}
                        ids[stab["id"]] = 2 * min(needed) - 1
                        _renumber(_tree_node(doc, at), ids)
                        out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                        reason = f"rows: row {ids[stab['id']]}: certified bounds "
                        assert not out.accepted and out.reason.startswith(reason), out
                        assert out.reason.endswith(
                            f"do not fix the {stab['derivation'][2]} sign"), (at, stab["id"], out)
                        cases += 1
        # 19 until TGCT came to tighten only the units whose chord the
        # back-substituted sum uses: 181's icl proof kept 6 such rows, and
        # keeps 4
        assert cases == 17, cases

    def test_tree_mutations_all_rejected(self, tmp_path):
        """Each split of the icl and hsrv proofs of the branching instances
        57, 89 and 181 in turn loses a child, gains a third, has its
        children swapped or child 0 copied over child 1, or is retyped as a
        leaf; each leaf is retyped as a split, loses its cover, or loses its
        rows.  181 keeps the count above the 108 that the deeper trees of 57
        and 89 gave before splits on the largest chord term."""
        mutations = 0
        for problem, data, path in _branching(tmp_path, (icl_verify, hsrv_verify),
                                              (57, 89, 181)):
            base = prooflog.parse_proof(data)
            for at, node in _tree_nodes(base["tree"]):
                for mutate in _SPLIT_MUTATIONS if node["type"] == "split" else _LEAF_MUTATIONS:
                    doc = json.loads(json.dumps(base))
                    mutate(_tree_node(doc, at), doc)
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted, (path, at, mutate.__name__)
                    mutations += 1
        assert mutations == 114

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
        """The root phase split on unit (2, 0) of a branching proof, with
        one coordinate written as a string, a float or a bool."""
        problem, data, path = next(_branching(tmp_path, (icl_verify,)))
        doc = prooflog.parse_proof(data)
        assert doc["tree"]["kind"] == ["phase", [2, 0]]
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
        derived and stabilize rows from the icl proof of 57 under that
        configuration, whose stabilize rows rest on derived rows.  A
        bad integer in a row is reported with its row at its leaf, and one
        in a certificate, at the leaf that carries it."""
        from test_search import TestBranchingOracleAgreement, tightened

        config = TestBranchingOracleAgreement.CONFIG
        idx, driver = 57, icl_verify
        if mutate == "guard-float":
            idx, config, driver = 42, Config(), hsrv_verify
        elif mutate in ("row-key-leading-zero", "stabilize-unit-float"):
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
        proofs of 57, 89 and 181, moved by 1/1000 either way, or set to the
        smaller child bound where the two children's differ.  181 keeps the
        count above the 22 that the deeper trees of 57 and 89 gave before
        splits on the largest chord term."""
        mutations = 0
        proofs = (*_worked_domain_proofs(),
                  *_branching(tmp_path, (icl_verify, hsrv_verify), (57, 89, 181)))
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
        assert mutations == 30

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
        earliest row it needs: a derived row with a row its certificate
        cites, a hull row with a derived row bounding its unit's
        pre-activation, a stabilize row with a derived row proving its sign.
        A derived or stabilize row then has the id of the row it needs, and
        cannot be built there.  A hull row can: the seed bounds its unit
        wherever it stands, and rows 0 and 1 of the envelope do not read
        the interval, so the leaf rejects where a multiplier meets a row it
        did not cite.  Hull and stabilize rows read only derived rows, which
        only TGCT writes, so the default-configuration proofs of
        `_REFRESHED` are added."""
        cases = Counter()
        for problem, data, path in (*_proofs(tmp_path, (icl_verify,), (57, 89, 181)),
                                    _tgct_proof(tmp_path),
                                    *(_default_proof(tmp_path, idx) for idx in _REFRESHED)):
            layout = build_layout(problem[0], problem[2])
            base = prooflog.parse_proof(data)
            for at, leaf in _leaf_nodes(base["tree"]):
                rows = sorted(leaf["rows"], key=lambda r: r["id"])
                for r in rows:
                    needed = _needed_rows(layout, rows, r)
                    if not needed:
                        continue
                    target = min(needed)
                    assert target < r["id"]
                    doc = json.loads(json.dumps(base))
                    by_id = _leaf_rows(doc, at)
                    by_id[r["id"]]["id"], by_id[target]["id"] = target, r["id"]
                    out = prooflog.check_proof(problem, _dumps(doc), file_digest(path))
                    assert not out.accepted and out.path == "/".join(("tree", *map(str, at))), (
                        path, at, r, out)
                    if r["derivation"][0] != "hull":
                        assert f"row {target}: " in out.reason, (path, at, r, out)
                    cases[r["derivation"][0]] += 1
        assert cases == {"derived": 31, "hull": 11, "stabilize": 13}, cases


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


def _default_proof(tmp_path, idx):
    """(problem, proof bytes, problem path) for branching instance `idx`
    under icl and the default configuration, whose TGCT LPs leave derived
    rows."""
    from test_search import tightened

    problem = tightened(idx)
    path = str(tmp_path / f"p{idx}-default.json")
    dump_problem(*problem, path)
    res = icl_verify(*problem, Config())
    assert res.status == "unsat"
    return problem, prooflog.emit(res.tree, file_digest(path)), path


def _tgct_proof(tmp_path):
    """`_default_proof` of instance 57."""
    return _default_proof(tmp_path, 57)


#: acceptance-suite instances whose default-configuration icl proofs keep
#: a hull chord or hull row 3 built over a derived row, 11 such rows in
#: all: TGCT tightened the unit and the envelope was refreshed over it.
#: 259 took the place of 42 when TGCT came to tighten only the units whose
#: chord the back-substituted sum uses, and 42's proof kept no such row
_REFRESHED = (11, 30, 32, 46, 151, 178, 193, 259)


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
                                    *_branching_trees(tmp_path, (icl_verify, hsrv_verify),
                                                      (57, 89, 181))):
            built.clear()
            digest = file_digest(path)
            assert prooflog.check_proof(problem, prooflog.emit(tree, digest), digest).accepted
            leaves = [leaf for leaf, _, _ in scoped_leaves(tree, problem[1])]
            assert built == [{cid: [r.ints for r in c.sides] for cid, c in leaf.rows}
                             for leaf in leaves], path
            kinds.update(c.derivation[0] for leaf in leaves for _, c in leaf.rows)
        assert sum(kinds.values()) > 250 and kinds["hull"] > 50, kinds
        assert kinds["derived"] and kinds["hull"] and kinds["stabilize"], kinds


class TestSolverCheckerRowParity:
    """The solver builds every store row straight into its integer form,
    and `check` rebuilds each from its tag alone.  With `Store.cone`
    patched to keep every row of a leaf's store, as `TestTrimmedLeaves`
    does, every row the solver added, retired ones included, reaches the
    checker: on the first 40 acceptance problems (default flags) and the
    branching instances 42, 57 and 89 (default flags, whose TGCT LPs leave
    most of the derived rows, and margin-only templates with a one-LP
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
        runs += [(tightened(idx), config) for idx in (42, 57, 89)
                 for config in (Config(), TestBranchingOracleAgreement.CONFIG)]
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
            "aff", "region", "negp", "guard", "hull", "stabilize", "derived"}, kinds
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


def _needed_rows(layout, rows, r) -> list[int]:
    """Ids of earlier rows that row `r` cannot be built without: for a
    derived row the rows its certificate cites; for a hull chord (row 2)
    every derived row bounding its unit's pre-activation, for hull row 3
    every such upper bound; for a stabilize row every such row on the side
    of its sign; none for other rows.  The seed of the leaf's scope bounds
    every pre-activation besides, with no row, and straddles zero wherever
    the envelope is built, so hull rows 0 and 1 need no row."""
    tag = r["derivation"]
    if tag[0] == "derived":
        return [rid[1] for rid, _ in tag[1] if rid[0] == "c"]
    if tag[0] in ("hull", "stabilize"):
        s = str(layout.pre_index(tuple(tag[1])))
        # the sign of the coefficient on s of each derived row on s alone
        sides = {q["id"]: F(q["row"][s]) > 0 for q in rows if list(q.get("row", ())) == [s]}
        if tag[0] == "stabilize":
            ends = {tag[2] == INACTIVE}  # s <= 0 needs an upper bound
        else:
            ends = ({}, {}, {True, False}, {True})[tag[2]]
        return [cid for cid, up in sides.items() if cid < r["id"] and up in ends]
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
