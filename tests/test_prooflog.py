import ast
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import WORKED, worked_network, worked_prop, worked_region
from relucert import prooflog
from relucert.certs import FarkasCertificate, GuardedCertificate
from relucert.model import ACTIVE, INACTIVE
from relucert.search import Config, hsrv_verify, icl_verify
from relucert.store import GuardLiteral


def _problem():
    return worked_network(), worked_region(), worked_prop()


def _proof_bytes(config=None):
    res = icl_verify(*_problem(), config)
    assert res.status == "unsat"
    return prooflog.emit(res.proof, WORKED)


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _snapshot_rows(doc, sid="0"):
    """The rows of one snapshot, by id (the default worked proof has one)."""
    return {r["id"]: r for r in doc["snapshots"][sid]["rows"]}


class TestSerialization:
    def test_emitted_log_is_accepted(self):
        data = _proof_bytes()
        out = prooflog.check_proof(_problem(), data, WORKED)
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

    def test_format_1_document_rejected(self):
        data = _proof_bytes()
        assert b'"format":"relucert-proof-3"' in data
        old = data.replace(b'"format":"relucert-proof-3"', b'"format":"relucert-proof-1"')
        out = prooflog.check_proof(_problem(), old, WORKED)
        assert not out.accepted and out.path == "document"

    def test_format_2_document_rejected(self):
        data = _proof_bytes(Config(first_split="domain"))
        old = data.replace(b'"format":"relucert-proof-3"', b'"format":"relucert-proof-2"')
        assert old != data
        out = prooflog.check_proof(_problem(), old, WORKED)
        assert not out.accepted and out.path == "document"

    def test_leaves_have_one_kind(self):
        def leaves(node):
            if node["type"] == "split":
                for child in node["children"]:
                    yield from leaves(child)
            else:
                yield node

        for strategy in (icl_verify, hsrv_verify):
            res = strategy(*_problem(), Config(first_split="domain"))
            doc = prooflog.parse_proof(prooflog.emit(res.proof, WORKED))
            for leaf in leaves(doc["tree"]):
                assert set(leaf) == {"type", "cover"} and leaf["cover"]


class TestPartition:
    """Merge children must split their parent scope in two."""

    def _phase_children(self, unit, phases, parent=None):
        parent = parent or {}
        return [(worked_region(), {**parent, unit: p}) for p in phases]

    def test_phase_split_children_partition_the_parent(self):
        parent = {(1, 1): "inactive"}
        kids = self._phase_children((1, 0), ("active", "inactive"), parent)
        assert prooflog._is_partition(worked_region(), parent, kids)

    def test_same_phase_twice_is_not_a_partition(self):
        kids = self._phase_children((1, 0), ("active", "active"))
        assert not prooflog._is_partition(worked_region(), {}, kids)

    def test_children_on_different_units_are_not_a_partition(self):
        kids = [(worked_region(), {(1, 0): "active"}), (worked_region(), {(1, 1): "inactive"})]
        assert not prooflog._is_partition(worked_region(), {}, kids)


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
        out = prooflog.check_proof(_problem(), data, str(other))
        assert not out.accepted and out.path == "digest"

    def test_wrong_root_region(self):
        from relucert.model import Region

        data = _proof_bytes()
        out = prooflog.check_proof(
            (worked_network(), Region((F(0),), (F(2),)), worked_prop()), data)
        assert not out.accepted and out.path == "region"

    def test_flipped_farkas_sign_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        # flip the sign of the negated-property rhs inside every snapshot: the
        # certificate combination no longer reaches a negative total
        touched = 0
        for snap in doc["snapshots"].values():
            for row in snap["rows"]:
                if row["block"] == "negp":
                    row["rhs"] = "11/10"
                    touched += 1
        assert touched
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        out = prooflog.check_proof(_problem(), data)
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
        data = prooflog.emit(res.proof, WORKED).decode()
        mutated = data.replace('["domain",0,"1/2"]', '["domain",0,"2/3"]')
        assert mutated != data
        out = prooflog.check_proof(_problem(), mutated.encode())
        assert not out.accepted

    def test_midpoint_outside_the_parent_edge_rejected(self):
        config = Config(first_split="domain")
        res = icl_verify(*_problem(), config)
        data = prooflog.emit(res.proof, WORKED).decode()
        mutated = data.replace('["domain",0,"1/2"]', '["domain",0,"3"]')
        out = prooflog.check_proof(_problem(), mutated.encode())
        assert not out.accepted

    def test_truncated_document_rejected(self):
        data = _proof_bytes()
        out = prooflog.check_proof(_problem(), data[: len(data) // 2])
        assert not out.accepted and out.path == "document"

    def test_foreign_guard_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        sid, snap = next(iter(doc["snapshots"].items()))
        next_id = max(r["id"] for r in snap["rows"]) + 1
        snap["rows"].append({"id": next_id, "row": {"3": "1", "1": "-1"}, "relation": "eq",
                             "rhs": "0", "block": "guard", "derivation": ["guard", 1, 0, "active"]})
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        out = prooflog.check_proof(_problem(), data)
        assert not out.accepted and "guard" in out.reason


    def test_derived_row_citing_its_own_or_a_later_row_rejected(self):
        for cited in (6, 7):
            doc = prooflog.parse_proof(_proof_bytes())
            row = _snapshot_rows(doc)[6]
            assert row["derivation"][0] == "derived"
            mults = row["derivation"][1]["multipliers"]
            assert mults[1][0] == ["c", 3, "le"]
            mults[1][0] = ["c", cited, "le"]
            out = prooflog.check_proof(_problem(), _dumps(doc))
            assert not out.accepted and "non-prior" in out.reason, out

    def test_hull_bound_proved_only_by_a_later_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        rows = _snapshot_rows(doc)
        # row 6 proves s(1,0) <= 1, the upper hull parameter of rows 8-11;
        # renumbered past every other row it no longer precedes them
        assert rows[6]["row"] == {"1": "1"} and rows[6]["rhs"] == "1"
        assert rows[8]["derivation"][0] == "hull" and rows[8]["derivation"][3] == "1"
        rows[6]["id"] = max(rows) + 1
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "row 8: hull parameters" in out.reason, out

    def test_sign_proved_only_by_a_later_row_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rows = _snapshot_rows(doc, "1")
        # row 7 proves s(1,0) >= 0, the sign that row 8 stabilizes as active;
        # renumbered past every other row it no longer precedes it
        assert rows[7]["row"] == {"1": "-1"} and rows[7]["rhs"] == "0"
        assert rows[8]["derivation"] == ["stabilize", [1, 0], "active"]
        rows[7]["id"] = max(rows) + 1
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "row 8:" in out.reason and "sign" in out.reason, out

    def test_stabilize_row_on_a_straddling_unit_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        snap = doc["snapshots"]["1"]
        rows = _snapshot_rows(doc, "1")
        # widen the snapshot to x in [0, 1]: rows 4 and 7 stay exact, and now
        # prove s(1,0) in [-1, 1], which no longer fixes row 8's active sign
        assert snap["region"]["lower"] == ["1/2"] and rows[4]["rhs"] == "-1/2"
        snap["region"]["lower"] = ["0"]
        rows[4]["rhs"] = "0"
        rows[7]["rhs"] = rows[7]["derivation"][1]["bound"] = "1"
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and out.reason.endswith(
            "row 8: certified bounds [-1, 1] do not fix the active sign"), out

    def test_stabilize_rows_run_no_dual_check(self, monkeypatch):
        checking, dual_checked = [], []
        check_row, check_dual = prooflog._check_snapshot_row, prooflog.check_dual

        def row(pb, r, *args):
            checking.append(r.tag[0])
            try:
                return check_row(pb, r, *args)
            finally:
                checking.pop()

        def dual(*args):
            dual_checked.append(checking[-1] if checking else "evidence")
            return check_dual(*args)

        monkeypatch.setattr(prooflog, "_check_snapshot_row", row)
        monkeypatch.setattr(prooflog, "check_dual", dual)
        data = _proof_bytes(Config(first_split="domain"))
        tags = [r["derivation"] for s in prooflog.parse_proof(data)["snapshots"].values()
                for r in s["rows"]]
        stabilize = [t for t in tags if t[0] == "stabilize"]
        assert len(stabilize) == 4 and all(len(t) == 3 for t in stabilize)
        assert prooflog.check_proof(_problem(), data, WORKED).accepted
        assert "derived" in dual_checked and "stabilize" not in dual_checked

    def test_duplicated_row_id_rejected(self):
        doc = prooflog.parse_proof(_proof_bytes())
        (snap,) = doc["snapshots"].values()
        snap["rows"].append(dict(snap["rows"][6]))
        out = prooflog.check_proof(_problem(), _dumps(doc))
        assert not out.accepted and "duplicate row id 6" in out.reason, out


class TestNeverRaises:
    """Input the checker cannot follow is a REJECT that names the exception."""

    def _check(self, data, exc_name):
        out = prooflog.check_proof(_problem(), data)
        assert not out.accepted and out.path == "document" and exc_name in out.reason, out

    def test_snapshots_given_as_a_list(self):
        doc = prooflog.parse_proof(_proof_bytes())
        doc["snapshots"] = list(doc["snapshots"].values())
        self._check(_dumps(doc), "AttributeError")

    def test_root_region_of_unequal_length(self):
        doc = prooflog.parse_proof(_proof_bytes())
        doc["region"]["upper"].append("2")
        self._check(_dumps(doc), "DimensionError")

    def test_snapshot_region_of_unequal_length(self):
        doc = prooflog.parse_proof(_proof_bytes())
        doc["snapshots"]["0"]["region"]["lower"].append("0")
        self._check(_dumps(doc), "DimensionError")

    def test_lemma_region_of_unequal_length(self):
        doc = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        doc["lemmas"][0]["region"]["upper"].append("2")
        self._check(_dumps(doc), "DimensionError")

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
    """A proof with a merge lemma cites each leaf snapshot twice: from its
    leaf cover and from the lemma's merge evidence."""

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
        assert doc["lemmas"]
        assert prooflog.check_proof(_problem(), data, WORKED).accepted
        return doc

    def test_each_snapshot_replayed_once(self, monkeypatch):
        calls = self._count(monkeypatch, "_check_snapshot")
        doc = self._check_domain_proof()
        assert len(calls) == len(doc["snapshots"]) == 2

    def test_each_snapshot_row_normalized_once(self, monkeypatch):
        calls = self._count(monkeypatch, "normalize_constraint")
        checked = self._count(monkeypatch, "_check_snapshot_row")
        doc = self._check_domain_proof()
        rows = sum(len(s["rows"]) for s in doc["snapshots"].values())
        assert len(calls) == len(checked) == rows


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
        from conftest import mutate_rational_field
        base = prooflog.parse_proof(_proof_bytes(Config(first_split="domain")))
        rng = random.Random(123)
        rejected = 0
        for _ in range(40):
            doc = json.loads(json.dumps(base))
            mutate_rational_field(rng, doc)
            data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            out = prooflog.check_proof(_problem(), data, WORKED)
            assert not out.accepted, f"mutation survived: {out}"
            rejected += 1
        assert rejected == 40
