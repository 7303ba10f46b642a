"""Proof log serialization and the independent replay checker.

The log inlines every row a certificate is checked against (snapshot rows by
value), so checking never depends on solver row-id allocation.  The checker
re-derives each snapshot row, in id order, from the problem itself, from a
dual certificate over rows of smaller id, or (hull and stabilize rows) from
the interval that earlier single-variable rows prove; it then checks every
leaf certificate and verifies that split annotations cover each parent.  A
snapshot is replayed once per check, however many leaves and merge children
cite it; each citation then checks only its scope (region and guard
literals).

Trust boundary.  Acceptance rests on rational identities alone: the checker
never imports the LP engine, and the exact checks are those of `certs`.  It
rebuilds the affine and margin-definition rows from the network and the
property with its own code, not with the builder in `store.py`, on purpose:
a fault in how the store writes those rows cannot vouch for itself.  From
`store.py` it takes only the row containers, normalization and the guard
consequences of a phase, which are also the rows of a stabilized unit.

Every leaf has one kind: a cover of guarded Farkas certificates, each over a
snapshot that contains the negated-property row.  Derived rows, margin
bounds and merge lemmas therefore hold only given the negated property.
That is sound for the one claim a proof makes, UNSAT: the tree shows that
the negated property is infeasible on every path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .certs import (
    DualBoundCertificate,
    FarkasCertificate,
    GuardedCertificate,
    check_dual,
    check_farkas,
    extend_with_guards,
)
from .model import (
    ACTIVE,
    INACTIVE,
    Network,
    Region,
    SafetyProperty,
    VariableLayout,
    build_layout,
    format_rational,
    parse_rational,
)
from .store import (
    EQ,
    LE,
    GuardLiteral,
    NormalizedSystem,
    guard_consequences,
    normalize_constraint,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

FORMAT = "relucert-proof-3"


@dataclass(frozen=True)
class CheckOutcome:
    accepted: bool
    path: str = ""
    reason: str = ""


ACCEPTED = CheckOutcome(True)


def _reject(path: str, reason: str) -> CheckOutcome:
    return CheckOutcome(False, path, reason)


def problem_digest(problem_path) -> str:
    with open(problem_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- serialization ----------------------------------------------------------


def _q(v: Fraction) -> str:
    return format_rational(Fraction(v))


def _row_json(row) -> dict:
    return {str(j): _q(v) for j, v in sorted(dict(row).items())}


def _rid_json(rid) -> list:
    return list(rid)


def _dual_json(cert: DualBoundCertificate) -> dict:
    return {
        "objective": _row_json(cert.objective_dict),
        "bound": _q(cert.bound),
        "multipliers": [[_rid_json(rid), _q(v)] for rid, v in cert.multipliers],
    }


def _farkas_json(cert: FarkasCertificate) -> dict:
    return {"multipliers": [[_rid_json(rid), _q(v)] for rid, v in cert.multipliers]}


def _guarded_json(cert: GuardedCertificate) -> dict:
    return {
        "guards": [[g.unit[0], g.unit[1], g.phase] for g in cert.guards],
        "farkas": _farkas_json(cert.inner),
    }


def _tag_json(tag: tuple) -> list:
    kind = tag[0]
    if kind in ("aff", "margin-def", "region", "negp", "guard"):
        return list(tag)
    if kind == "derived":
        return ["derived", _dual_json(tag[1])]
    if kind == "stabilize":
        return ["stabilize", list(tag[1]), tag[2]]
    if kind == "hull":
        return ["hull", list(tag[1]), _q(tag[2]), _q(tag[3])]
    if kind == "lemma":
        return ["lemma", tag[1]]
    raise ValueError(f"unknown derivation tag {tag!r}")


def _snapshot_json(snap) -> dict:
    region, rows = snap
    out = []
    for cid, row, relation, rhs, block, tag in rows:
        out.append({
            "id": cid,
            "row": _row_json(dict(row)),
            "relation": relation,
            "rhs": _q(rhs),
            "block": block,
            "derivation": _tag_json(tag),
        })
    return {"region": _region_json(region), "rows": out}


def _region_json(region: Region) -> dict:
    return {"lower": [_q(v) for v in region.lower],
            "upper": [_q(v) for v in region.upper]}


def _evidence_json(evidence) -> dict:
    if isinstance(evidence, DualBoundCertificate):
        return {"kind": "dual", "cert": _dual_json(evidence)}
    return {"kind": "merge", "justification": _justification_json(evidence)}


def _justification_json(just) -> dict:
    children = []
    for region, alpha, beta, evidence, sid in just.children:
        children.append({
            "region": _region_json(region),
            "alpha": [[u[0], u[1], p] for u, p in sorted(alpha.items())],
            "beta": _q(beta),
            "evidence": _evidence_json(evidence),
            "snapshot": sid,
        })
    return {"kind": "merge", "template": _row_json(dict(just.template)),
            "beta": _q(just.beta), "children": children}


def _tree_json(entry) -> dict:
    if entry.__class__.__name__ == "ProofSplit":
        kind = entry.kind
        if kind[0] == "phase":
            kj = ["phase", [kind[1][0], kind[1][1]]]
        else:
            kj = ["domain", kind[1], _q(kind[2])]
        return {"type": "split", "kind": kj,
                "children": [_tree_json(c) for c in entry.children]}
    return {"type": "leaf",
            "cover": [{"cert": _guarded_json(c), "snapshot": sid}
                      for c, sid in entry.cover]}


def emit(run, problem_path) -> bytes:
    """Serialize an unsat run's proof deterministically."""
    doc = {
        "format": FORMAT,
        "digest": problem_digest(problem_path),
        "region": _region_json(run.region),
        "snapshots": {str(sid): _snapshot_json(snap)
                      for sid, snap in sorted(run.snapshots.items())},
        "lemmas": [{
            "id": e.lemma_id,
            "row": _row_json(dict(e.row)),
            "bound": _q(e.bound),
            "global": e.is_global,
            "region": _region_json(e.region),
            "alpha": [[u[0], u[1], p] for u, p in sorted(e.alpha.items())],
            "justification": _justification_json(e.justification),
        } for e in run.lemmas],
        "tree": _tree_json(run.root),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def parse_proof(data: bytes) -> dict:
    doc = json.loads(data.decode())
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a recognized proof document")
    return doc


# -- deserialization of checker inputs --------------------------------------


def _parse_row(obj) -> dict[int, Fraction]:
    return {int(j): parse_rational(v) for j, v in obj.items()}


def _parse_rid(obj):
    return tuple(obj)


def _parse_dual(obj) -> DualBoundCertificate:
    return DualBoundCertificate.make(
        _parse_row(obj["objective"]), parse_rational(obj["bound"]),
        {_parse_rid(r): parse_rational(v) for r, v in obj["multipliers"]})


def _parse_guarded(obj) -> GuardedCertificate:
    guards = [GuardLiteral((int(i), int(j)), p) for i, j, p in obj["guards"]]
    lam = {_parse_rid(r): parse_rational(v) for r, v in obj["farkas"]["multipliers"]}
    return GuardedCertificate.make(guards, FarkasCertificate.make(lam))


def _parse_tag(obj) -> tuple:
    kind = obj[0]
    if kind in ("aff", "margin-def", "negp", "region", "guard", "lemma"):
        return tuple(obj)
    if kind == "derived":
        return ("derived", _parse_dual(obj[1]))
    if kind == "stabilize":
        return ("stabilize", tuple(obj[1]), obj[2])
    if kind == "hull":
        return ("hull", tuple(obj[1]), parse_rational(obj[2]), parse_rational(obj[3]))
    raise ValueError(f"unknown derivation tag {obj!r}")


def _parse_region(obj) -> Region:
    return Region(tuple(parse_rational(v) for v in obj["lower"]),
                  tuple(parse_rational(v) for v in obj["upper"]))


@dataclass(frozen=True)
class _SnapRow:
    cid: int
    row: tuple
    relation: str
    rhs: Fraction
    block: str
    tag: tuple


@dataclass(frozen=True)
class _Snapshot:
    region: Region
    rows: tuple


def _parse_snapshot(obj) -> _Snapshot:
    rows = []
    for e in obj["rows"]:
        rows.append(_SnapRow(int(e["id"]), tuple(sorted(_parse_row(e["row"]).items())),
                             e["relation"], parse_rational(e["rhs"]), e["block"],
                             _parse_tag(e["derivation"])))
    return _Snapshot(_parse_region(obj["region"]), tuple(rows))


# -- checker ----------------------------------------------------------------


class _Problem:
    """The problem, and what one `check_proof` call has read of the proof:
    its snapshots, the lemmas accepted so far and each snapshot replay."""

    def __init__(self, net: Network, region: Region, prop: SafetyProperty):
        self.net = net
        self.region = region
        self.prop = prop
        self.layout: VariableLayout = build_layout(net, prop)
        self.snapshots: dict[int, _Snapshot] = {}
        self.lemmas: dict[int, tuple] = {}  # id -> (row, bound, is_global)
        self.replays: dict[int, tuple] = {}  # id -> _check_snapshot's result


def _check_dual_exact(sys: NormalizedSystem, cert: DualBoundCertificate) -> str | None:
    """Strict dual acceptance: lambda >= 0, lambda^T A = g^T and
    lambda^T b = bound exactly.  The emitter always records the achieved
    value, so any slack marks a tampered artifact."""
    res = check_dual(sys, cert)
    if not res.ok:
        return res.reason
    if res.value != cert.bound:
        return f"certificate bound {cert.bound} differs from lambda^T b = {res.value}"
    return None


def _affine_row(pb: _Problem, i: int, j: int):
    layer = pb.net.layers[i - 1]
    row = {pb.layout.pre_index((i, j)): _ONE}
    for k, w in enumerate(layer.weights[j]):
        if w == 0:
            continue
        src = pb.layout.input_index(k) if i == 1 else pb.layout.post_index((i - 1, k))
        row[src] = row.get(src, _ZERO) - w
    return {k: v for k, v in row.items() if v != 0}, layer.bias[j]


def _margin_def_row(pb: _Problem):
    row = {pb.layout.margin_index: _ONE}
    for idx, coeff in pb.prop.margin:
        oi = pb.layout.output_index(idx)
        row[oi] = row.get(oi, _ZERO) - coeff
    return {k: v for k, v in row.items() if v != 0}


def _cites_only_prior(cert: DualBoundCertificate, cid: int) -> bool:
    return all(rid[0] == "c" and int(rid[1]) < cid for rid, _ in cert.multipliers)


def _is_phase_row(pb: _Problem, lit: GuardLiteral, r: _SnapRow) -> bool:
    """The row is one of the linear consequences of committing the phase."""
    row = dict(r.row)
    return any(c.relation == r.relation and dict(c.row) == row and c.rhs == r.rhs
               for c in guard_consequences(pb.layout, lit))


def _check_snapshot_row(pb: _Problem, r: _SnapRow, region: Region,
                        system: NormalizedSystem, interval: dict) -> str | None:
    """Returns a rejection reason, or None when the row is derivable.

    `system` holds every row of the snapshot; a certificate may cite only
    rows of smaller id, all of which were checked before this one.
    `interval` maps a variable to the tightest (lo, hi) those rows prove."""
    tag = r.tag
    kind = tag[0]
    row = dict(r.row)
    if kind == "aff":
        want_row, want_rhs = _affine_row(pb, int(tag[1]), int(tag[2]))
        if r.relation != EQ or row != want_row or r.rhs != want_rhs:
            return "affine row mismatch"
        return None
    if kind == "margin-def":
        if pb.layout.margin_is_aliased:
            return "margin-def row for aliased margin"
        if r.relation != EQ or row != _margin_def_row(pb) or r.rhs != _ZERO:
            return "margin definition mismatch"
        return None
    if kind == "region":
        k = int(tag[1])
        if r.relation != LE or k >= pb.net.input_dim:
            return "malformed region row"
        xi = pb.layout.input_index(k)
        if tag[2] == "hi":
            if row != {xi: _ONE} or r.rhs != region.upper[k]:
                return "region upper row differs from the snapshot region"
        elif tag[2] == "lo":
            if row != {xi: -_ONE} or r.rhs != -region.lower[k]:
                return "region lower row differs from the snapshot region"
        else:
            return "malformed region tag"
        return None
    if kind == "negp":
        want = {pb.layout.margin_index: -_ONE}
        if r.relation != LE or row != want or r.rhs != -pb.prop.violation_threshold:
            return "negated property row mismatch"
        return None
    if kind == "guard":
        if _is_phase_row(pb, GuardLiteral((int(tag[1]), int(tag[2])), tag[3]), r):
            return None
        return "guard row content mismatch"
    if kind == "derived":
        cert = tag[1]
        if r.relation != LE:
            return "derived row must be an inequality"
        if cert.objective_dict != row:
            return "derived row differs from certificate objective"
        if cert.bound != r.rhs:
            return "derived row differs from its certificate bound"
        if not _cites_only_prior(cert, r.cid):
            return "derived row cites a non-prior row"
        reason = _check_dual_exact(system, cert)
        if reason is not None:
            return f"derived-row certificate rejected: {reason}"
        return None
    if kind == "stabilize":
        unit, phase = tuple(tag[1]), tag[2]
        if phase not in (ACTIVE, INACTIVE):
            return "unknown stabilization phase"
        if not _is_phase_row(pb, GuardLiteral(unit, phase), r):
            return "stabilization row content mismatch"
        lo, hi = interval.get(pb.layout.pre_index(unit), (None, None))
        if phase == ACTIVE and (lo is None or lo < 0) or \
                phase == INACTIVE and (hi is None or hi > 0):
            return f"certified bounds [{lo}, {hi}] do not fix the {phase} sign"
        return None
    if kind == "hull":
        unit = tuple(tag[1])
        lo, hi = tag[2], tag[3]
        if not (lo < 0 < hi):
            return "hull parameters do not straddle zero"
        s = pb.layout.pre_index(unit)
        z = pb.layout.post_index(unit)
        if interval.get(s) != (lo, hi):
            return "hull parameters differ from the certified bounds"
        slope = hi / (hi - lo)
        candidates = [
            ({z: -_ONE}, _ZERO),
            ({s: _ONE, z: -_ONE}, _ZERO),
            ({z: _ONE, s: -slope}, -slope * lo),
            ({z: _ONE}, hi),
        ]
        if r.relation != LE:
            return "hull row must be an inequality"
        for want, rhs in candidates:
            if row == want and r.rhs == rhs:
                return None
        return "hull row content mismatch"
    if kind == "lemma":
        lid = int(tag[1])
        if lid not in pb.lemmas:
            return f"unknown lemma {lid}"
        lemma_row, bound, is_global = pb.lemmas[lid]
        if not is_global:
            return "non-global lemma injected"
        if r.relation != LE or row != lemma_row or r.rhs != bound:
            return "lemma row mismatch"
        return None
    return f"unknown derivation kind {kind}"


def _check_snapshot(pb: _Problem, snap: _Snapshot) -> tuple:
    """Replay a snapshot once, over its own region: normalize every row, then
    check the rows in id order.  Returns (reason, system, guards): a
    rejection reason or None, the normalized system, and the (unit, phase)
    literals its guard rows assume."""
    rows = sorted(snap.rows, key=lambda e: e.cid)
    for a, b in zip(rows, rows[1:]):
        if a.cid == b.cid:
            return f"duplicate row id {a.cid}", None, None
    from .store import LinearConstraint  # row container only
    norm = []
    for r in rows:
        norm.extend(normalize_constraint(r.cid, LinearConstraint(dict(r.row), r.relation,
                                                                 r.rhs, r.block, ())))
    system = NormalizedSystem(norm, max((j + 1 for r in rows for j, _ in r.row), default=0))
    interval: dict[int, tuple] = {}
    guards = set()
    for r in rows:
        reason = _check_snapshot_row(pb, r, snap.region, system, interval)
        if reason is not None:
            return f"row {r.cid}: {reason}", None, None
        if r.tag[0] == "guard":
            guards.add(((int(r.tag[1]), int(r.tag[2])), r.tag[3]))
        if r.relation == LE and len(r.row) == 1:
            (j, c), = r.row
            lo, hi = interval.get(j, (None, None))
            b = r.rhs / c
            if c > 0:
                hi = b if hi is None else min(hi, b)
            else:
                lo = b if lo is None else max(lo, b)
            interval[j] = (lo, hi)
    return None, system, frozenset(guards)


def _scoped_system(pb: _Problem, sid, region: Region, allowed: set):
    """(reason, system) for using snapshot `sid` at a path with this region,
    where its guard rows may assume only the literals in `allowed`."""
    if sid not in pb.snapshots:
        return "missing snapshot", None
    if sid not in pb.replays:
        pb.replays[sid] = _check_snapshot(pb, pb.snapshots[sid])
    reason, system, guards = pb.replays[sid]
    if reason is not None:
        return reason, None
    if not _region_contains(pb.snapshots[sid].region, region):
        return "snapshot region does not enclose the path region", None
    stray = sorted(guards - allowed)
    if stray:
        unit, phase = stray[0]
        return f"guard row for uncommitted phase {unit}:{phase}", None
    return None, system


def _region_contains(outer: Region, inner: Region) -> bool:
    return len(outer.lower) == len(inner.lower) and all(
        olo <= ilo and ohi >= ihi
        for olo, ohi, ilo, ihi in zip(outer.lower, outer.upper, inner.lower, inner.upper))


def _check_cover(certs: list[GuardedCertificate], alpha: dict) -> str | None:
    """The guard sets must exclude every total phase assignment compatible
    with the path's commitments.  Case split on a unit that a certificate
    still in play mentions; a branch closes once one certificate's guards
    all hold, and fails once every certificate is contradicted."""
    stack = [(dict(alpha), list(certs))]
    while stack:
        sigma, live = stack.pop()
        live = [c for c in live if all(sigma.get(g.unit, g.phase) == g.phase
                                       for g in c.guards)]
        if any(all(g.unit in sigma for g in c.guards) for c in live):
            continue
        if not live:
            return f"assignment {sigma} not excluded by the cover"
        unit = next(g.unit for g in live[0].guards if g.unit not in sigma)
        stack.extend(({**sigma, unit: p}, live) for p in (ACTIVE, INACTIVE))
    return None


def _split_children(region: Region, alpha: dict, kind) -> list[tuple[Region, dict]]:
    if kind[0] == "phase":
        unit = (int(kind[1][0]), int(kind[1][1]))
        return [(region, {**alpha, unit: phase}) for phase in (ACTIVE, INACTIVE)]
    _, dim, mid = kind
    dim = int(dim)
    mid = parse_rational(mid) if isinstance(mid, str) else mid
    lo, hi = region.lower[dim], region.upper[dim]
    if not (lo <= mid <= hi):
        raise ValueError("midpoint outside the parent edge")
    out = []
    for a, b in ((lo, mid), (mid, hi)):
        lower = list(region.lower)
        upper = list(region.upper)
        lower[dim], upper[dim] = a, b
        out.append((Region(tuple(lower), tuple(upper)), dict(alpha)))
    return out


def _parse_alpha(obj) -> dict:
    return {(int(i), int(j)): p for i, j, p in obj}


def _check_evidence(pb: _Problem, evidence: dict, template: dict, beta: Fraction,
                    region: Region, alpha: dict, sid, path: str) -> CheckOutcome:
    if evidence["kind"] == "merge":
        return _check_merge(pb, evidence["justification"], template, beta,
                            region, alpha, path)
    if evidence["kind"] != "dual":
        return _reject(path, f"unknown evidence kind {evidence['kind']}")
    cert = _parse_dual(evidence["cert"])
    if cert.objective_dict != template:
        return _reject(path, "evidence certificate for a different template")
    if cert.bound != beta:
        return _reject(path, "evidence bound differs from the recorded beta")
    # guard rows inside the snapshot must belong to the scope's alpha
    reason, system = _scoped_system(pb, sid, region, set(alpha.items()))
    if reason is not None:
        return _reject(path, f"snapshot: {reason}")
    reason = _check_dual_exact(system, cert)
    if reason is not None:
        return _reject(path, f"evidence certificate rejected: {reason}")
    return ACCEPTED


def _check_merge(pb: _Problem, just: dict, template: dict, beta: Fraction,
                 region: Region, alpha: dict, path: str) -> CheckOutcome:
    if just["kind"] != "merge":
        return _reject(path, f"unknown justification kind {just['kind']}")
    if _parse_row(just["template"]) != template:
        return _reject(path, "merge justification for a different template")
    if parse_rational(just["beta"]) != beta:
        return _reject(path, "merge justification bound differs from the recorded beta")
    children = just["children"]
    if len(children) != 2:
        return _reject(path, "merge requires exactly two children")
    parsed = []
    for c in children:
        parsed.append((_parse_region(c["region"]), _parse_alpha(c["alpha"]),
                       parse_rational(c["beta"]), c["evidence"], c.get("snapshot")))
    if max(p[2] for p in parsed) != beta:
        return _reject(path, "merged bound is not the maximum of the child bounds")
    if not _is_partition(region, alpha, parsed):
        return _reject(path, "children do not partition the parent scope")
    for idx, (c_region, c_alpha, c_beta, evidence, sid) in enumerate(parsed):
        res = _check_evidence(pb, evidence, template, c_beta, c_region, c_alpha,
                              sid, f"{path}/child{idx}")
        if not res.accepted:
            return res
    return ACCEPTED


def _is_partition(region: Region, alpha: dict, parsed) -> bool:
    (r1, a1, *_), (r2, a2, *_) = parsed
    if r1 == r2 == region:
        # phase split: alphas extend the parent by complementary phases
        extra1 = {u: p for u, p in a1.items() if alpha.get(u) != p}
        extra2 = {u: p for u, p in a2.items() if alpha.get(u) != p}
        if len(extra1) == 1 and len(extra2) == 1:
            (u1, p1), = extra1.items()
            (u2, p2), = extra2.items()
            return u1 == u2 and {p1, p2} == {ACTIVE, INACTIVE} and \
                {**a1, u1: p2} == a2
        return False
    if a1 == a2 == alpha:
        dims = [k for k in range(len(region.lower))
                if (r1.lower[k], r1.upper[k]) != (r2.lower[k], r2.upper[k])]
        if len(dims) != 1:
            return False
        k = dims[0]
        for r in (r1, r2):
            for d in range(len(region.lower)):
                if d != k and (r.lower[d], r.upper[d]) != (region.lower[d], region.upper[d]):
                    return False
        lo, hi = region.lower[k], region.upper[k]
        return (r1.lower[k] == lo and r1.upper[k] == r2.lower[k] and r2.upper[k] == hi
                and lo <= r1.upper[k] <= hi)
    return False


def check_proof(problem, log_bytes: bytes, problem_path=None) -> CheckOutcome:
    """Replay a proof log against the original problem.

    `problem` is the (net, region, prop) triple; `problem_path`, when given,
    is used to verify the digest.  Never raises: an input the checker cannot
    follow, whatever the exception, is a REJECT that names it.
    """
    try:
        doc = parse_proof(log_bytes)
    except Exception as exc:
        return _reject("document", f"unparseable: {exc!r}")
    try:
        return _check_doc(_Problem(*problem), doc, problem_path)
    except Exception as exc:
        return _reject("document", f"malformed: {exc!r}")


def _check_doc(pb: _Problem, doc: dict, problem_path) -> CheckOutcome:
    if problem_path is not None and doc["digest"] != problem_digest(problem_path):
        return _reject("digest", "problem digest mismatch")
    if _parse_region(doc["region"]) != pb.region:
        return _reject("region", "root region differs from the problem region")
    pb.snapshots = {int(s): _parse_snapshot(rows) for s, rows in doc["snapshots"].items()}

    # lemma preamble, in order: each justification must close over its scope
    for idx, entry in enumerate(doc["lemmas"]):
        path = f"lemma[{idx}]"
        row, bound = _parse_row(entry["row"]), parse_rational(entry["bound"])
        scope_region = _parse_region(entry["region"])
        scope_alpha = _parse_alpha(entry["alpha"])
        if entry["global"] and (scope_region != pb.region or scope_alpha):
            return _reject(path, "global lemma with non-root scope")
        res = _check_merge(pb, entry["justification"], row, bound, scope_region,
                           scope_alpha, path)
        if not res.accepted:
            return res
        pb.lemmas[int(entry["id"])] = (row, bound, bool(entry["global"]))

    return _check_tree(pb, doc["tree"], pb.region, {}, "tree")


def _check_tree(pb: _Problem, node: dict, region: Region, alpha: dict,
                path: str) -> CheckOutcome:
    if node["type"] == "split":
        kind = node["kind"]
        try:
            children = _split_children(region, alpha, kind)
        except (ValueError, IndexError) as exc:
            return _reject(path, f"bad split annotation: {exc}")
        if kind[0] == "phase":
            unit = (int(kind[1][0]), int(kind[1][1]))
            if unit not in set(pb.net.hidden_units):
                return _reject(path, f"phase split on unknown unit {unit}")
            if unit in alpha:
                return _reject(path, f"phase split on already-committed unit {unit}")
        if len(node["children"]) != 2:
            return _reject(path, "split must have two children")
        for idx, ((c_region, c_alpha), child) in enumerate(zip(children, node["children"])):
            res = _check_tree(pb, child, c_region, c_alpha, f"{path}/{idx}")
            if not res.accepted:
                return res
        return ACCEPTED
    if node["type"] != "leaf":
        return _reject(path, f"unknown entry type {node['type']}")
    cover = []
    for idx, item in enumerate(node["cover"]):
        cert = _parse_guarded(item["cert"])
        allowed = set(alpha.items()) | {(g.unit, g.phase) for g in cert.guards}
        reason, system = _scoped_system(pb, item["snapshot"], region, allowed)
        if reason is not None:
            return _reject(path, f"cover[{idx}] snapshot: {reason}")
        res = check_farkas(extend_with_guards(system, pb.layout, cert.guards), cert.inner)
        if not res.ok:
            return _reject(path, f"cover[{idx}] rejected: {res.reason}")
        cover.append(cert)
    reason = _check_cover(cover, alpha)
    if reason is not None:
        return _reject(path, f"cover: {reason}")
    return ACCEPTED
