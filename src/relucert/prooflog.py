"""Proof log serialization and the independent replay checker.

A proof is its split tree, and it states each fact once.  Each leaf carries
its rows, written as an id and a derivation; only a derived row also
carries its row and rhs, since its tag, a dual certificate over earlier
rows, does not determine them.  The checker replays a leaf's rows once,
over the scope its path gives: the problem's region cut down by the domain
splits above the leaf, and the phases the phase splits above it commit.
It builds them in id order: affine rows and the negated property,
`-margin <= -(threshold + epsilon)` as a row over the outputs, from the
problem, region rows from the scope's region, guard rows as row k of a
phase's guard consequences (a guard row may commit only a phase the path
commits), a stabilize row as row 0 of them, its phase equality, a unit's
interval rows by interval arithmetic over the intervals that earlier rows
prove for its sources, hull rows as row k of the envelope over the
interval that earlier single-variable rows prove, and derived rows by
checking their certificate over the rows built so far.  A row the checker
cannot build, malformed or not following from the rows before it, is
reported with its id at its leaf.  It then checks the leaf's certificates
over those rows and verifies that split annotations cover each parent.

Trust boundary.  Acceptance rests on rational identities alone: the checker
never imports the LP engine, and the exact checks are those of `certs`.
`check` builds every non-derived row itself.  It builds the problem, region,
interval and hull rows with its own code, not with the functions of
`store.py` and `propagate.py` that make them, on purpose: a fault in how the
solver writes those rows cannot vouch for itself.  Its one rule beyond the rows'
definitions is interval arithmetic: a unit's interval rows bound
s = b + sum_k w_k src_k above or below over the interval that earlier rows
prove for each source: an input's single-variable rows (its region rows);
for z of the previous layer, [0, 0] after an inactive phase row of its unit
and the interval of its s after an active one (a guard row's phase is
committed on the path, a stabilize row's proved, so z = 0 or z = s there),
else z's single-variable rows (hull rows 0 and 3).  A source with no such
interval rejects the row.  From `store.py` it takes only the row
containers, normalization, each row's integer form `NormRow.ints` (which
the checks of `certs` read) and the guard consequences of a phase, whose
rows are also those a `stabilize` tag names.  None of `certs`, `store` and
`model` imports a solver module either.

Every leaf has one kind: a cover of guarded Farkas certificates over its
rows, which contain the negated-property row.  A tree node may also carry
a margin bound `margin <= beta` over its scope: a leaf by a dual
certificate over its rows whose objective is the margin's row over the
outputs, a split by the maximum of its two children's bounds, since their
scopes split the parent's.  Derived rows, the rows
built over their bounds, and margin bounds therefore hold only given the
negated property.  That is sound for the one claim a proof makes, UNSAT:
the tree shows that the negated property is infeasible on every path.
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
    parse_key,
    parse_rational,
    unique_keys,
)
from .store import (
    EQ,
    LE,
    GuardLiteral,
    LinearConstraint,
    NormalizedSystem,
    guard_consequences,
    normalize_constraint,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

FORMAT = "relucert-proof-8"


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


def _multipliers_json(cert) -> list:
    return [[list(rid), _q(v)] for rid, v in cert.multipliers]


def _guarded_json(cert: GuardedCertificate) -> dict:
    return {
        "guards": [[g.unit[0], g.unit[1], g.phase] for g in cert.guards],
        "farkas": {"multipliers": _multipliers_json(cert.inner)},
    }


def _rows_json(rows) -> list:
    """A derived row as its row, rhs and multipliers; any other row as its
    derivation alone, from which the checker rebuilds it."""
    out = []
    for cid, c in rows:
        if c.derivation[0] == "derived":
            out.append({"id": cid, "row": _row_json(c.row), "rhs": _q(c.rhs),
                        "derivation": ["derived", _multipliers_json(c.derivation[1])]})
        else:
            out.append({"id": cid, "derivation": c.derivation})
    return out


def _tree_json(entry) -> dict:
    if entry.__class__.__name__ == "ProofSplit":
        kind = entry.kind
        if kind[0] == "phase":
            kj = ["phase", [kind[1][0], kind[1][1]]]
        else:
            kj = ["domain", kind[1], _q(kind[2])]
        out = {"type": "split", "kind": kj,
               "children": [_tree_json(c) for c in entry.children]}
        if entry.bound is not None:
            out["bound"] = _q(entry.bound)
        return out
    out = {"type": "leaf", "rows": _rows_json(entry.rows),
           "cover": [_guarded_json(c) for c in entry.cover]}
    if entry.evidence is not None:
        out["bound"] = {"beta": _q(entry.evidence.bound),
                        "multipliers": _multipliers_json(entry.evidence)}
    return out


def emit(tree, problem_path) -> bytes:
    """Serialize an unsat run's proof tree deterministically."""
    doc = {"format": FORMAT, "digest": problem_digest(problem_path), "tree": _tree_json(tree)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def parse_proof(data: bytes) -> dict:
    doc = json.loads(data.decode(), object_pairs_hook=unique_keys)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError("not a recognized proof document")
    return doc


# -- deserialization of checker inputs --------------------------------------


def _json_int(value) -> int:
    """A JSON integer; not a bool, a float or a numeric string."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _unit(obj) -> tuple[int, int]:
    """A unit, (layer, neuron), as two JSON integers."""
    layer, neuron = obj
    if type(layer) is not int or type(neuron) is not int:
        raise ValueError(f"expected a unit of two JSON integers, got {obj!r}")
    return layer, neuron


def _parse_row(obj) -> dict[int, Fraction]:
    return {parse_key(j): parse_rational(v) for j, v in obj.items()}


def _parse_multipliers(obj) -> dict:
    """Row ids: their strings as written, every other part a JSON integer."""
    out = {}
    for r, v in obj:
        rid = tuple(r)
        for part in rid:
            if type(part) is not str and type(part) is not int:
                raise ValueError(f"expected a JSON integer or string in row id, got {part!r}")
        out[rid] = parse_rational(v)
    return out


def _parse_guarded(obj, relu_units) -> GuardedCertificate:
    """A guarded certificate whose guards each name a phase of a unit in
    `relu_units`."""
    guards = []
    for i, j, phase in obj["guards"]:
        unit = _unit((i, j))
        if unit not in relu_units:
            raise ValueError(f"{unit} is not a ReLU unit")
        if phase not in (ACTIVE, INACTIVE):
            raise ValueError(f"unknown phase {phase!r}")
        guards.append(GuardLiteral(unit, phase))
    return GuardedCertificate.make(
        guards, FarkasCertificate.make(_parse_multipliers(obj["farkas"]["multipliers"])))


# -- checker ----------------------------------------------------------------


class _Problem:
    """The problem, and what the checker derives from it once."""

    def __init__(self, net: Network, region: Region, prop: SafetyProperty):
        self.net = net
        self.region = region
        self.prop = prop
        self.layout: VariableLayout = build_layout(net, prop)
        self.relu_units = frozenset(net.hidden_units)


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


class _Rejected(Exception):
    """A leaf row whose derivation does not hold."""


#: what reading a malformed row, certificate or split annotation raises
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _constraint(row: dict, relation: str, rhs: Fraction) -> LinearConstraint:
    return LinearConstraint(row, relation, rhs, "", ())


def _affine_row(pb: _Problem, i: int, j: int) -> LinearConstraint:
    layer = pb.net.layers[i - 1]
    row = {pb.layout.pre_index((i, j)): _ONE}
    for k, w in enumerate(layer.weights[j]):
        if w == 0:
            continue
        src = pb.layout.input_index(k) if i == 1 else pb.layout.post_index((i - 1, k))
        row[src] = row.get(src, _ZERO) - w
    return _constraint(row, EQ, layer.bias[j])


def _phase_row(pb: _Problem, unit, phase, k) -> LinearConstraint:
    rows = guard_consequences(pb.layout, GuardLiteral(unit, phase))
    if _json_int(k) not in range(len(rows)):
        raise _Rejected(f"no phase row {k!r}")
    return rows[k]


def _hull_row(pb: _Problem, unit, k, interval: dict) -> LinearConstraint:
    """Row k of the convex envelope of z = relu(s) over the interval that
    earlier rows prove for s."""
    s = pb.layout.pre_index(unit)
    z = pb.layout.post_index(unit)
    if s == z:
        raise _Rejected(f"hull row for {unit}, which is not a ReLU unit")
    lo, hi = interval.get(s, (None, None))
    if lo is None or hi is None or not lo < 0 < hi:
        raise _Rejected(f"certified bounds [{lo}, {hi}] do not straddle zero")
    slope = hi / (hi - lo)
    rows = [
        ({z: -_ONE}, _ZERO),
        ({s: _ONE, z: -_ONE}, _ZERO),
        ({z: _ONE, s: -slope}, -slope * lo),
        ({z: _ONE}, hi),
    ]
    if _json_int(k) not in range(len(rows)):
        raise _Rejected(f"no hull row {k!r}")
    row, rhs = rows[k]
    return _constraint(row, LE, rhs)


def _interval_row(pb: _Problem, unit, side, interval: dict, phases: set) -> LinearConstraint:
    """The upper ("up") or lower ("lo") interval-arithmetic bound on the
    unit's pre-activation, by the rule of the module docstring."""
    if unit not in pb.relu_units:
        raise _Rejected(f"interval row for {unit}, which is not a ReLU unit")
    if side not in ("up", "lo"):
        raise _Rejected(f"no interval side {side!r}")
    i, j = unit
    layer = pb.net.layers[i - 1]
    up = side == "up"
    total = layer.bias[j]
    for k, w in enumerate(layer.weights[j]):
        src = (i - 1, k)
        if w == 0 or (src, INACTIVE) in phases:
            continue  # no term, or z = 0
        if i == 1:
            var = pb.layout.input_index(k)
        elif (src, ACTIVE) in phases:
            var = pb.layout.pre_index(src)  # z = s
        else:
            var = pb.layout.post_index(src)
        lo, hi = interval.get(var, (None, None))
        if lo is None or hi is None:
            raise _Rejected(f"no certified interval [{lo}, {hi}] for source {k} of {unit}")
        total += w * (hi if (w > 0) == up else lo)
    s = pb.layout.pre_index(unit)
    return _constraint({s: _ONE}, LE, total) if up else _constraint({s: -_ONE}, LE, -total)


def _check_snapshot_row(pb: _Problem, r: dict, region: Region,
                        system: NormalizedSystem, interval: dict,
                        phases: set) -> LinearConstraint:
    """The row that r's derivation yields; raises `_Rejected` when the
    derivation does not hold, and one of `_MALFORMED` when it is malformed.

    `system` holds the rows of smaller id, all built before this one,
    `interval` maps a variable to the tightest (lo, hi) they prove, and
    `phases` holds the (unit, phase) of each guard and stabilize row among
    them."""
    tag = r["derivation"]
    kind = tag[0]
    if kind == "aff":
        _, i, j = tag
        return _affine_row(pb, *_unit((i, j)))
    if kind == "region":
        _, k, side = tag
        if _json_int(k) not in range(pb.net.input_dim) or side not in ("lo", "hi"):
            raise _Rejected("malformed region tag")
        xi = pb.layout.input_index(k)
        if side == "hi":
            return _constraint({xi: _ONE}, LE, region.upper[k])
        return _constraint({xi: -_ONE}, LE, -region.lower[k])
    if kind == "negp":
        return _constraint({j: -q for j, q in pb.layout.margin.items()}, LE,
                           -pb.prop.violation_threshold)
    if kind == "guard":
        _, i, j, phase, k = tag
        return _phase_row(pb, _unit((i, j)), phase, k)
    if kind == "derived":
        # the row and rhs are the objective and bound the certificate proves
        _, multipliers = tag
        cert = DualBoundCertificate.make(_parse_row(r["row"]), parse_rational(r["rhs"]),
                                         _parse_multipliers(multipliers))
        reason = _check_dual_exact(system, cert)
        if reason is not None:
            raise _Rejected(f"derived-row certificate rejected: {reason}")
        return _constraint(cert.objective_dict, LE, cert.bound)
    if kind == "stabilize":
        _, unit, phase = tag
        unit = _unit(unit)
        row = _phase_row(pb, unit, phase, 0)
        lo, hi = interval.get(pb.layout.pre_index(unit), (None, None))
        if phase == ACTIVE and (lo is None or lo < 0) or \
                phase == INACTIVE and (hi is None or hi > 0):
            raise _Rejected(f"certified bounds [{lo}, {hi}] do not fix the {phase} sign")
        return row
    if kind == "hull":
        _, unit, k = tag
        return _hull_row(pb, _unit(unit), k, interval)
    if kind == "interval":
        _, unit, side = tag
        return _interval_row(pb, _unit(unit), side, interval, phases)
    raise _Rejected(f"unknown derivation kind {kind}")


def _check_snapshot(pb: _Problem, leaf: dict, region: Region, alpha: dict) -> tuple:
    """Replay a leaf's rows once, over its path's scope (region and phase
    commitments `alpha`): build them in id order, each from its derivation
    and the rows before it.  Returns (reason, system): a rejection reason or
    None, and the normalized system.  The benchmark counts the calls to this
    function and to `_check_snapshot_row` by these names."""
    try:
        rows = sorted(leaf["rows"], key=lambda r: _json_int(r["id"]))
    except _MALFORMED as exc:
        return f"malformed: {exc!r}", None
    for a, b in zip(rows, rows[1:]):
        if a["id"] == b["id"]:
            return f"duplicate row id {a['id']}", None
    system = NormalizedSystem([], pb.layout.n_vars)
    interval: dict[int, tuple] = {}
    phases = set()
    for r in rows:
        try:
            c = _check_snapshot_row(pb, r, region, system, interval, phases)
        except _Rejected as exc:
            return f"row {r['id']}: {exc}", None
        except _MALFORMED as exc:
            return f"row {r['id']}: malformed: {exc!r}", None
        system.extend(normalize_constraint(r["id"], c))
        tag = r["derivation"]
        if tag[0] == "guard":
            unit, phase = _unit(tag[1:3]), tag[3]
            if alpha.get(unit) != phase:
                return f"row {r['id']}: guard row for uncommitted phase {unit}:{phase}", None
            phases.add((unit, phase))
        elif tag[0] == "stabilize":
            phases.add((_unit(tag[1]), tag[2]))
        if c.relation == LE and len(c.row) == 1:
            (j, a), = c.row.items()
            lo, hi = interval.get(j, (None, None))
            b = c.rhs / a
            if a > 0:
                hi = b if hi is None else min(hi, b)
            else:
                lo = b if lo is None else max(lo, b)
            interval[j] = (lo, hi)
    return None, system


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
    """The children's scopes, for an annotation only in the form `emit`
    writes: a phase split's unit and a domain split's dimension as JSON
    integers, its midpoint as a proof rational."""
    if kind[0] == "phase":
        unit = _unit(kind[1])
        return [(region, {**alpha, unit: phase}) for phase in (ACTIVE, INACTIVE)]
    if kind[0] != "domain":
        raise ValueError(f"unknown split kind {kind[0]!r}")
    _, dim, mid = kind
    if _json_int(dim) not in range(len(region.lower)):
        raise ValueError(f"dimension {dim} outside the input")
    mid = parse_rational(mid)
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
    outcome, _ = _check_tree(pb, doc["tree"], pb.region, {}, "tree")
    return outcome


def _check_tree(pb: _Problem, node: dict, region: Region, alpha: dict,
                path: str) -> tuple[CheckOutcome, Fraction | None]:
    """The outcome for the subtree at this scope, and the margin bound its
    root proves there (None when it carries none)."""
    if node["type"] == "split":
        kind = node["kind"]
        try:
            children = _split_children(region, alpha, kind)
        except _MALFORMED as exc:
            return _reject(path, f"bad split annotation: {exc}"), None
        if kind[0] == "phase":
            unit = tuple(kind[1])
            if unit not in pb.relu_units:
                return _reject(path, f"phase split on unknown unit {unit}"), None
            if unit in alpha:
                return _reject(path, f"phase split on already-committed unit {unit}"), None
        if len(node["children"]) != 2:
            return _reject(path, "split must have two children"), None
        betas = []
        for idx, ((c_region, c_alpha), child) in enumerate(zip(children, node["children"])):
            res, beta = _check_tree(pb, child, c_region, c_alpha, f"{path}/{idx}")
            if not res.accepted:
                return res, None
            betas.append(beta)
        if "bound" not in node:
            return ACCEPTED, None
        if None in betas:
            return _reject(path, "split bound over a child without one"), None
        bound = parse_rational(node["bound"])
        if bound != max(betas):
            return _reject(path, f"split bound {bound} is not the maximum of the "
                                 f"child bounds {betas}"), None
        return ACCEPTED, bound
    if node["type"] != "leaf":
        return _reject(path, f"unknown entry type {node['type']}"), None
    reason, system = _check_snapshot(pb, node, region, alpha)
    if reason is not None:
        return _reject(path, f"rows: {reason}"), None
    cover = []
    for idx, item in enumerate(node["cover"]):
        try:
            cert = _parse_guarded(item, pb.relu_units)
        except _MALFORMED as exc:
            return _reject(path, f"cover[{idx}] certificate: malformed: {exc!r}"), None
        res = check_farkas(extend_with_guards(system, pb.layout, cert.guards), cert.inner)
        if not res.ok:
            return _reject(path, f"cover[{idx}] rejected: {res.reason}"), None
        cover.append(cert)
    reason = _check_cover(cover, alpha)
    if reason is not None:
        return _reject(path, f"cover: {reason}"), None
    if "bound" not in node:
        return ACCEPTED, None
    bound = node["bound"]
    try:
        cert = DualBoundCertificate.make(pb.layout.margin,
                                         parse_rational(bound["beta"]),
                                         _parse_multipliers(bound["multipliers"]))
    except _MALFORMED as exc:
        return _reject(path, f"bound certificate: malformed: {exc!r}"), None
    reason = _check_dual_exact(system, cert)
    if reason is not None:
        return _reject(path, f"bound certificate rejected: {reason}"), None
    return ACCEPTED, cert.bound
