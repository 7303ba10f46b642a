"""Proof log serialization and the independent replay checker.

A proof is its split tree, and it states each fact once.  Each leaf carries
the rows its certificates reach, under its store's ids: the rows they cite
and, transitively, the rows each of those is built from (`Store.cone`).
A row is written as an id and a derivation; only a derived row also
carries its row and rhs, since its tag, a dual certificate over earlier
rows, does not determine them.  The checker replays a leaf's rows once,
over the scope its path gives: the problem's region cut down by the domain
splits above the leaf, and the phases the phase splits above it commit.
It accepts any rows that replay so, whatever the store held besides.
It builds them in id order, each straight into its integer form
(den, den a, den b), with no `Fraction` per coefficient: affine rows and
the negated property,
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

Trust boundary.  Acceptance rests on rational identities alone.  The trust
base is this module, `certs`, `rows` and `model`: none of them imports a
solver module (`store`, `lp`, `propagate`, `gate`, `search`, `budget`,
`cli`), and the exact checks are those of `certs`.  `check` builds every
non-derived row itself.  It builds the region, interval and hull rows with
its own code, not with the functions of `store` and `propagate` that make
them, on purpose: a fault in how the solver writes those rows cannot vouch
for itself.  A unit's affine row and a phase's rows are definitions, not
derivations: it takes them, as the solver does, from `rows.affine_row`
(over the unit's `rows.unit_weights`, the problem's weights and bias in
integers) and `rows.guard_rows`, the one place that defines each.  Its one
rule beyond the rows' definitions is interval arithmetic: a unit's
interval rows bound s = b + sum_k w_k src_k above or below over the
interval that earlier rows prove for each source: an input's
single-variable rows (its region rows); for z of the previous layer,
[0, 0] after an inactive phase row of its unit and the interval of its s
after an active one (a guard row's phase is committed on the path, a
stabilize row's proved, so z = 0 or z = s there), else z's single-variable
rows (hull rows 0 and 3).  A source with no such interval rejects the row.
Intervals are kept in integers too, each end a pair (num, den).  From
`rows` it takes besides only the row containers, in which a `NormRow` is a
row's id and integer form (all that the checks of `certs` read), and the
arithmetic of integer forms: `int_form` for the negated property and
derived rows, `lowest_terms` and `equality`.  It builds each affine row
once per unit and each phase's rows once per (unit, phase) per check.
`certs.check_guarded`, the one cover check, adds a cover certificate's
guard rows through `rows.guard_norm_rows`, built on the same definition.

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
from math import lcm

from .certs import (
    DualBoundCertificate,
    FarkasCertificate,
    GuardedCertificate,
    check_dual_exact,
    check_guarded,
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
from .rows import (
    GuardLiteral,
    IntForm,
    NormalizedSystem,
    NormRow,
    affine_row,
    equality,
    guard_rows,
    int_form,
    lowest_terms,
    unit_weights,
)

FORMAT = "relucert-proof-8"


@dataclass(frozen=True)
class CheckOutcome:
    accepted: bool
    path: str = ""
    reason: str = ""


ACCEPTED = CheckOutcome(True)


def _reject(path: str, reason: str) -> CheckOutcome:
    return CheckOutcome(False, path, reason)


def problem_digest(raw: bytes) -> str:
    """The digest of a problem file's bytes, which ties a proof to them."""
    return hashlib.sha256(raw).hexdigest()


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
            cert = c.derivation[1]
            out.append({"id": cid, "row": _row_json(cert.objective), "rhs": _q(cert.bound),
                        "derivation": ["derived", _multipliers_json(cert)]})
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


def emit(tree, digest: str) -> bytes:
    """Serialize an unsat run's proof tree deterministically, for the
    problem whose `problem_digest` is `digest`."""
    doc = {"format": FORMAT, "digest": digest, "tree": _tree_json(tree)}
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


def _parse_guarded(obj) -> GuardedCertificate:
    """A guarded certificate whose guards each name a unit of two JSON
    integers; `certs.check_guarded` rejects a guard on a unit without
    phases, or with an unknown phase."""
    guards = [GuardLiteral(_unit((i, j)), phase) for i, j, phase in obj["guards"]]
    return GuardedCertificate.make(
        guards, FarkasCertificate.make(_parse_multipliers(obj["farkas"]["multipliers"])))


# -- checker ----------------------------------------------------------------


class _Problem:
    """The problem, and what the checker derives from it once per check:
    the integer forms of its negated property and, as leaves first read
    them, of each unit's weights and bias, of its affine row and of each
    phase's rows."""

    def __init__(self, net: Network, region: Region, prop: SafetyProperty):
        self.net = net
        self.region = region
        self.prop = prop
        self.layout: VariableLayout = build_layout(net, prop)
        self.relu_units = frozenset(net.hidden_units)
        self.negp = [int_form({j: -q for j, q in self.layout.margin.items()},
                              -prop.violation_threshold)]
        self._weights: dict = {}
        self._affine: dict = {}
        self._phase_rows: dict = {}

    def weights(self, unit) -> tuple[int, list[int], int]:
        """s = b + sum_k w_k src_k of the unit, `rows.unit_weights`."""
        if unit not in self._weights:
            self._weights[unit] = unit_weights(self.net, unit)
        return self._weights[unit]

    def affine(self, unit) -> list[IntForm]:
        """The unit's affine row of `rows.affine_row`, its two sides."""
        if unit not in self._affine:
            self._affine[unit] = equality(affine_row(self.layout, unit, self.weights(unit)))
        return self._affine[unit]

    def phase_rows(self, unit, phase) -> list[list[IntForm]]:
        """The phase's two rows of `rows.guard_rows`, each as its sides:
        the phase equality (k = 0) and the sign row (k = 1)."""
        key = (unit, phase)
        if key not in self._phase_rows:
            self._phase_rows[key] = guard_rows(self.layout, GuardLiteral(unit, phase))
        return self._phase_rows[key]


class _Rejected(Exception):
    """A leaf row whose derivation does not hold."""


#: what reading a malformed row, certificate or split annotation raises
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _shown(bound) -> Fraction | None:
    """An interval end (num, den), or None, as a rational for a reason."""
    return None if bound is None else Fraction(*bound)


def _hull_row(pb: _Problem, unit, k, interval: dict) -> list[IntForm]:
    """Row k of the convex envelope of z = relu(s) over the interval that
    earlier rows prove for s."""
    s = pb.layout.pre_index(unit)
    z = pb.layout.post_index(unit)
    if s == z:
        raise _Rejected(f"hull row for {unit}, which is not a ReLU unit")
    lo, hi = interval.get(s, (None, None))
    if lo is None or hi is None or not lo[0] < 0 < hi[0]:
        raise _Rejected(f"certified bounds [{_shown(lo)}, {_shown(hi)}] do not straddle zero")
    if _json_int(k) not in range(4):
        raise _Rejected(f"no hull row {k!r}")
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    if k == 0:
        return [(1, {z: -1}, 0)]
    if k == 1:
        return [(1, {s: 1, z: -1}, 0)]
    if k == 2:
        # z - slope s <= -slope lo, slope = hi / (hi - lo) = hi_n lo_d / d
        d = hi_n * lo_d - lo_n * hi_d
        return [lowest_terms(d, {z: d, s: -hi_n * lo_d}, -hi_n * lo_n)]
    return [lowest_terms(hi_d, {z: hi_d}, hi_n)]


def _interval_row(pb: _Problem, unit, side, interval: dict, phases: set) -> list[IntForm]:
    """The upper ("up") or lower ("lo") interval-arithmetic bound on the
    unit's pre-activation, by the rule of the module docstring."""
    if unit not in pb.relu_units:
        raise _Rejected(f"interval row for {unit}, which is not a ReLU unit")
    if side not in ("up", "lo"):
        raise _Rejected(f"no interval side {side!r}")
    i, j = unit
    up = side == "up"
    den, weights, total = pb.weights(unit)
    ends = []  # (den w_k, (num, den) of the end of src_k's interval it reads)
    for k, w in enumerate(weights):
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
            raise _Rejected(f"no certified interval [{_shown(lo)}, {_shown(hi)}] "
                            f"for source {k} of {unit}")
        ends.append((w, hi if (w > 0) == up else lo))
    # den s <= den b + sum_k den w_k end_k, over the ends' common denominator
    m = lcm(*(d for _, (_, d) in ends))
    total *= m
    for w, (n, d) in ends:
        total += w * n * (m // d)
    s = pb.layout.pre_index(unit)
    if up:
        return [lowest_terms(den * m, {s: den * m}, total)]
    return [lowest_terms(den * m, {s: -den * m}, -total)]


def _check_snapshot_row(pb: _Problem, r: dict, region: Region,
                        system: NormalizedSystem, interval: dict,
                        phases: set) -> list[IntForm]:
    """The integer forms of the row that r's derivation yields, one side or
    an equality's two; raises `_Rejected` when the derivation does not
    hold, and one of `_MALFORMED` when it is malformed.

    `system` holds the rows of smaller id, all built before this one,
    `interval` maps a variable to the tightest (lo, hi) they prove, each a
    pair (num, den) with den > 0 or None, and `phases` holds the
    (unit, phase) of each guard and stabilize row among them."""
    tag = r["derivation"]
    kind = tag[0]
    if kind == "aff":
        _, i, j = tag
        return pb.affine(_unit((i, j)))
    if kind == "region":
        _, k, side = tag
        if _json_int(k) not in range(pb.net.input_dim) or side not in ("lo", "hi"):
            raise _Rejected("malformed region tag")
        xi = pb.layout.input_index(k)
        if side == "hi":
            hi = region.upper[k]
            return [(hi.denominator, {xi: hi.denominator}, hi.numerator)]
        lo = region.lower[k]
        return [(lo.denominator, {xi: -lo.denominator}, -lo.numerator)]
    if kind == "negp":
        return pb.negp
    if kind == "guard":
        _, i, j, phase, k = tag
        rows = pb.phase_rows(_unit((i, j)), phase)
        if _json_int(k) not in range(len(rows)):
            raise _Rejected(f"no phase row {k!r}")
        return rows[k]
    if kind == "derived":
        # the row and rhs are the objective and bound the certificate proves
        _, multipliers = tag
        cert = DualBoundCertificate.make(_parse_row(r["row"]), parse_rational(r["rhs"]),
                                         _parse_multipliers(multipliers))
        if not cert.objective:
            raise _Rejected("derived row with no nonzero coefficient")
        res = check_dual_exact(system, cert)
        if not res.ok:
            raise _Rejected(f"derived-row certificate rejected: {res.reason}")
        return [int_form(cert.objective_dict, cert.bound)]
    if kind == "stabilize":
        _, unit, phase = tag
        unit = _unit(unit)
        rows = pb.phase_rows(unit, phase)[0]
        lo, hi = interval.get(pb.layout.pre_index(unit), (None, None))
        if phase == ACTIVE and (lo is None or lo[0] < 0) or \
                phase == INACTIVE and (hi is None or hi[0] > 0):
            raise _Rejected(f"certified bounds [{_shown(lo)}, {_shown(hi)}] "
                            f"do not fix the {phase} sign")
        return rows
    if kind == "hull":
        _, unit, k = tag
        return _hull_row(pb, _unit(unit), k, interval)
    if kind == "interval":
        _, unit, side = tag
        return _interval_row(pb, _unit(unit), side, interval, phases)
    raise _Rejected(f"unknown derivation kind {kind}")


def _tighten(interval: dict, form: IntForm) -> None:
    """Record the bound that a single-variable row a x <= b states on x in
    `interval`, where it is tighter: x <= b/a for a > 0, x >= -b/-a for
    a < 0."""
    _, coeffs, b = form
    if len(coeffs) != 1:
        return
    (j, a), = coeffs.items()
    lo, hi = interval.get(j, (None, None))
    if a > 0:
        if hi is None or b * hi[1] < hi[0] * a:
            interval[j] = (lo, (b, a))
    elif lo is None or b * lo[1] < lo[0] * a:
        interval[j] = ((-b, -a), hi)


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
        cid = r["id"]
        try:
            forms = _check_snapshot_row(pb, r, region, system, interval, phases)
        except _Rejected as exc:
            return f"row {cid}: {exc}", None
        except _MALFORMED as exc:
            return f"row {cid}: malformed: {exc!r}", None
        system.extend(NormRow(("c", cid, side), form) for side, form in zip(("le", "ge"), forms))
        tag = r["derivation"]
        if tag[0] == "guard":
            unit, phase = _unit(tag[1:3]), tag[3]
            if alpha.get(unit) != phase:
                return f"row {cid}: guard row for uncommitted phase {unit}:{phase}", None
            phases.add((unit, phase))
        elif tag[0] == "stabilize":
            phases.add((_unit(tag[1]), tag[2]))
        if len(forms) == 1:
            _tighten(interval, forms[0])
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


def check_proof(problem, log_bytes: bytes, digest: str | None = None) -> CheckOutcome:
    """Replay a proof log against the original problem.

    `problem` is the (net, region, prop) triple; `digest`, when given, is
    the `problem_digest` of the bytes it was parsed from, which the proof's
    must equal.  Never raises: an input the checker cannot follow, whatever
    the exception, is a REJECT that names it.
    """
    try:
        doc = parse_proof(log_bytes)
    except Exception as exc:
        return _reject("document", f"unparseable: {exc!r}")
    try:
        return _check_doc(_Problem(*problem), doc, digest)
    except Exception as exc:
        return _reject("document", f"malformed: {exc!r}")


def _check_doc(pb: _Problem, doc: dict, digest: str | None) -> CheckOutcome:
    if digest is not None and doc["digest"] != digest:
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
            cert = _parse_guarded(item)
        except _MALFORMED as exc:
            return _reject(path, f"cover[{idx}] certificate: malformed: {exc!r}"), None
        res = check_guarded(system, pb.layout, cert)
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
    res = check_dual_exact(system, cert)
    if not res.ok:
        return _reject(path, f"bound certificate rejected: {res.reason}"), None
    return ACCEPTED, cert.bound
