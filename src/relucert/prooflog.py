"""Proof log serialization and the independent replay checker.

A proof is its split tree, and it states each fact once.  A leaf's scope
is the problem's region cut down by the domain splits above it, and the
phases the phase splits above it commit.  Its base rows are fixed by the
scope, at fixed ids: with k units (identity outputs included) and d
inputs, unit n's affine row in layer-then-neuron order at n, the region
rows hi and lo of input m at k + 2m and k + 2m + 1, the negated property,
`-margin <= -(threshold + epsilon)` as a row over the outputs, at k + 2d,
then each committed unit's phase equality and sign row, rows 0 and 1 of
its phase's guard consequences, in sorted unit order; the scope's first
non-base id follows them.  A leaf lists only the rows its certificates
reach past the base rows, under its store's ids: the hull, stabilize and
derived rows they cite and, transitively, the rows each of those is built
from (`Store.cone`).  A row is written as an id and a derivation; only a
derived row also carries its row and rhs, since its tag, a dual
certificate over earlier rows, does not determine them.  A listed row with
a base tag (`aff`, `region`, `negp`, `guard`) or an id below the scope's
first non-base id is rejected.  No leaf ever reuses another node's rows (a
conflict clause never blocks a node, `search`), and were one to, its base
rows would be built from its own scope: `check` could only reject it or
accept rows that hold there.

The checker replays a leaf once, over its scope, and accepts any rows that
replay so, whatever the store held besides.  It builds each row straight
into its integer form (den, den a, den b), with no `Fraction` per
coefficient, in id order: first each base row that a cover, bound or
derived-row certificate of the leaf cites, and only those, affine rows and
the negated property from the problem, region rows from the scope's region
and phase rows from the path's commitments; then the listed rows, a
stabilize row as its phase equality, where the unit's interval fixes that
sign, hull rows as row k of the envelope over the unit's interval, and
derived rows by checking their certificate over the rows built so far,
which holds when lambda^T b <= rhs (`certs.check_dual`): the solver rounds
each TGCT bound outward, and a looser bound is still implied.  A
unit's interval is the scope's seed (below), tightened only by the
single-variable rows on its pre-activation that come before the row read.
A row the checker cannot build, malformed or not following from the rows
before it, is reported with its id at its leaf.  It then checks the leaf's
certificates over those rows and verifies that split annotations cover
each parent.

Trust boundary.  Acceptance rests on rational identities alone.  The trust
base is this module, `certs`, `rows` and `model`: none of them imports a
solver module (`store`, `lp`, `propagate`, `gate`, `search`, `budget`,
`cli`), and the exact checks are those of `certs`: `check_dual` for a
derived row, `check_dual_exact`, which also holds the bound to lambda^T b,
for a leaf's margin bound, and `check_guarded` for a cover.  `check` builds every
non-derived row itself, and places each base row at its id itself.  It
builds the region and hull rows, and the seed they read, with its own code,
not with the functions of `store` and `propagate` that make them, on
purpose: a fault in how the solver writes those rows cannot vouch for
itself.  A unit's affine row and a phase's rows are definitions, not
derivations: it takes them, as the solver does, from `rows.affine_row`
(over the unit's `Network.unit_weights`, the problem's weights and bias in
integers) and `rows.guard_rows`, the one place that defines each.  Its one
rule beyond the rows' definitions is interval arithmetic, the seed of a
leaf's scope: layer by layer from the scope's region, s = b + sum_k w_k
src_k over each source's interval, an input's edge of the region or the
previous layer's post-activation.  A post-activation is [0, 0] when
inactive, [max(0, lo), hi] when active, and [0, max(0, hi)] otherwise; a
unit is active or inactive when the path commits it, and else active when
lo >= 0, inactive when hi <= 0.  The seed holds on every trace of the
scope.  On an infeasible scope the intervals may cross, lo > hi, as the
solver's do.  Intervals are kept in integers too, each end a pair (num,
den).  From `rows` it takes besides only the row containers, in which a
`NormRow` is a row's id and integer form (all that the checks of `certs`
read), and the arithmetic of integer forms: `int_form` for the negated
property and derived rows, `lowest_terms` and `equality`.  It builds each
affine row once per unit and each phase's rows once per (unit, phase) per
check.  `certs.check_guarded`, the one cover check, adds a cover
certificate's guard rows through `rows.guard_norm_rows`, built on the same
definition.

Every leaf has one kind: a cover of guarded Farkas certificates over its
rows, its scope's base rows among them, the negated property too.  A tree
node may also carry a margin bound `margin <= beta` over its scope: a leaf
by a dual certificate over its rows whose objective is the margin's row
over the outputs and whose lambda^T b is beta exactly, a split by the
maximum of its two children's bounds,
since their scopes split the parent's.  Derived rows, the rows built over
their bounds, and margin bounds therefore hold only given the negated
property.  That is sound for the one claim a proof makes, UNSAT:
the tree shows that the negated property is infeasible on every path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .certs import (
    DualBoundCertificate,
    FarkasCertificate,
    GuardedCertificate,
    check_dual,
    check_dual_exact,
    check_guarded,
)
from .model import (
    ACTIVE,
    INACTIVE,
    RELU,
    Network,
    Region,
    SafetyProperty,
    VariableLayout,
    build_layout,
    decode_json,
    format_rational,
    parse_key,
    parse_rational,
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
)

FORMAT = "relucert-proof-11"

#: the derivation kinds of the base rows, which `check` builds at their
#: fixed ids of a leaf's scope and a leaf never lists
BASE_KINDS = ("aff", "region", "negp", "guard")

#: the interval end 0, (num, den)
_ZERO = (0, 1)


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
    return format_rational(v)


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
    """A derived row as its row, rhs and multipliers; a hull or stabilize
    row as its derivation alone, from which the checker rebuilds it.  A
    base row is left out: the checker builds it at its fixed id."""
    out = []
    for cid, c in rows:
        if c.derivation[0] in BASE_KINDS:
            continue
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
    doc = decode_json(data.decode())
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
    them, of each unit's affine row and of each phase's rows.  A unit's
    weights and bias in integers are the network's own table,
    `Network.unit_weights`."""

    def __init__(self, net: Network, region: Region, prop: SafetyProperty):
        self.net = net
        self.region = region
        self.prop = prop
        self.layout: VariableLayout = build_layout(net, prop)
        self.relu_units = frozenset(net.hidden_units)
        # every unit, identity outputs included, in layer-then-neuron order:
        # unit n's affine row has id n
        self.units = [(i, j) for i, layer in enumerate(net.layers, start=1)
                      for j in range(len(layer.weights))]
        self.negp_id = len(self.units) + 2 * net.input_dim
        self.negp = [int_form({j: -q for j, q in self.layout.margin.items()},
                              -prop.violation_threshold)]
        self._affine: dict = {}
        self._phase_rows: dict = {}

    def affine(self, unit) -> list[IntForm]:
        """The unit's affine row of `rows.affine_row`, its two sides."""
        if unit not in self._affine:
            self._affine[unit] = equality(affine_row(self.layout, unit))
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


def _seed(pb: _Problem, region: Region, alpha: dict) -> dict:
    """The seed of the scope (`region`, phase commitments `alpha`): each
    ReLU pre-activation's interval by the interval arithmetic of the module
    docstring, keyed by its variable, each end (num, den) in lowest terms."""
    prev = [((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
            for lo, hi in zip(region.lower, region.upper)]
    seed = {}
    for i, (layer, units) in enumerate(zip(pb.net.layers, pb.net.ints), start=1):
        if layer.activation != RELU:
            break  # the identity output layer, the last
        nxt = []
        for j, (den, weights, b) in enumerate(units):
            # den s = den b + sum_k den w_k src_k over the common denominator
            # m of the ends read: src_k's upper end for the upper end of s
            # where w_k > 0, its lower end where w_k < 0
            m = 1
            terms = []
            for w, (l, h) in zip(weights, prev):
                if w:
                    if w < 0:
                        l, h = h, l
                    m = lcm(m, l[1], h[1])
                    terms.append((w, l, h))
            lo = hi = b * m
            for w, (ln, ld), (hn, hd) in terms:
                lo += w * ln * (m // ld)
                hi += w * hn * (m // hd)
            d = den * m
            g, h = gcd(lo, d), gcd(hi, d)
            lo, hi = (lo // g, d // g), (hi // h, d // h)
            seed[pb.layout.pre_index((i, j))] = (lo, hi)
            phase = alpha.get((i, j))
            if phase == INACTIVE or phase is None and lo[0] < 0 and hi[0] <= 0:
                lo = hi = _ZERO
            elif lo[0] < 0:
                lo = _ZERO  # max(0, lo) when active, else lo < 0 < hi
            nxt.append((lo, hi))
        prev = nxt
    return seed


def _hull_row(pb: _Problem, unit, k, interval: dict) -> list[IntForm]:
    """Row k of the convex envelope of z = relu(s) over the unit's
    interval."""
    s = pb.layout.pre_index(unit)
    z = pb.layout.post_index(unit)
    if s == z:
        raise _Rejected(f"hull row for {unit}, which is not a ReLU unit")
    lo, hi = interval[s]
    if not lo[0] < 0 < hi[0]:
        raise _Rejected(f"certified bounds [{Fraction(*lo)}, {Fraction(*hi)}] "
                        "do not straddle zero")
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


def _base_row(pb: _Problem, cid: int, region: Region, alpha: dict,
              committed: list) -> list[IntForm]:
    """The integer forms of the scope's base row with id `cid`, below the
    scope's first non-base id: unit n's affine row at n, input m's region
    rows hi and lo at k + 2m and k + 2m + 1 (k units), the negated property
    at k + 2d (d inputs), then each committed unit's phase equality and
    sign row, in `committed`, the sorted units of `alpha`."""
    k = len(pb.units)
    if cid < k:
        return pb.affine(pb.units[cid])
    if cid < pb.negp_id:
        m, lo_side = divmod(cid - k, 2)
        xi = pb.layout.input_index(m)
        if lo_side:
            lo = region.lower[m]
            return [(lo.denominator, {xi: -lo.denominator}, -lo.numerator)]
        hi = region.upper[m]
        return [(hi.denominator, {xi: hi.denominator}, hi.numerator)]
    if cid == pb.negp_id:
        return pb.negp
    n, row = divmod(cid - pb.negp_id - 1, 2)
    unit = committed[n]
    return pb.phase_rows(unit, alpha[unit])[row]


def _cited_base(leaf: dict, rows: list, first: int) -> list[int]:
    """The base ids, those below `first`, that the leaf's certificates
    cite, in order: its cover's, its bound's and its derived rows'.  A
    malformed certificate cites none here; its own parse rejects it."""
    cited: set[int] = set()

    def add(multipliers):
        try:
            cited.update(rid[1] for rid, _ in multipliers()
                         if rid[0] == "c" and type(rid[1]) is int and 0 <= rid[1] < first)
        except _MALFORMED:
            pass

    add(lambda: [m for item in leaf["cover"] for m in item["farkas"]["multipliers"]])
    if "bound" in leaf:
        add(lambda: leaf["bound"]["multipliers"])
    for r in rows:
        add(lambda: r["derivation"][1] if r["derivation"][0] == "derived" else ())
    return sorted(cited)


def _check_snapshot_row(pb: _Problem, r: dict, region: Region,
                        system: NormalizedSystem, interval: dict) -> list[IntForm]:
    """The integer forms of the row that r's derivation yields, one side or
    an equality's two; raises `_Rejected` when the derivation does not
    hold, and one of `_MALFORMED` when it is malformed.

    `system` holds the rows of smaller id, all built before this one, and
    `interval` maps each ReLU pre-activation to its seed as they tighten
    it, (lo, hi), each a pair (num, den) with den > 0."""
    tag = r["derivation"]
    kind = tag[0]
    if kind in BASE_KINDS:
        raise _Rejected(f"a leaf lists no {kind} row: check builds it at its base id")
    if kind == "derived":
        # the row and rhs are the objective and bound the certificate proves
        _, multipliers = tag
        cert = DualBoundCertificate.make(_parse_row(r["row"]), parse_rational(r["rhs"]),
                                         _parse_multipliers(multipliers))
        if not cert.objective:
            raise _Rejected("derived row with no nonzero coefficient")
        res = check_dual(system, cert)
        if not res.ok:
            raise _Rejected(f"derived-row certificate rejected: {res.reason}")
        return [int_form(cert.objective_dict, cert.bound)]
    if kind == "stabilize":
        _, unit, phase = tag
        unit = _unit(unit)
        rows = pb.phase_rows(unit, phase)[0]
        lo, hi = interval[pb.layout.pre_index(unit)]
        if phase == ACTIVE and lo[0] < 0 or phase == INACTIVE and hi[0] > 0:
            raise _Rejected(f"certified bounds [{Fraction(*lo)}, {Fraction(*hi)}] "
                            f"do not fix the {phase} sign")
        return rows
    if kind == "hull":
        _, unit, k = tag
        return _hull_row(pb, _unit(unit), k, interval)
    raise _Rejected(f"unknown derivation kind {kind}")


def _tighten(interval: dict, form: IntForm) -> None:
    """Record the bound that a single-variable row a x <= b states on a
    ReLU pre-activation x in `interval`, where it is tighter: x <= b/a for
    a > 0, x >= -b/-a for a < 0."""
    _, coeffs, b = form
    if len(coeffs) != 1:
        return
    (j, a), = coeffs.items()
    if j not in interval:
        return
    lo, hi = interval[j]
    if a > 0:
        if b * hi[1] < hi[0] * a:
            interval[j] = (lo, (b, a))
    elif b * lo[1] < lo[0] * a:
        interval[j] = ((-b, -a), hi)


def _add_row(system: NormalizedSystem, interval: dict, cid: int, forms: list[IntForm]) -> None:
    """Append the row's sides under its id, and tighten `interval` by it."""
    system.extend(NormRow(("c", cid, side), form) for side, form in zip(("le", "ge"), forms))
    if len(forms) == 1:
        _tighten(interval, forms[0])


def _check_snapshot(pb: _Problem, leaf: dict, region: Region, alpha: dict) -> tuple:
    """Replay a leaf over its path's scope (region and phase commitments
    `alpha`): build the base rows its certificates cite at their fixed ids,
    then its listed rows, each at an id past the base rows, in id order,
    each from its derivation and the rows before it.  Returns (reason,
    system): a rejection reason or None, and the normalized system.  The
    benchmark counts the calls to this function and to
    `_check_snapshot_row` by these names."""
    committed = sorted(alpha)
    first = pb.negp_id + 1 + 2 * len(committed)
    try:
        rows = sorted(leaf["rows"], key=lambda r: _json_int(r["id"]))
    except _MALFORMED as exc:
        return f"malformed: {exc!r}", None
    for a, b in zip(rows, rows[1:]):
        if a["id"] == b["id"]:
            return f"duplicate row id {a['id']}", None
    if rows and rows[0]["id"] < first:
        return f"row {rows[0]['id']}: id below the scope's first non-base id {first}", None
    system = NormalizedSystem([], pb.layout.n_vars)
    interval = _seed(pb, region, alpha)
    for cid in _cited_base(leaf, rows, first):
        _add_row(system, interval, cid, _base_row(pb, cid, region, alpha, committed))
    for r in rows:
        cid = r["id"]
        try:
            forms = _check_snapshot_row(pb, r, region, system, interval)
        except _Rejected as exc:
            return f"row {cid}: {exc}", None
        except _MALFORMED as exc:
            return f"row {cid}: malformed: {exc!r}", None
        _add_row(system, interval, cid, forms)
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
