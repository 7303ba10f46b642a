"""Linear relaxation store: five constraint blocks, guard consequences,
normalization to inequality form, and per-unit bound bookkeeping.

Every constraint carries a `derivation` tag from which an independent checker
rebuilds it: base rows from the problem and the region, guard rows as row k
of a phase's guard consequences, a unit's two interval rows by interval
arithmetic over the intervals that earlier rows prove for its sources, hull
rows as row k of the envelope over the interval that the bound rows before
them prove.  A committed phase adds both guard rows; a stabilized unit adds
only a `stabilize` row, row 0 of them, its phase equality, since its bound
row already proves the sign that row 1 would state.  A proof records such a
row by its tag alone.  A derived row, a bound an LP proved, is the one kind
the tag does not determine: the proof records the row, and its tag carries
the dual certificate that proves it.  A proof leaf keeps only the rows its
certificates reach, `Store.cone`, by the same rule by which the checker
rebuilds them.

One map, `Store.phases`, holds the phase of each committed or stabilized
unit, and `Store.phase_ids` the id of its phase equality, z = s or z = 0;
propagation reads the two kinds of unit alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, NamedTuple

from .model import (
    ACTIVE,
    INACTIVE,
    RELU,
    Network,
    Region,
    SafetyProperty,
    Unit,
    VariableLayout,
)

LE = "le"
EQ = "eq"

# blocks of the store
AFF = "aff"
REGION = "region"
NEGP = "negp"
REL = "rel"
GUARD = "guard"

#: Normalized row ids: ("c", cid, "le"|"ge") for store rows, or
#: ("g", layer, neuron, phase, k) for guard rows materialized outside a store.
RowId = tuple


@dataclass(frozen=True)
class GuardLiteral:
    unit: Unit
    phase: str  # ACTIVE | INACTIVE


@dataclass
class LinearConstraint:
    row: dict[int, Fraction]
    relation: str  # LE | EQ
    rhs: Fraction
    block: str
    derivation: tuple

    def __post_init__(self):
        self.row = {i: Fraction(q) for i, q in self.row.items() if q != 0}
        if not self.row:
            raise ValueError("empty constraint row")


#: a row a^T v <= b in integers, (den, den a, den b), den > 0
IntForm = tuple[int, dict[int, int], int]


def int_form(row: dict[int, Fraction], rhs: Fraction) -> IntForm:
    """The integer form of a^T v <= b, den the lcm of its denominators,
    which leaves the row in lowest terms."""
    den = lcm(rhs.denominator, *(q.denominator for q in row.values()))
    return (den, {j: q.numerator * (den // q.denominator) for j, q in row.items()},
            rhs.numerator * (den // rhs.denominator))


@dataclass(frozen=True)
class NormRow:
    """A row a^T v <= b under its id, with its integer form `ints`.  A
    store builds each row once and every system it normalizes shares it,
    so neither `row` nor `ints` may be mutated."""

    row: dict[int, Fraction]
    rhs: Fraction
    rid: RowId
    ints: IntForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ints", int_form(self.row, self.rhs))


class IntRow(NamedTuple):
    """A row in its integer form alone, under its id: the form in which
    `check` builds rows.  The checkers of `certs` read a row's `ints`
    alone, so a system of `IntRow`s serves them as one of `NormRow`s."""

    rid: RowId
    ints: IntForm


class NormalizedSystem:
    """Pure inequality form A v <= b with stable per-row ids; its rows are
    `NormRow`s or `IntRow`s."""

    def __init__(self, rows: list, n_vars: int):
        self.rows = rows
        self.n_vars = n_vars
        self.index = {r.rid: k for k, r in enumerate(rows)}

    def __len__(self):
        return len(self.rows)

    def extend(self, rows: Iterable):
        for r in rows:
            self.index[r.rid] = len(self.rows)
            self.rows.append(r)

    def resolve(self, rid: RowId) -> NormRow | IntRow | None:
        k = self.index.get(rid)
        return None if k is None else self.rows[k]


def _neg(row: dict[int, Fraction]) -> dict[int, Fraction]:
    return {i: -q for i, q in row.items()}


def normalize_constraint(cid, c: LinearConstraint) -> list[NormRow]:
    """Eq rows expand to two adjacent LessEq rows; ids stay stable."""
    rows = [NormRow(dict(c.row), c.rhs, ("c", cid, "le"))]
    if c.relation == EQ:
        rows.append(NormRow(_neg(c.row), -c.rhs, ("c", cid, "ge")))
    return rows


def guard_rows(layout: VariableLayout, lit: GuardLiteral) -> list[tuple[dict[int, int], str]]:
    """The rows of committing a ReLU phase, row k as (coefficients,
    relation) over rhs 0, in integers: the one definition of a phase's rows,
    from which the store's guard rows and the proof checker's are built.

    Active: z - s = 0 and -s <= 0.  Inactive: z = 0 and s <= 0.  A unit
    without a ReLU (z aliases s) has no phases.
    """
    s = layout.pre_index(lit.unit)
    z = layout.post_index(lit.unit)
    if s == z:
        raise ValueError(f"{lit.unit} is not a ReLU unit")
    if lit.phase == ACTIVE:
        return [({z: 1, s: -1}, EQ), ({s: -1}, LE)]
    if lit.phase == INACTIVE:
        return [({z: 1}, EQ), ({s: 1}, LE)]
    raise ValueError(f"unknown phase {lit.phase!r}")


def guard_consequences(layout: VariableLayout, lit: GuardLiteral) -> list[LinearConstraint]:
    """Linear consequences of committing a ReLU phase, `guard_rows`, row k
    tagged ("guard", layer, neuron, phase, k)."""
    return [LinearConstraint(row, relation, Fraction(0), GUARD,
                             ("guard", lit.unit[0], lit.unit[1], lit.phase, k))
            for k, (row, relation) in enumerate(guard_rows(layout, lit))]


def guard_norm_rows(layout: VariableLayout, lit: GuardLiteral) -> list[NormRow]:
    """Guard consequences as normalized rows with store-independent ids.

    Used when a guard set is materialized on top of a store (guarded
    certificates, the exactness gate); the solver and the proof checker build
    identical rows and ids for a cover's guards from this single helper.
    """
    rows = []
    for c in guard_consequences(layout, lit):
        rows.append(NormRow(dict(c.row), c.rhs, ("g", lit.unit[0], lit.unit[1], lit.phase, len(rows))))
        if c.relation == EQ:
            rows.append(NormRow(_neg(c.row), -c.rhs, ("g", lit.unit[0], lit.unit[1], lit.phase, len(rows))))
    return rows


@dataclass
class BoundsMap:
    """Per pre-activation interval [l, u]; only ever tightens."""

    pre: dict[Unit, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def set_initial(self, unit: Unit, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"bounds crossed for {unit}: {lo} > {hi}")
        self.pre[unit] = (lo, hi)

    def tighten(self, unit: Unit, lo: Fraction | None = None, hi: Fraction | None = None):
        old_lo, old_hi = self.pre[unit]
        if lo is not None and lo < old_lo:
            raise ValueError(f"widening lower bound of {unit}")
        if hi is not None and hi > old_hi:
            raise ValueError(f"widening upper bound of {unit}")
        self.pre[unit] = (lo if lo is not None else old_lo, hi if hi is not None else old_hi)


class Store:
    """Constraint store owned by a single search node."""

    def __init__(self, net: Network, layout: VariableLayout, region: Region,
                 prop: SafetyProperty, alpha: dict[Unit, str]):
        self.net = net
        self.layout = layout
        self.region = region
        self.prop = prop
        # the committed or stabilized phase of a unit, and the id of its
        # phase equality (row 0 of the phase's guard consequences)
        self.phases: dict[Unit, str] = dict(alpha)
        self.phase_ids: dict[Unit, int] = {}
        self.constraints: dict[int, LinearConstraint] = {}
        self.norm_rows: dict[int, list[NormRow]] = {}       # cid -> its normalized rows
        self.retired: set[int] = set()
        self.bounds = BoundsMap()
        self.unstable: set[Unit] = set()
        # per-unit bookkeeping for certificate construction
        self.bound_rows: dict[Unit, tuple[int, int]] = {}   # (upper cid, lower cid)
        self.hull_ids: dict[Unit, list[int]] = {}
        self.hull_bounds: dict[Unit, tuple[Fraction, Fraction]] = {}
        self.aff_ids: dict[Unit, int] = {}
        self.region_ids: dict[int, tuple[int, int]] = {}    # input -> (hi cid, lo cid)
        self.negp_id: int | None = None

    # -- mutation ---------------------------------------------------------

    def add(self, c: LinearConstraint) -> int:
        """Append a constraint under the next id and return that id."""
        cid = len(self.constraints)
        self.constraints[cid] = c
        self.norm_rows[cid] = normalize_constraint(cid, c)
        return cid

    def retire(self, cid: int):
        """Exclude a row from future LPs; it stays resolvable, and a proof
        leaf whose certificates reach it keeps it."""
        self.retired.add(cid)

    # -- views ------------------------------------------------------------

    def active_constraints(self) -> list[tuple[int, LinearConstraint]]:
        return [(cid, c) for cid, c in self.constraints.items() if cid not in self.retired]

    def normalize(self, exclude: Callable[[int, LinearConstraint], bool] | None = None) -> NormalizedSystem:
        """Inequality form of the active rows, insertion order, Eq expansion
        adjacent.  The rows are those `add` built, the same objects on every
        call."""
        rows: list[NormRow] = []
        for cid, c in self.active_constraints():
            if exclude is not None and exclude(cid, c):
                continue
            rows.extend(self.norm_rows[cid])
        return NormalizedSystem(rows, self.layout.n_vars)

    def without_negp(self) -> NormalizedSystem:
        """The active rows but the negated property: the system whose margin
        maximum bounds the margin over the node's scope."""
        return self.normalize(exclude=lambda cid, c: cid == self.negp_id)

    def cited_rows(self, rids: Iterable[RowId]) -> NormalizedSystem:
        """The system of just the named rows that are active; ids of retired
        or absent rows are left out."""
        rows = []
        for rid in rids:
            if rid[0] == "c" and rid[1] not in self.retired:
                rows.extend(r for r in self.norm_rows.get(rid[1], ()) if r.rid == rid)
        return NormalizedSystem(rows, self.layout.n_vars)

    def cone(self, rids: Iterable[RowId]) -> list[tuple[int, LinearConstraint]]:
        """The rows that the rows named in `rids` rest on, transitively and
        them included, as (id, constraint) in id order, retired rows too.
        A derived row rests on the rows its certificate cites.  A hull,
        `stabilize` or `interval` row rests on the rows that give its
        variables their interval at its id: on each side it reads, the
        tightest single-variable row of smaller id.  An interval row also
        rests on the phase row, guard or `stabilize`, of smaller id that
        fixes a source's phase, its `phase_ids` entry.  This is the rule by
        which `check` rebuilds those rows, so it rebuilds each row of the
        cone as the store holds it.  One pass in id order finds what each
        row rests on, and one pass back collects the cone."""
        layout = self.layout
        reads: dict[int, list[int]] = {}
        # per variable, (num, den, id) of its tightest bound row so far:
        # x <= num/den in `upper`, x >= num/den in `lower`, den > 0
        upper: dict[int, tuple[int, int, int]] = {}
        lower: dict[int, tuple[int, int, int]] = {}

        def interval(out: list[int], var: int):
            for side in (lower, upper):
                if var in side:
                    out.append(side[var][2])

        def sources(unit, cid: int) -> list[int]:
            i, j = unit
            out = []
            for k, w in enumerate(self.net.layers[i - 1].weights[j]):
                if not w.numerator:
                    continue
                if i == 1:
                    interval(out, layout.input_index(k))
                    continue
                # the source's phase, where its phase row comes before
                pid = self.phase_ids.get((i - 1, k))
                phase = None
                if pid is not None and pid < cid:
                    phase = self.phases[(i - 1, k)]
                    out.append(pid)
                if phase == ACTIVE:
                    interval(out, layout.pre_index((i - 1, k)))
                elif phase is None:
                    interval(out, layout.post_index((i - 1, k)))
            return out

        for cid, c in self.constraints.items():
            tag = c.derivation
            kind = tag[0]
            if kind == "interval":
                # a unit's two interval rows are adjacent, and the first
                # bounds none of the sources the second reads
                prev = self.constraints.get(cid - 1)
                if prev is not None and prev.derivation[:2] == tag[:2]:
                    reads[cid] = reads[cid - 1]
                else:
                    reads[cid] = sources(tag[1], cid)
            elif kind == "derived":
                reads[cid] = [rid[1] for rid, _ in tag[1].multipliers if rid[0] == "c"]
            elif kind == "hull":
                reads[cid] = []
                interval(reads[cid], layout.pre_index(tag[1]))
            elif kind == "stabilize":
                side = lower if tag[2] == ACTIVE else upper
                reads[cid] = [side[layout.pre_index(tag[1])][2]]
            if c.relation == LE and len(c.row) == 1:
                _, coeffs, b = self.norm_rows[cid][0].ints
                (j, a), = coeffs.items()
                if a > 0:
                    if j not in upper or b * upper[j][1] < upper[j][0] * a:
                        upper[j] = (b, a, cid)
                elif j not in lower or b * lower[j][1] < lower[j][0] * a:
                    lower[j] = (-b, -a, cid)  # a x <= b with a < 0: x >= -b/-a
        keep = {rid[1] for rid in rids if rid[0] == "c"}
        for cid in reversed(self.constraints):
            if cid in keep:
                keep.update(reads.get(cid, ()))
        return [(cid, c) for cid, c in self.constraints.items() if cid in keep]


# -- initial store ---------------------------------------------------------


def _post_interval(phase: str | None, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    zero = Fraction(0)
    if phase == INACTIVE:
        return (zero, zero)
    if phase == ACTIVE:
        return (max(zero, lo), max(zero, hi))
    return (zero, max(zero, hi))


def interval_bounds(net: Network, region: Region, alpha: dict[Unit, str]) -> dict[Unit, tuple[Fraction, Fraction]]:
    """Exact interval arithmetic through the box, phase commitments applied
    to post-activation ranges."""
    zero = Fraction(0)
    prev = list(zip(region.lower, region.upper))
    bounds: dict[Unit, tuple[Fraction, Fraction]] = {}
    for i, layer in enumerate(net.layers, start=1):
        pre = []
        for row, b in zip(layer.weights, layer.bias):
            lo = hi = b
            for w, (plo, phi) in zip(row, prev):
                if w > 0:
                    lo += w * plo
                    hi += w * phi
                elif w < 0:
                    lo += w * phi
                    hi += w * plo
            pre.append((lo, hi))
        if layer.activation == RELU:
            nxt = []
            for j, (lo, hi) in enumerate(pre):
                bounds[(i, j)] = (lo, hi)
                phase = alpha.get((i, j))
                if phase is None:
                    if lo >= 0:
                        phase = ACTIVE
                    elif hi <= 0:
                        phase = INACTIVE
                nxt.append(_post_interval(phase, lo, hi))
            prev = nxt
        else:
            for j, (lo, hi) in enumerate(pre):
                bounds[(i, j)] = (lo, hi)
            prev = pre
    return bounds


def build_initial_store(net: Network, layout: VariableLayout, region: Region,
                        prop: SafetyProperty, alpha: dict[Unit, str]) -> Store:
    """Base blocks: affine equalities, box rows, negated property and guard
    consequences of alpha.  Bounds come from interval arithmetic; relaxation
    rows are installed by propagation."""
    store = Store(net, layout, region, prop, alpha)
    one = Fraction(1)

    for i, layer in enumerate(net.layers, start=1):
        for j, (wrow, b) in enumerate(zip(layer.weights, layer.bias)):
            row = {layout.pre_index((i, j)): one}
            for k, w in enumerate(wrow):
                if w == 0:
                    continue
                src = layout.input_index(k) if i == 1 else layout.post_index((i - 1, k))
                row[src] = row.get(src, Fraction(0)) - w
            store.aff_ids[(i, j)] = store.add(LinearConstraint(row, EQ, b, AFF, ("aff", i, j)))

    for k in range(net.input_dim):
        xi = layout.input_index(k)
        store.region_ids[k] = (
            store.add(LinearConstraint({xi: one}, LE, region.upper[k], REGION, ("region", k, "hi"))),
            store.add(LinearConstraint({xi: -one}, LE, -region.lower[k], REGION, ("region", k, "lo"))))

    # the negated property, -margin <= -(threshold + epsilon), over the outputs
    store.negp_id = store.add(LinearConstraint(_neg(layout.margin), LE, -prop.violation_threshold,
                                               NEGP, ("negp",)))

    for unit in sorted(alpha):
        phase = alpha[unit]
        cids = [store.add(c) for c in guard_consequences(layout, GuardLiteral(unit, phase))]
        store.phase_ids[unit] = cids[0]

    for unit, (lo, hi) in interval_bounds(net, region, alpha).items():
        i, _ = unit
        if net.layers[i - 1].activation != RELU:
            continue
        store.bounds.set_initial(unit, lo, hi)
        if lo < 0 < hi and unit not in alpha:
            store.unstable.add(unit)
    return store
