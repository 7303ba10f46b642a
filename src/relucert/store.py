"""Linear relaxation store: five constraint blocks, per-unit bound
bookkeeping and interval arithmetic.

A `StoreRow` is a row's derivation tag and sides (`rows.NormRow`s); its
block follows from the tag.
A run builds each unit's affine row and the negated property once
(`ProblemRows`); every node's store holds those very rows under the same
ids, and no row is mutated once built.

Every row carries a `derivation` tag, which names its block.  A proof
writes the tag of a hull or stabilize row, from which an independent
checker rebuilds it: a hull row as row k of the envelope over the unit's
interval at its id, a stabilize row as row 0 of a phase's guard
consequences.  A committed phase adds both guard rows; a stabilized unit
adds only a `stabilize` row, row 0 of them, its phase equality, since its
interval already proves the sign that row 1 would state.  A unit's
interval starts at the seed of the node's scope, `interval_bounds`, which
`check` recomputes for a leaf's scope with its own code, and only the
derived rows on its pre-activation tighten it.  A derived row, a bound an
LP proved, is the one kind the tag does not determine: the proof records
the row, and its tag carries the dual certificate that proves it.
Propagation, which writes a row, records the rows it rests on, the ones
the checker rebuilds it from; a proof leaf keeps only the rows its
certificates reach through those records, `Store.cone`.

Base rows.  `build_initial_store` writes the base rows of the node's scope
first, at ids that the scope fixes and that `check` rebuilds on its own,
so a proof lists none of them: with k units (identity outputs included)
and d inputs, unit n's affine row in layer-then-neuron order at n
(`ProblemRows`), the region rows hi and lo of input m at k + 2m and
k + 2m + 1, the negated property at k + 2d, then each committed unit's
phase equality and sign row (`guard` rows 0 and 1) in sorted unit order.
Every other row follows them.  `tests/test_store.py` checks this layout
against `prooflog._base_row`, the checker's.

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
    UnitInts,
    VariableLayout,
)
from .rows import (
    GuardLiteral,
    IntForm,
    NormalizedSystem,
    NormRow,
    RowId,
    affine_row,
    equality,
    guard_rows,
    int_form,
)

LE = "le"

# blocks of the store
AFF = "aff"
REGION = "region"
NEGP = "negp"
REL = "rel"
GUARD = "guard"


def bound_form(j: int, sign: int, q: Fraction) -> IntForm:
    """sign * v_j <= q, sign +1 or -1, in lowest terms."""
    return q.denominator, {j: sign * q.denominator}, q.numerator


class StoreRow(NamedTuple):
    """A store row: the derivation tag a checker rebuilds it from and its
    sides as `NormRow`s under its id, one for a^T v <= b and an equality's
    two, "le" then "ge"."""

    derivation: tuple
    sides: tuple[NormRow, ...]

    @property
    def block(self) -> str:
        """The row's block, named by its derivation kind; every other kind
        (hull, stabilize, derived) is a relaxation row, REL."""
        kind = self.derivation[0]
        return kind if kind in (AFF, REGION, NEGP, GUARD) else REL


def store_row(cid: int, derivation: tuple, forms: list[IntForm]) -> StoreRow:
    """The row with sides `forms` under the id `cid`."""
    if len(forms) == 1:
        return StoreRow(derivation, (NormRow(("c", cid, LE), forms[0]),))
    le, ge = forms
    return StoreRow(derivation, (NormRow(("c", cid, LE), le), NormRow(("c", cid, "ge"), ge)))


def affine_interval(weights: UnitInts,
                    ends: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """[lo, hi] of s = b + sum_k w_k src_k over src_k in ends[k], with the
    unit's `Network.unit_weights`; summed in integers over one common
    denominator."""
    den, ws, b = weights
    terms = []  # per source: w_k and the ends lo and hi read, as (num, den)
    m = 1
    for w, (l, h) in zip(ws, ends):
        if w:
            if w < 0:
                l, h = h, l
            ld, hd = l.denominator, h.denominator
            m = lcm(m, ld, hd)
            terms.append((w, l.numerator, ld, h.numerator, hd))
    lo = hi = b * m
    for w, ln, ld, hn, hd in terms:
        lo += w * ln * (m // ld)
        hi += w * hn * (m // hd)
    return Fraction(lo, den * m), Fraction(hi, den * m)


class ProblemRows:
    """The rows every node's store of one problem holds under the same ids,
    built once per run: each unit's affine row, ids 0, 1, ... in unit
    order, and the negated property, `-margin <= -(threshold + epsilon)`
    over the outputs, after the region rows.  Every store built with it
    shares these rows, which are never mutated."""

    def __init__(self, net: Network, layout: VariableLayout, prop: SafetyProperty):
        self.affine: list[StoreRow] = []
        self.aff_ids: dict[Unit, int] = {}
        for i, layer in enumerate(net.layers, start=1):
            for j in range(len(layer.weights)):
                cid = self.aff_ids[(i, j)] = len(self.affine)
                self.affine.append(store_row(cid, ("aff", i, j),
                                             equality(affine_row(layout, (i, j)))))
        self.negp_id = len(self.affine) + 2 * net.input_dim
        self.negp = store_row(self.negp_id, ("negp",), [int_form(
            {j: -q for j, q in layout.margin.items()}, -prop.violation_threshold)])


@dataclass
class BoundsMap:
    """Per pre-activation interval [l, u]: the `interval_bounds` seed of
    the node's scope, tightened by derived rows and never widened.  On an
    infeasible scope the seed may be crossed, l > u."""

    pre: dict[Unit, tuple[Fraction, Fraction]] = field(default_factory=dict)

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
                 prop: SafetyProperty, alpha: dict[Unit, str],
                 shared: ProblemRows | None = None):
        self.net = net
        self.layout = layout
        self.region = region
        self.prop = prop
        # the run's rows, shared by every store of the run
        self.shared = shared or ProblemRows(net, layout, prop)
        # the committed or stabilized phase of a unit, and the id of its
        # phase equality (row 0 of the phase's guard consequences)
        self.phases: dict[Unit, str] = dict(alpha)
        self.phase_ids: dict[Unit, int] = {}
        self.constraints: dict[int, StoreRow] = {}
        self.retired: set[int] = set()
        # id -> the ids of the rows of smaller id that the row rests on
        self.premises: dict[int, tuple[int, ...]] = {}
        self.bounds = BoundsMap()
        self.unstable: set[Unit] = set()
        # per-unit bookkeeping for certificate construction
        # (unit, upper) -> id of the derived row that bounds that side now
        self.bound_rows: dict[tuple[Unit, bool], int] = {}
        self.hull_ids: dict[Unit, list[int]] = {}
        self.hull_bounds: dict[Unit, tuple[Fraction, Fraction]] = {}
        self.aff_ids: dict[Unit, int] = {}
        self.region_ids: dict[int, tuple[int, int]] = {}    # input -> (hi cid, lo cid)
        self.negp_id: int | None = None

    # -- mutation ---------------------------------------------------------

    def add(self, derivation: tuple, forms: list[IntForm],
            premises: tuple[int, ...] = ()) -> int:
        """Append a row, given as its integer sides (one, or an equality's
        two), under the next id and return that id.  `premises` are the ids
        of the rows it rests on, which a proof leaf that keeps it keeps too
        (`cone`)."""
        if not forms[0][1]:
            raise ValueError("empty constraint row")
        cid = len(self.constraints)
        self.constraints[cid] = store_row(cid, derivation, forms)
        if premises:
            self.premises[cid] = premises
        return cid

    def retire(self, cid: int):
        """Exclude a row from future LPs; it stays resolvable, and a proof
        leaf whose certificates reach it keeps it."""
        self.retired.add(cid)

    # -- views ------------------------------------------------------------

    def active_constraints(self) -> list[tuple[int, StoreRow]]:
        return [(cid, c) for cid, c in self.constraints.items() if cid not in self.retired]

    def normalize(self, exclude: Callable[[int, StoreRow], bool] | None = None) -> NormalizedSystem:
        """Inequality form of the active rows but those `exclude` names, in
        insertion order with an equality's two sides adjacent: the system
        every LP of the node solves.  The rows are those `add` built, the
        same objects on every call."""
        rows: list[NormRow] = []
        for cid, c in self.active_constraints():
            if exclude is None or not exclude(cid, c):
                rows.extend(c.sides)
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
            if rid[0] == "c" and rid[1] not in self.retired and rid[1] in self.constraints:
                rows.extend(r for r in self.constraints[rid[1]].sides if r.rid == rid)
        return NormalizedSystem(rows, self.layout.n_vars)

    def cone(self, rids: Iterable[RowId]) -> list[tuple[int, StoreRow]]:
        """The rows that the rows named in `rids` rest on, transitively and
        them included, as (id, constraint) in id order, retired rows too:
        a walk over the premises `add` recorded."""
        keep: set[int] = set()
        todo = [rid[1] for rid in rids if rid[0] == "c"]
        while todo:
            cid = todo.pop()
            if cid not in keep:
                keep.add(cid)
                todo.extend(self.premises.get(cid, ()))
        return [(cid, self.constraints[cid]) for cid in sorted(keep)]


# -- initial store ---------------------------------------------------------


def _post_interval(phase: str | None, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    zero = Fraction(0)
    if phase == INACTIVE:
        return (zero, zero)
    if phase == ACTIVE:
        return (max(zero, lo), hi)
    return (zero, max(zero, hi))


def interval_bounds(net: Network, region: Region,
                    alpha: dict[Unit, str]) -> dict[Unit, tuple[Fraction, Fraction]]:
    """Exact interval arithmetic through the box, phase commitments applied
    to post-activation ranges, over the units' `Network.unit_weights`.
    This is the one place the solver sums a unit's interval: a node's store
    is seeded with it, and `check` starts each ReLU pre-activation of a leaf
    at the same seed of the leaf's scope, which it sums with its own code.
    The post-activation of a source is [0, 0] when inactive, [max(0, lo), hi]
    when active (z = s and s >= 0), else [0, max(0, hi)].  A scope that commits a unit to a
    phase its interval excludes is infeasible, and the intervals after it
    may be crossed, lo > hi."""
    prev = list(zip(region.lower, region.upper))
    bounds: dict[Unit, tuple[Fraction, Fraction]] = {}
    for i, (layer, units) in enumerate(zip(net.layers, net.ints), start=1):
        pre = [affine_interval(weights, prev) for weights in units]
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
                        prop: SafetyProperty, alpha: dict[Unit, str],
                        shared: ProblemRows | None = None) -> Store:
    """Base blocks: affine equalities, box rows, negated property and guard
    consequences of alpha.  The affine rows and the negated property are
    those of `shared`, the run's `ProblemRows`, or built afresh without
    it.  `bounds.pre` is seeded with `interval_bounds` of the scope, and
    propagation writes the relaxation rows from it."""
    store = Store(net, layout, region, prop, alpha, shared)
    shared = store.shared
    store.constraints.update(enumerate(shared.affine))
    store.aff_ids = shared.aff_ids

    for k in range(net.input_dim):
        xi = layout.input_index(k)
        store.region_ids[k] = (
            store.add(("region", k, "hi"), [bound_form(xi, 1, region.upper[k])]),
            store.add(("region", k, "lo"), [bound_form(xi, -1, -region.lower[k])]))

    store.negp_id = shared.negp_id
    store.constraints[shared.negp_id] = shared.negp

    for unit in sorted(alpha):
        phase = alpha[unit]
        cids = [store.add(("guard", unit[0], unit[1], phase, k), sides)
                for k, sides in enumerate(guard_rows(layout, GuardLiteral(unit, phase)))]
        store.phase_ids[unit] = cids[0]

    for unit, (lo, hi) in interval_bounds(net, region, alpha).items():
        i, _ = unit
        if net.layers[i - 1].activation != RELU:
            continue
        store.bounds.pre[unit] = (lo, hi)
        if lo < 0 < hi and unit not in alpha:
            store.unstable.add(unit)
    return store
