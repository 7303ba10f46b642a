"""Linear relaxation store: five constraint blocks, guard consequences,
normalization to inequality form, and per-unit bound bookkeeping.

Every constraint carries a `derivation` tag recording how it may be re-justified
by an independent checker: base rows structurally, derived rows by an inline
dual certificate, hull and stabilize rows by the bound rows they depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .model import (
    ACTIVE,
    INACTIVE,
    IDENTITY,
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
LEARN = "learn"
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


@dataclass(frozen=True)
class NormRow:
    row: dict[int, Fraction]
    rhs: Fraction
    rid: RowId


class NormalizedSystem:
    """Pure inequality form A v <= b with stable per-row ids."""

    def __init__(self, rows: list[NormRow], n_vars: int):
        self.rows = rows
        self.n_vars = n_vars
        self.index = {r.rid: k for k, r in enumerate(rows)}

    def __len__(self):
        return len(self.rows)

    def resolve(self, rid: RowId) -> NormRow | None:
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


def guard_consequences(layout: VariableLayout, lit: GuardLiteral) -> list[LinearConstraint]:
    """Linear consequences of committing a ReLU phase.

    Active: z - s = 0 and -s <= 0.  Inactive: z = 0 and s <= 0.
    """
    s = layout.pre_index(lit.unit)
    z = layout.post_index(lit.unit)
    tag = ("guard", lit.unit[0], lit.unit[1], lit.phase)
    if lit.phase == ACTIVE:
        return [
            LinearConstraint({z: Fraction(1), s: Fraction(-1)}, EQ, Fraction(0), GUARD, tag),
            LinearConstraint({s: Fraction(-1)}, LE, Fraction(0), GUARD, tag),
        ]
    if lit.phase == INACTIVE:
        return [
            LinearConstraint({z: Fraction(1)}, EQ, Fraction(0), GUARD, tag),
            LinearConstraint({s: Fraction(1)}, LE, Fraction(0), GUARD, tag),
        ]
    raise ValueError(f"unknown phase {lit.phase!r}")


def guard_norm_rows(layout: VariableLayout, lit: GuardLiteral) -> list[NormRow]:
    """Guard consequences as normalized rows with store-independent ids.

    Used when a guard set is materialized on top of a store (guarded
    certificates, the exactness gate); the solver and the proof checker build
    identical rows and ids from this single helper.
    """
    rows = []
    for c in guard_consequences(layout, lit):
        rows.append(NormRow(dict(c.row), c.rhs, ("g", lit.unit[0], lit.unit[1], lit.phase, len(rows))))
        if c.relation == EQ:
            rows.append(NormRow(_neg(c.row), -c.rhs, ("g", lit.unit[0], lit.unit[1], lit.phase, len(rows))))
    return rows


def _row_key(c: LinearConstraint):
    return (frozenset(c.row.items()), c.relation, c.rhs)


@dataclass
class BoundsMap:
    """Per pre-activation interval [l, u]; only ever tightens."""

    pre: dict[Unit, tuple[Fraction, Fraction]] = field(default_factory=dict)

    def get(self, unit: Unit) -> tuple[Fraction, Fraction]:
        return self.pre[unit]

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
        self.alpha = dict(alpha)
        self.constraints: dict[int, LinearConstraint] = {}
        self.order: list[int] = []
        self.retired: set[int] = set()
        self._next = 0
        self._active_keys: dict = {}
        self.bounds = BoundsMap()
        self.unstable: set[Unit] = set()
        # per-unit bookkeeping for certificate construction
        self.bound_rows: dict[Unit, tuple[int, int]] = {}   # (upper cid, lower cid)
        self.hull_ids: dict[Unit, list[int]] = {}
        self.hull_bounds: dict[Unit, tuple[Fraction, Fraction]] = {}
        self.stabilized: dict[Unit, str] = {}               # unit -> phase
        self.post_refs: dict = {}                           # unit/("input",k) -> bound combos
        self.template_bounds: dict = {}                     # (template, side) -> bound
        self.template_rows: dict = {}                       # (template, side) -> cid
        self.lemma_ids: set = set()
        self.aff_ids: dict[Unit, int] = {}
        self.guard_ids: dict[tuple[Unit, str], list[int]] = {}
        self.relaxation_installed = False

    # -- mutation ---------------------------------------------------------

    def add(self, c: LinearConstraint) -> int:
        """Add a constraint; identical active rows are not re-added."""
        key = _row_key(c)
        existing = self._active_keys.get(key)
        if existing is not None:
            return existing
        cid = self._next
        self._next += 1
        self.constraints[cid] = c
        self.order.append(cid)
        self._active_keys[key] = cid
        return cid

    def retire(self, cid: int):
        """Exclude a row from future LPs; it stays resolvable and exported."""
        if cid not in self.retired:
            self.retired.add(cid)
            self._active_keys.pop(_row_key(self.constraints[cid]), None)

    # -- views ------------------------------------------------------------

    def active_constraints(self) -> list[tuple[int, LinearConstraint]]:
        return [(cid, self.constraints[cid]) for cid in self.order if cid not in self.retired]

    def all_constraints(self) -> list[tuple[int, LinearConstraint]]:
        return [(cid, self.constraints[cid]) for cid in self.order]

    def normalize(self, exclude: Callable[[int, LinearConstraint], bool] | None = None,
                  extra_rows: Iterable[NormRow] = ()) -> NormalizedSystem:
        """Inequality form of the active rows, insertion order, Eq expansion adjacent."""
        rows: list[NormRow] = []
        for cid, c in self.active_constraints():
            if exclude is not None and exclude(cid, c):
                continue
            rows.extend(normalize_constraint(cid, c))
        rows.extend(extra_rows)
        return NormalizedSystem(rows, self.layout.n_vars)


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
                        prop: SafetyProperty, alpha: dict[Unit, str],
                        lemmas=None) -> Store:
    """Base blocks: affine equalities, box rows, negated property, guard
    consequences of alpha, and globally valid lemma rows.  Bounds come from
    interval arithmetic; relaxation rows are installed by propagation."""
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

    if layout.margin_index is not None and not layout.margin_is_aliased:
        row = {layout.margin_index: one}
        for idx, coeff in prop.margin:
            row[layout.output_index(idx)] = row.get(layout.output_index(idx), Fraction(0)) - coeff
        store.add(LinearConstraint(row, EQ, Fraction(0), AFF, ("margin-def",)))

    for k in range(net.input_dim):
        xi = layout.input_index(k)
        hi_id = store.add(LinearConstraint({xi: one}, LE, region.upper[k], REGION, ("region", k, "hi")))
        lo_id = store.add(LinearConstraint({xi: -one}, LE, -region.lower[k], REGION, ("region", k, "lo")))
        store.post_refs[("input", k)] = {
            "upper": ([(("c", hi_id, "le"), one)], region.upper[k]),
            "lower": ([(("c", lo_id, "le"), one)], region.lower[k]),
        }

    mvar = layout.margin_index
    store.add(LinearConstraint({mvar: -one}, LE, -prop.violation_threshold, NEGP, ("negp",)))

    for unit in sorted(alpha):
        phase = alpha[unit]
        cids = [store.add(c) for c in guard_consequences(layout, GuardLiteral(unit, phase))]
        store.guard_ids[(unit, phase)] = cids

    if lemmas is not None:
        for entry in lemmas.global_entries():
            cid = store.add(LinearConstraint(dict(entry.row), LE, entry.bound, LEARN,
                                             ("lemma", entry.lemma_id)))
            store.lemma_ids.add(entry.lemma_id)

    for unit, (lo, hi) in interval_bounds(net, region, alpha).items():
        i, _ = unit
        if net.layers[i - 1].activation != RELU:
            continue
        store.bounds.set_initial(unit, lo, hi)
        if lo < 0 < hi and unit not in alpha:
            store.unstable.add(unit)
    return store
