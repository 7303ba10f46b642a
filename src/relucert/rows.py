"""The row vocabulary of the solver and the proof checker, in integers.

A row is built straight into its integer form (den, den a, den b), den > 0,
in lowest terms; a `NormRow` is its id and that form, all that the LP
engine and the checkers of `certs` read.  `affine_row`, a unit's affine
equality, and `guard_rows`, a phase's rows, define those rows once; the
store and `check` both build them from here.  With `model`, `certs` and
`prooflog` this module is the trust base; it imports no solver module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .model import ACTIVE, INACTIVE, Unit, VariableLayout

#: Normalized row ids: ("c", cid, "le"|"ge") for store rows, or
#: ("g", layer, neuron, phase, k) for guard rows materialized outside a store.
RowId = tuple

#: a row a^T v <= b in integers, (den, den a, den b), den > 0
IntForm = tuple[int, dict[int, int], int]


@dataclass(frozen=True)
class GuardLiteral:
    unit: Unit
    phase: str  # ACTIVE | INACTIVE


def int_form(row: dict[int, Fraction], rhs: Fraction) -> IntForm:
    """The integer form of a^T v <= b, den the lcm of its denominators,
    which leaves the row in lowest terms."""
    den = lcm(rhs.denominator, *(q.denominator for q in row.values()))
    return (den, {j: q.numerator * (den // q.denominator) for j, q in row.items()},
            rhs.numerator * (den // rhs.denominator))


def lowest_terms(den: int, coeffs: dict[int, int], rhs: int) -> IntForm:
    """(den, coeffs, rhs) divided by their gcd: the row's integer form in
    lowest terms, as `int_form` gives it."""
    g = gcd(den, rhs, *coeffs.values())
    if g == 1:
        return den, coeffs, rhs
    return den // g, {j: a // g for j, a in coeffs.items()}, rhs // g


def equality(form: IntForm) -> list[IntForm]:
    """An equality's two sides, a^T v <= b and -a^T v <= -b."""
    den, coeffs, rhs = form
    return [form, (den, {j: -a for j, a in coeffs.items()}, -rhs)]


class NormRow(NamedTuple):
    """A row a^T v <= b under its id, in its integer form `ints` alone:
    all that the LP engine and the checkers of `certs` read.  A store
    builds each row once and every system it normalizes shares it, so
    `ints` may not be mutated."""

    rid: RowId
    ints: IntForm

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.ints[2], self.ints[0])


class NormalizedSystem:
    """Pure inequality form A v <= b with stable per-row ids; its rows are
    `NormRow`s."""

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

    def resolve(self, rid: RowId) -> NormRow | None:
        k = self.index.get(rid)
        return None if k is None else self.rows[k]


def affine_row(layout: VariableLayout, unit: Unit) -> IntForm:
    """The unit's affine row s - sum_k w_k src_k = b, its "le" side, in
    integers, from its `Network.unit_weights`: the one definition of it,
    from which the store's affine rows and the proof checker's are built.
    A source is an input in layer 1, else the previous layer's
    post-activation."""
    s = layout.pre_index(unit)  # a unit of the network, or KeyError
    den, weights, b = layout.net.unit_weights(unit)
    i, _ = unit
    row = {s: den}
    for k, w in enumerate(weights):
        if w:
            row[layout.input_index(k) if i == 1 else layout.post_index((i - 1, k))] = -w
    return den, row, b


def guard_rows(layout: VariableLayout, lit: GuardLiteral) -> list[list[IntForm]]:
    """The rows of committing a ReLU phase, row k as its integer sides: the
    one definition of a phase's rows, from which the store's guard and
    `stabilize` rows and the proof checker's are built.

    Active: z - s = 0 and -s <= 0.  Inactive: z = 0 and s <= 0.  A unit
    without a ReLU (z aliases s) has no phases.  A unit the layout does not
    know, or one without phases, raises `ValueError("... is not a ReLU
    unit")`; an unknown phase, `ValueError` too.
    """
    try:
        s, z = layout.pre_index(lit.unit), layout.post_index(lit.unit)
    except KeyError:
        raise ValueError(f"{lit.unit} is not a ReLU unit") from None
    if s == z:
        raise ValueError(f"{lit.unit} is not a ReLU unit")
    if lit.phase == ACTIVE:
        return [equality((1, {z: 1, s: -1}, 0)), [(1, {s: -1}, 0)]]
    if lit.phase == INACTIVE:
        return [equality((1, {z: 1}, 0)), [(1, {s: 1}, 0)]]
    raise ValueError(f"unknown phase {lit.phase!r}")


def guard_norm_rows(layout: VariableLayout, lit: GuardLiteral) -> list[NormRow]:
    """A phase's rows, `guard_rows`, as normalized rows with
    store-independent ids.

    Used when a guard set is materialized on top of a store (guarded
    certificates, the exactness gate); the solver and the proof checker build
    identical rows and ids for a cover's guards from this single helper.
    """
    forms = [form for sides in guard_rows(layout, lit) for form in sides]
    return [NormRow(("g", lit.unit[0], lit.unit[1], lit.phase, k), form)
            for k, form in enumerate(forms)]
