"""Certificate objects and their deterministic checkers.

These checkers are the trust base: everything else in the pipeline may be
wrong, but a claim accepted here holds by exact rational arithmetic.  Cost is
linear in the number of nonzeros touched; a module-level counter tracks the
rational multiplications per check so tests can assert the linear bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .store import (
    GuardLiteral,
    NormRow,
    NormalizedSystem,
    RowId,
    Store,
    guard_norm_rows,
)

_ZERO = Fraction(0)


class OpCounter:
    """Counts rational multiplications performed by the checkers."""

    def __init__(self):
        self.mults = 0

    def reset(self):
        self.mults = 0


counter = OpCounter()


@dataclass(frozen=True)
class DualBoundCertificate:
    """Nonnegative multipliers with lambda^T A = g^T and lambda^T b <= bound."""

    objective: tuple[tuple[int, Fraction], ...]
    bound: Fraction
    multipliers: tuple[tuple[RowId, Fraction], ...]

    @staticmethod
    def make(g: dict[int, Fraction], bound: Fraction, lam: dict[RowId, Fraction]):
        return DualBoundCertificate(
            tuple(sorted((j, q) for j, q in g.items() if q != 0)),
            bound,
            tuple(sorted((rid, q) for rid, q in lam.items() if q != 0)),
        )

    @property
    def objective_dict(self) -> dict[int, Fraction]:
        return dict(self.objective)


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative multipliers with lambda^T A = 0 and lambda^T b < 0."""

    multipliers: tuple[tuple[RowId, Fraction], ...]

    @staticmethod
    def make(lam: dict[RowId, Fraction]):
        return FarkasCertificate(tuple(sorted((rid, q) for rid, q in lam.items() if q != 0)))


@dataclass(frozen=True)
class GuardedCertificate:
    """Farkas certificate for the store extended by a guard set's consequences."""

    guards: tuple[GuardLiteral, ...]
    inner: FarkasCertificate

    @staticmethod
    def make(guards, inner: FarkasCertificate):
        return GuardedCertificate(tuple(sorted(guards, key=lambda g: (g.unit, g.phase))), inner)

    @property
    def guard_set(self) -> frozenset[GuardLiteral]:
        return frozenset(self.guards)


@dataclass(frozen=True)
class StabilityCertificate:
    """A unit specialized to a fixed sign on the node.  The sign is proved by
    the unit's bound rows, each with its own dual certificate."""

    unit: tuple[int, int]
    phase: str  # ACTIVE: s >= 0, INACTIVE: s <= 0


@dataclass(frozen=True)
class ConflictClause:
    """Disjunction of the negations of a guarded certificate's guards."""

    literals: frozenset[GuardLiteral]  # each literal here appears negated
    source: int  # id of the source GuardedCertificate in the clause DB


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""
    value: Fraction | None = None  # lambda^T b, for an accepted dual certificate


ACCEPT = CheckResult(True)


class UnknownRow(Exception):
    """A certificate cites a row id the system does not contain."""


def _combine(sys: NormalizedSystem, multipliers) -> tuple[dict[int, Fraction], Fraction]:
    """lambda^T A and lambda^T b via sparse row accumulation."""
    acc: dict[int, Fraction] = {}
    rhs = _ZERO
    for rid, q in multipliers:
        row = sys.resolve(rid)
        if row is None:
            raise UnknownRow(str(rid))
        for j, a in row.row.items():
            counter.mults += 1
            acc[j] = acc.get(j, _ZERO) + q * a
        counter.mults += 1
        rhs += q * row.rhs
    return {j: v for j, v in acc.items() if v != 0}, rhs


def check_dual(sys: NormalizedSystem, cert: DualBoundCertificate) -> CheckResult:
    """Accept iff lambda >= 0, lambda^T A = g^T and lambda^T b <= bound, exactly."""
    for rid, q in cert.multipliers:
        if q < 0:
            return CheckResult(False, f"negative multiplier on {rid}")
    try:
        combo, rhs = _combine(sys, cert.multipliers)
    except UnknownRow as exc:
        return CheckResult(False, f"unknown row {exc}")
    g = {j: q for j, q in cert.objective if q != 0}
    if combo != g:
        return CheckResult(False, "lambda^T A != g^T")
    if rhs > cert.bound:
        return CheckResult(False, f"lambda^T b = {rhs} > bound {cert.bound}")
    return CheckResult(True, value=rhs)


def check_farkas(sys: NormalizedSystem, cert: FarkasCertificate) -> CheckResult:
    """Accept iff lambda >= 0, lambda^T A = 0 and lambda^T b < 0, exactly."""
    for rid, q in cert.multipliers:
        if q < 0:
            return CheckResult(False, f"negative multiplier on {rid}")
    try:
        combo, rhs = _combine(sys, cert.multipliers)
    except UnknownRow as exc:
        return CheckResult(False, f"unknown row {exc}")
    if combo:
        return CheckResult(False, "lambda^T A != 0")
    if rhs >= 0:
        return CheckResult(False, f"lambda^T b = {rhs} not < 0")
    return ACCEPT


def extend_with_guards(sys: NormalizedSystem, layout, guards) -> NormalizedSystem:
    rows = list(sys.rows)
    for lit in sorted(guards, key=lambda g: (g.unit, g.phase)):
        if lit.unit not in layout._pre:
            raise KeyError(f"unknown unit {lit.unit}")
        rows.extend(guard_norm_rows(layout, lit))
    return NormalizedSystem(rows, sys.n_vars)


def check_guarded(store: Store, cert: GuardedCertificate) -> CheckResult:
    """Materialize the guard consequences, then run the Farkas checker."""
    try:
        sys = extend_with_guards(store.normalize(), store.layout, cert.guards)
    except KeyError as exc:
        return CheckResult(False, f"unknown unit {exc}")
    return check_farkas(sys, cert.inner)
