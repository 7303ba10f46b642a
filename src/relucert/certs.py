"""Certificate objects and their deterministic checkers.

These checkers are the core of the trust base: everything else in the
pipeline may be wrong, but a claim accepted here holds by exact rational
arithmetic.  They are the only multiplier checkers: propagation, the LP
engine's self-checks and the proof checker all call them; `check_guarded`
is the one cover check.  `check_dual` accepts a bound at or above the
lambda^T b its multipliers achieve, which is how the proof checker reads
a derived row, since TGCT rounds each bound outward; `check_dual_exact`
holds the bound to lambda^T b and serves only the LP self-check and a
leaf's margin bound.  They
read systems of `rows.NormRow`s, never a solver store.  `_combine` forms
lambda^T A and lambda^T b in integers over one common denominator, from
each row's `NormRow.ints`, and hands back `Fraction`s.  Cost is linear in the number
of nonzeros touched; a module-level counter adds one per row entry and one
per rhs combined, so tests can assert the linear bound.  A stabilized unit
needs no certificate: the proof checker rebuilds its row and tests its
sign against the unit's interval, the seed of the leaf's scope as the rows
before it tighten it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .rows import GuardLiteral, NormalizedSystem, RowId, guard_norm_rows


class OpCounter:
    """Counts the multiplications the checkers perform, one per nonzero."""

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
class CheckResult:
    ok: bool
    reason: str = ""
    value: Fraction | None = None  # lambda^T b, for an accepted dual certificate


ACCEPT = CheckResult(True)


class UnknownRow(Exception):
    """A certificate cites a row id the system does not contain."""


def _combine(sys: NormalizedSystem, multipliers) -> tuple[dict[int, Fraction], Fraction]:
    """lambda^T A (its nonzeros) and lambda^T b, by sparse accumulation in
    integers: with q the lcm of every multiplier's denominator times its
    row's `den`, multiplier m on row (den, den a, den b) contributes
    m q / den times the integer row, and the sums are q lambda^T A and
    q lambda^T b."""
    terms = []
    for rid, m in multipliers:
        row = sys.resolve(rid)
        if row is None:
            raise UnknownRow(str(rid))
        terms.append((m, row.ints))
    q = lcm(*(m.denominator * den for m, (den, _, _) in terms))
    acc: dict[int, int] = {}
    rhs = 0
    for m, (den, coeffs, b) in terms:
        s = m.numerator * (q // (m.denominator * den))
        for j, a in coeffs.items():
            acc[j] = acc.get(j, 0) + s * a
        rhs += s * b
        counter.mults += len(coeffs) + 1
    return {j: Fraction(v, q) for j, v in acc.items() if v}, Fraction(rhs, q)


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


def check_dual_exact(sys: NormalizedSystem, cert: DualBoundCertificate) -> CheckResult:
    """`check_dual`, and lambda^T b = bound exactly: the LP self-check and
    a leaf's margin bound record the value a dual certificate achieves, so
    any slack marks a fault.  A derived row's bound is rounded outward and
    is checked by `check_dual` alone."""
    res = check_dual(sys, cert)
    if res.ok and res.value != cert.bound:
        return CheckResult(False, f"certificate bound {cert.bound} differs from "
                                  f"lambda^T b = {res.value}")
    return res


def extend_with_guards(sys: NormalizedSystem, layout, guards) -> NormalizedSystem:
    """`sys` with its guards' rows, `guard_norm_rows`, appended."""
    rows = list(sys.rows)
    for lit in sorted(guards, key=lambda g: (g.unit, g.phase)):
        rows.extend(guard_norm_rows(layout, lit))
    return NormalizedSystem(rows, sys.n_vars)


def check_guarded(sys: NormalizedSystem, layout, cert: GuardedCertificate) -> CheckResult:
    """The one cover-certificate check: the Farkas checker over `sys` and
    the guards' rows.  A guard that `guard_rows` refuses rejects."""
    try:
        extended = extend_with_guards(sys, layout, cert.guards)
    except ValueError as exc:
        return CheckResult(False, f"guard without rows: {exc!r}")
    return check_farkas(extended, cert.inner)
