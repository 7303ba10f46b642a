"""Exact rational LP over A v <= b with free variables v.

Two-phase primal simplex with Bland's rule on a dense tableau whose rows
are Python integers over one positive row denominator each, so pivots run
on integer arithmetic and nothing rounds; results leave as `Fraction`.
Optimal outcomes carry a dual vector with lambda^T A = g^T and
lambda^T b = value; infeasible outcomes carry a Farkas vector with
lambda^T A = 0 and lambda^T b < 0.  Both are re-verified with the exact
checkers of `certs` before returning (the one place LP results are
self-checked); a failure raises `SelfCheckFailed`.

Warm start: an OPTIMAL outcome carries its final tableau, and `lp_max`
(or `lp_min`) given that tableau back as `warm` starts phase 2 from it, with
no phase 1, when the new system is the old one less some rows plus rows
appended at the end (`_Tableau.reconcile`).  Template tightening makes
exactly such steps, and the old basis stays feasible through them: the row
it adds, g^T v <= beta with beta the optimum just found, holds with
equality at the optimal point, so its slack enters the basis at 0; the row
it retires is strictly looser, so its slack is positive at that point,
hence basic, and its tableau row and slack column can go.  When either
condition fails the LP starts cold.  Values and statuses do not depend on
the start; dual multipliers of a degenerate optimum may.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .certs import FarkasCertificate, _combine, check_farkas
from .store import NormalizedSystem, NormRow, RowId

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FEASIBLE = "feasible"
LIMIT = "limit"

_ZERO = Fraction(0)

DEFAULT_MAX_ITERS = 50_000


@dataclass
class LpOutcome:
    status: str
    value: Fraction | None = None
    primal: dict[int, Fraction] | None = None
    dual: dict[RowId, Fraction] | None = None
    ray: dict[int, Fraction] | None = None
    iterations: int = 0
    #: the final tableau of an OPTIMAL `lp_max`/`lp_min`, to pass as `warm`
    tableau: _Tableau | None = None


class _Tableau:
    """Gauss-Jordan simplex tableau over integers.

    Columns: 0..N-1 original free variables, N..N+m-1 slacks, then
    artificials.  Rows whose rhs is negative start with an artificial basic
    (column -e_i), so the initial tableau row is negated to expose identity
    basis columns.

    Row i is the list `T[i]` of integer numerators over the positive row
    denominator `D[i]`, with the rhs numerator last, kept in lowest terms
    (gcd(D[i], *T[i]) == 1).  An objective row has the same form with the
    objective value last.  Every sign and ratio the simplex reads is exact,
    so the pivots are those of the same tableau over `Fraction`; values
    become `Fraction` only in `primal`, `dual_from_obj`, `ray` and the
    optimal value.
    """

    def __init__(self, sys: NormalizedSystem):
        self.n = n = sys.n_vars
        self.m = m = len(sys.rows)
        self.row_ids = [r.rid for r in sys.rows]
        self.ncols = n + m + sum(1 for r in sys.rows if r.rhs < 0)
        self.art_cols: list[int] = []
        self.T: list[list[int]] = []
        self.D: list[int] = []
        self.basis: list[int] = []
        #: the system's rows in integers, kept for `check_primal`
        self.int_rows = [_integer_row(r) for r in sys.rows]
        for i, (den, coeffs, rhs) in enumerate(self.int_rows):
            row = [0] * (self.ncols + 1)
            for j, a in coeffs.items():
                row[j] = a
            row[n + i] = den
            row[-1] = rhs
            if rhs < 0:
                row = [-a for a in row]
                art = n + m + len(self.art_cols)
                self.art_cols.append(art)
                row[art] = den
                self.basis.append(art)
            else:
                self.basis.append(n + i)
            self.T.append(row)
            self.D.append(den)
        self.iterations = 0

    def is_artificial(self, j: int) -> bool:
        return j >= self.n + self.m

    def objective_row(self, cost: dict[int, Fraction]) -> tuple[list[int], int]:
        """Reduced costs z_j - c_j and the current objective value (last), as
        numerators over one denominator, for the cost c of each column."""
        basic = [(cost[b], i) for i, b in enumerate(self.basis) if cost.get(b)]
        den = lcm(*(q.denominator for q in cost.values()),
                  *(q.denominator * self.D[i] for q, i in basic))
        obj = [0] * (self.ncols + 1)
        for j, q in cost.items():
            obj[j] = -q.numerator * (den // q.denominator)
        for q, i in basic:
            f = q.numerator * (den // (q.denominator * self.D[i]))
            for k, a in enumerate(self.T[i]):
                if a:
                    obj[k] += f * a
        return _reduced(obj, den)

    def _pivot(self, r: int, j: int) -> tuple[list[tuple[int, int]], int]:
        """Make column j the unit vector of row r.  Returns the new row r as
        its nonzero (column, numerator) entries and its denominator, for
        `_eliminate` on an objective row."""
        row = self.T[r]
        if row[j] < 0:
            row = [-a for a in row]
        row, p = _reduced(row, row[j])
        self.T[r], self.D[r] = row, p
        nz = [(k, a) for k, a in enumerate(row) if a]
        T, D = self.T, self.D
        for i in range(self.m):
            if i != r and T[i][j]:
                T[i], D[i] = _eliminate(T[i], D[i], j, nz, p)
        self.basis[r] = j
        return nz, p

    def run(self, cost: dict[int, Fraction], max_iters: int, forbid_artificials: bool):
        """Maximize; returns ("optimal", objrow, den) | ("unbounded", col, dir)
        | ("limit",).  The reduced-cost row is maintained incrementally."""
        obj, den = self.objective_row(cost)
        n = self.n
        last = self.n + self.m if forbid_artificials else self.ncols
        while True:
            # Bland: the first free column with a nonzero reduced cost or
            # bounded column with a negative one
            enter = -1
            direction = 1
            for j in range(last):
                oj = obj[j]
                if j < n:
                    if oj:
                        enter, direction = j, (1 if oj < 0 else -1)
                        break
                elif oj < 0:
                    enter = j
                    break
            if enter < 0:
                return ("optimal", obj, den)
            if self.iterations >= max_iters:
                return ("limit",)
            self.iterations += 1
            # Bland ratio test rhs_i / (direction * T_ij), the row denominator
            # cancelling; free basics never block
            best_r = -1
            best_num = best_d = 0
            for i, row in enumerate(self.T):
                if self.basis[i] < n:
                    continue
                d = direction * row[enter]
                if d > 0:
                    num = row[-1]
                    if best_r < 0:
                        best_r, best_num, best_d = i, num, d
                        continue
                    lhs, rhs = num * best_d, best_num * d
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best_r]):
                        best_r, best_num, best_d = i, num, d
            if best_r < 0:
                return ("unbounded", enter, direction)
            nz, p = self._pivot(best_r, enter)
            obj, den = _eliminate(obj, den, enter, nz, p)

    def drop_artificials(self, max_iters: int) -> bool:
        """Pivot basic artificials out.  False on limit.

        Every row has a nonzero entry among the first n + m columns: the
        slack block of the tableau is the basis inverse times a diagonal of
        +-1, which is invertible.  So there is always a column to pivot on,
        and no row of the tableau ever reads 0 = 0."""
        for i in range(self.m):
            if self.is_artificial(self.basis[i]):
                if self.iterations >= max_iters:
                    return False
                self.iterations += 1
                row = self.T[i]
                self._pivot(i, next(j for j in range(self.n + self.m) if row[j]))
        return True

    def reconcile(self, sys: NormalizedSystem) -> bool:
        """Make this optimal (or feasible) tableau of an earlier system a
        feasible tableau of `sys`, ready for phase 2; False, leaving the
        tableau as it was, when that takes more than the two steps below.

        `sys` must be the earlier system less some rows, the rest in their
        order, plus new rows after them; row ids name the same rows in both.
        A dropped row must have its slack basic: no other row reads that
        column, so its tableau row and slack column go.  A new row has its
        basic columns eliminated and its slack made basic, which is feasible
        only if its rhs is then >= 0.  Artificial columns, all nonbasic
        after phase 1, go too."""
        n = self.n
        keep = [k for k, rid in enumerate(self.row_ids) if rid in sys.index]
        ids = [r.rid for r in sys.rows]
        if [self.row_ids[k] for k in keep] != ids[:len(keep)]:
            return False
        row_of = {b: i for i, b in enumerate(self.basis)}
        dropped = set()
        for k in set(range(self.m)).difference(keep):
            i = row_of.get(n + k)
            if i is None:
                return False
            dropped.add(i)
        cols = [*range(n), *(n + k for k in keep)]
        col_of = {c: j for j, c in enumerate(cols)}
        added = sys.rows[len(keep):]
        width = len(cols) + len(added)
        pad = [0] * len(added)
        T, D, basis = [], [], []
        for i, row in enumerate(self.T):
            if i in dropped:
                continue
            row = [row[c] for c in cols] + pad + [row[-1]]
            row, den = _reduced(row, self.D[i]) if self.art_cols else (row, self.D[i])
            T.append(row)
            D.append(den)
            basis.append(col_of[self.basis[i]])
        for t, r in enumerate(added):
            den, coeffs, rhs = _integer_row(r)
            row = [0] * (width + 1)
            for j, a in coeffs.items():
                row[j] = a
            row[len(cols) + t] = den
            row[-1] = rhs
            for i, b in enumerate(basis):
                if row[b]:
                    row, den = _eliminate(row, den, b, [(k, a) for k, a in enumerate(T[i]) if a],
                                          D[i])
            if row[-1] < 0:
                return False
            T.append(row)
            D.append(den)
            basis.append(len(cols) + t)
        self.m = len(sys.rows)
        self.row_ids = ids
        self.ncols = width
        self.art_cols = []
        self.T, self.D, self.basis = T, D, basis
        self.int_rows = [_integer_row(r) for r in sys.rows]
        self.iterations = 0
        return True

    def check_primal(self, point: dict[int, Fraction]):
        """Every row of the system holds at the point, exactly: with d the lcm
        of the point's denominators, (den a)^T (d v) <= (den b) d in integers."""
        d = lcm(*(q.denominator for q in point.values()))
        x = {j: q.numerator * (d // q.denominator) for j, q in point.items()}
        for rid, (_, coeffs, rhs) in zip(self.row_ids, self.int_rows):
            lhs = 0
            for j, a in coeffs.items():
                v = x.get(j)
                if v:
                    lhs += a * v
            if lhs > rhs * d:
                raise SelfCheckFailed(f"primal point violates row {rid}")

    def primal(self) -> dict[int, Fraction]:
        return {b: Fraction(self.T[i][-1], self.D[i]) for i, b in enumerate(self.basis)
                if b < self.n and self.T[i][-1]}

    def dual_from_obj(self, obj: list[int], den: int) -> dict[RowId, Fraction]:
        n = self.n
        return {rid: Fraction(obj[n + i], den) for i, rid in enumerate(self.row_ids)
                if obj[n + i]}

    def ray(self, enter: int, direction: int) -> dict[int, Fraction]:
        r = {enter: Fraction(direction)} if enter < self.n else {}
        for i, b in enumerate(self.basis):
            a = self.T[i][enter]
            if b < self.n and a:
                r[b] = Fraction(-direction * a, self.D[i])
        return r


def _integer_row(r: NormRow) -> tuple[int, dict[int, int], int]:
    """The row a^T v <= b as (den, den a, den b) in integers, den the lcm of
    its denominators: the tableau's initial row and the primal self-check's."""
    den = lcm(r.rhs.denominator, *(q.denominator for q in r.row.values()))
    coeffs = {j: q.numerator * (den // q.denominator) for j, q in r.row.items()}
    return den, coeffs, r.rhs.numerator * (den // r.rhs.denominator)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den in lowest terms; den > 0."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


def _eliminate(row: list[int], den: int, j: int, nz: list[tuple[int, int]], p: int):
    """row/den minus (row[j]/den) times the pivot row (entries `nz` over p,
    which reads 1 in column j), in lowest terms.  Over the common
    denominator den * p this is row * p - row[j] * pivot; dividing both
    factors by gcd(p, row[j]) first keeps the numbers small."""
    f = row[j]
    g = gcd(p, f)
    ps, fs = p // g, f // g
    if ps != 1:
        row = [a * ps for a in row]
    for k, a in nz:
        row[k] -= fs * a
    return _reduced(row, den * ps)


class SelfCheckFailed(Exception):
    """The simplex produced a result its own certificate does not support."""


def _self_check_farkas(sys: NormalizedSystem, lam: dict[RowId, Fraction]):
    res = check_farkas(sys, FarkasCertificate.make(lam))
    if not res.ok:
        raise SelfCheckFailed(f"Farkas vector rejected: {res.reason}")


def _self_check_dual(sys: NormalizedSystem, g: dict[int, Fraction],
                     lam: dict[RowId, Fraction], value: Fraction):
    """lambda >= 0, lambda^T A = g^T and lambda^T b = value, exactly."""
    if any(q < 0 for q in lam.values()):
        raise SelfCheckFailed("negative dual multiplier")
    combo, rhs = _combine(sys, lam.items())
    if combo != {j: q for j, q in g.items() if q != 0}:
        raise SelfCheckFailed(f"dual combination {combo} != objective {g}")
    if rhs != value:
        raise SelfCheckFailed(f"dual bound {rhs} != optimum {value}")


def _phase1(sys: NormalizedSystem, max_iters: int) -> tuple[_Tableau, LpOutcome | None]:
    """Drive the artificials of a fresh tableau to zero.  The outcome is LIMIT
    or INFEASIBLE (with its self-checked Farkas vector) when phase 1 decides
    the LP, None when the tableau is feasible."""
    tab = _Tableau(sys)
    if not tab.art_cols:
        return tab, None
    res = tab.run({j: Fraction(-1) for j in tab.art_cols}, max_iters, False)
    if res[0] == "limit":
        return tab, LpOutcome(LIMIT, iterations=tab.iterations)
    if res[0] != "optimal":
        raise SelfCheckFailed("phase 1 cannot be unbounded")
    _, obj, den = res
    if obj[-1] < 0:
        lam = tab.dual_from_obj(obj, den)
        _self_check_farkas(sys, lam)
        return tab, LpOutcome(INFEASIBLE, dual=lam, iterations=tab.iterations)
    return tab, None


def lp_max(sys: NormalizedSystem, g: dict[int, Fraction],
           max_iters: int = DEFAULT_MAX_ITERS, warm: _Tableau | None = None) -> LpOutcome:
    """Maximize g^T v over the system; deterministic (Bland's rule).  `warm`,
    the `tableau` of an earlier OPTIMAL outcome, is reused in place and
    skips phase 1 when it reconciles with the system; else the LP starts
    cold."""
    g = {j: Fraction(q) for j, q in g.items() if q != 0}
    if warm is not None and warm.reconcile(sys):
        tab = warm
    else:
        tab, out = _phase1(sys, max_iters)
        if out is not None:
            return out
        if not tab.drop_artificials(max_iters):
            return LpOutcome(LIMIT, iterations=tab.iterations)
    res = tab.run({j: q for j, q in g.items() if j < tab.n}, max_iters, True)
    if res[0] == "limit":
        return LpOutcome(LIMIT, iterations=tab.iterations)
    if res[0] == "unbounded":
        _, enter, direction = res
        ray = tab.ray(enter, direction)
        gain = sum((q * ray.get(j, _ZERO) for j, q in g.items()), _ZERO)
        if gain <= 0:
            raise SelfCheckFailed("unbounded ray does not improve the objective")
        return LpOutcome(UNBOUNDED, ray=ray, iterations=tab.iterations)
    _, obj, den = res
    val = Fraction(obj[-1], den)
    point = tab.primal()
    lam = tab.dual_from_obj(obj, den)
    tab.check_primal(point)
    _self_check_dual(sys, g, lam, val)
    gv = sum((q * point.get(j, _ZERO) for j, q in g.items()), _ZERO)
    if gv != val:
        raise SelfCheckFailed("primal/dual objective mismatch")
    return LpOutcome(OPTIMAL, value=val, primal=point, dual=lam, iterations=tab.iterations,
                     tableau=tab)


def lp_min(sys: NormalizedSystem, g: dict[int, Fraction],
           max_iters: int = DEFAULT_MAX_ITERS, warm: _Tableau | None = None) -> LpOutcome:
    """Minimize g^T v.  The returned dual certifies -g^T v <= -value."""
    out = lp_max(sys, {j: -q for j, q in g.items()}, max_iters, warm)
    if out.status == OPTIMAL:
        out.value = -out.value
    return out


def lp_feasible(sys: NormalizedSystem, max_iters: int = DEFAULT_MAX_ITERS) -> LpOutcome:
    """Phase-1 feasibility: Feasible(point) or Infeasible(Farkas lambda)."""
    tab, out = _phase1(sys, max_iters)
    if out is not None:
        return out
    point = tab.primal()
    tab.check_primal(point)
    return LpOutcome(FEASIBLE, primal=point, iterations=tab.iterations)
