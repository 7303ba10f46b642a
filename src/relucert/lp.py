"""Exact rational LP over A v <= b with free variables v, for bounded
systems.

Every system the solver builds bounds each of its variables, layer by
layer: region rows the inputs, phase equalities or hull rows 0 and 3 the
post-activations, and affine rows the pre-activations and identity outputs
through their sources, with derived rows where tightening proved more.
So `lp_max` and `lp_min` require the objective to be
bounded on the system; an unbounded direction (a ratio test with no
leaving row) breaks that precondition and raises `SelfCheckFailed`, a
fault, not a verdict.  Phase 1 is bounded by 0 on any system, so
`lp_feasible` answers every system.

Two-phase bounded-variable primal simplex with Bland's rule (Chvatal,
Linear Programming, 1983, ch. 8) on a tableau whose rows are Python
integers over one positive row denominator each, so pivots run on integer
arithmetic and nothing rounds; results leave as `Fraction`.  Bland's rule
cannot cycle (Bland 1977), so every LP runs to its answer, uncapped.  The
tableau stores only its nonbasic columns (`_Tableau`), so a phase-2 row
holds one entry per variable and the rhs.

Bounds: after the equalities are eliminated (below), every row with one
nonzero coefficient bounds its variable.  Per variable and side the
tightest such row is the bound, the first in row order on a tie; every
looser one is implied, leaves the LP and never gets a multiplier, as does a
row that reduces to 0 <= c with c >= 0.  The tableau holds only the other,
general rows.  Each variable sits at one of its bounds when nonbasic and is
measured from it, so every nonbasic label reads 0; a variable with no bound
row is free.  The ratio test also stops at the bounds of basic variables,
and an entering variable that reaches its own other bound flips there with
no pivot.  Phase 1 needs an artificial only for a general row violated at
the starting bounds, and two bounds of one variable that contradict are
INFEASIBLE at once, their two rows the Farkas vector.  A nonbasic
variable's reduced cost is the multiplier of the bound row it sits at,
scaled by that row's coefficient; a slack's is its row's.
Optimal outcomes carry a dual vector with lambda^T A = g^T and
lambda^T b = value; infeasible outcomes carry a Farkas vector with
lambda^T A = 0 and lambda^T b < 0.  Both are re-verified against the rows of
the system passed in by the checkers of `certs`, the one multiplier checker
(`_check_dual`, `_check_farkas`); a point is checked to satisfy every row
in integers (`_check_holds`).  A failure raises `SelfCheckFailed`.  A
system's rows are `rows.NormRow`s, each an id and its integer form
(den, den a, den b) alone, which the store builds straight from the
problem's and the node's data, once per row, and shares with every other
system the row appears in; the engine reads nothing else of a row and
turns nothing of it into a `Fraction`.

Equalities are eliminated before the tableau exists (`_Reduction`).  An
equality is a pair of adjacent nonzero rows whose ids differ only in their
last part and which are exact negations: a store equality's ("c", cid,
"le") and ("c", cid, "ge") rows, or the two halves of a guard equality.
Each equality eliminates the variable it defines, the highest index in its
rows: an affine row its pre-activation, a phase, guard or `stabilize`
row its post-activation.  A pair whose variable an earlier pair already
eliminates stays as its two rows, under the rules for rows: one that
reduces to 0 <= 0 leaves, and one that reduces to 0 <= c < 0 is refuted
by phase 1.  A forward sweep in increasing variable order writes each
eliminated variable over kept variables only, substituting the finished
expressions of the smaller ones; each other row then has the eliminated
variables it mentions substituted once each, and the simplex runs on those
rows over the kept variables, renumbered.  The results are lifted back:
eliminated variables of the point follow from their expressions; a
backward sweep in decreasing variable order gives each equality the
multiplier nu that zeroes its variable's column of lambda^T A - g (g = 0
for a Farkas vector), on its row with a positive coefficient there when
nu > 0 and as -nu on the other row when nu < 0, and takes nu times its row
off the smaller columns; the optimal value adds back the constant the
substitution took out of the objective.  A system without equality pairs
is solved exactly as it is, and one without single-variable rows has no
bounds.

Warm start: an OPTIMAL outcome carries its final tableau, which records
the system it solves, and `lp_max` (or `lp_min`) given that tableau back as
`warm` for that very system object runs phase 2 from its basis, with no
phase 1 and no new reduction; the tableau of any other system is ignored
and the LP starts cold.  Only the objective changes, so the old basis stays
primal feasible (Chvatal 1983, ch. 10).  Values and statuses do not depend
on the start; dual multipliers of a degenerate optimum may.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import certs
from .rows import IntForm, NormalizedSystem, NormRow, RowId, lowest_terms

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
FEASIBLE = "feasible"

_ZERO = Fraction(0)


@dataclass
class LpOutcome:
    status: str
    value: Fraction | None = None
    primal: dict[int, Fraction] | None = None
    dual: dict[RowId, Fraction] | None = None
    #: always None; read only by perfbench/spans.py, and gone with it once
    #: the run report that replaces spans.py lands
    ray: None = None
    iterations: int = 0
    #: the final tableau of an OPTIMAL `lp_max`/`lp_min`, to pass as `warm`
    #: to another objective's LP over the same system object
    tableau: _Tableau | None = None


class SelfCheckFailed(Exception):
    """A solver fault: a certificate that its checker rejects (the simplex's
    own, or `propagate.Substitution.refutation`), or an unbounded
    direction, which no system given to the simplex may have."""


def _check_holds(sys: NormalizedSystem, x: dict[int, Fraction]):
    """Every row holds at the point x: x is scaled by the lcm d of its
    denominators and each row compared in integers,
    (den a)^T (d x) <= (den b) d."""
    d = lcm(*(q.denominator for q in x.values()))
    xi = {j: q.numerator * (d // q.denominator) for j, q in x.items()}
    for r in sys.rows:
        _, coeffs, rhs = r.ints
        lhs = 0
        for j, a in coeffs.items():
            v = xi.get(j)
            if v:
                lhs += a * v
        if lhs > rhs * d:
            raise SelfCheckFailed(f"primal point violates row {r.rid}")


def _check_dual(sys: NormalizedSystem, g: dict[int, Fraction], lam: dict[RowId, Fraction],
                value: Fraction):
    """`certs.check_dual_exact` accepts lambda for g with bound value."""
    res = certs.check_dual_exact(sys, certs.DualBoundCertificate(tuple(g.items()), value,
                                                                 tuple(lam.items())))
    if not res.ok:
        raise SelfCheckFailed(f"dual rejected: {res.reason}")


def _check_farkas(sys: NormalizedSystem, lam: dict[RowId, Fraction]):
    """`certs.check_farkas` accepts lambda."""
    res = certs.check_farkas(sys, certs.FarkasCertificate(tuple(lam.items())))
    if not res.ok:
        raise SelfCheckFailed(f"Farkas vector rejected: {res.reason}")


def _equality_pairs(sys: NormalizedSystem) -> list[int]:
    """Positions k at which rows k and k + 1 form an equality: ids equal but
    for their last part, and nonzero integer rows that are exact negations."""
    rows = sys.rows
    out = []
    k = 0
    while k + 1 < len(rows):
        (da, ca, ba), (db, cb, bb) = rows[k].ints, rows[k + 1].ints
        if (rows[k].rid[:-1] == rows[k + 1].rid[:-1] and da == db and bb == -ba
                and ca and len(ca) == len(cb) and all(cb.get(j) == -a for j, a in ca.items())):
            out.append(k)
            k += 2
        else:
            k += 1
    return out


class _Reduction:
    """The equalities of a system, each eliminating the variable it defines
    (see the module docstring): the reduced rows, objective and renumbering,
    and the lifts of a point and a multiplier vector back to the system."""

    def __init__(self, sys: NormalizedSystem):
        rows = sys.rows
        #: per eliminated variable p, its equality's row with a positive
        #: coefficient on p, then the other row
        self.eq: dict[int, tuple[NormRow, NormRow]] = {}
        for k in _equality_pairs(sys):
            coeffs = rows[k].ints[1]
            p = max(coeffs)
            if p not in self.eq:
                pair = rows[k], rows[k + 1]
                self.eq[p] = pair if coeffs[p] > 0 else pair[::-1]
        self.removed = {r.rid for pair in self.eq.values() for r in pair}
        #: per eliminated variable p, in increasing order, d v_p + e^T v = c
        #: with d > 0 and e over kept variables only, in lowest terms: its
        #: equality with the smaller eliminated variables substituted
        self.expr: dict[int, tuple[int, dict[int, int], int]] = {}
        for p in sorted(self.eq):
            _, coeffs, c = self.eq[p][0].ints
            e = dict(coeffs)
            d, e, c = self._substitute(e.pop(p), e, c)
            g = gcd(d, c, *e.values())
            self.expr[p] = d // g, {j: v // g for j, v in e.items()}, c // g
        #: the kept variables in order; the reduced LP's variable i is keep[i]
        self.keep = [j for j in range(sys.n_vars) if j not in self.eq]
        self.col = {j: i for i, j in enumerate(self.keep)}
        self.n = len(self.keep)

    def _substitute(self, den: int, e: dict[int, int], c: int) -> tuple[int, dict[int, int], int]:
        """e^T v = c over den with each eliminated variable that e mentions
        substituted from its expression, which must be finished: for f v_p,
        the row scaled by a > 0 less the expression scaled by b, with a / b
        = d / f in lowest terms.  e is changed in place."""
        expr = self.expr
        for p in [j for j in e if j in expr]:
            f = e.pop(p)
            d, ep, cp = expr[p]
            g = gcd(d, f)
            a, b = d // g, f // g
            if a != 1:
                for j in e:
                    e[j] *= a
                den, c = den * a, c * a
            for j, v in ep.items():
                w = e.get(j, 0) - b * v
                if w:
                    e[j] = w
                else:
                    del e[j]
            c -= b * cp
        return den, e, c

    def reduce(self, row: IntForm) -> IntForm:
        """An integer row with the eliminated variables substituted, over the
        kept variables, in lowest terms."""
        den, e, c = row
        if not self.expr.keys().isdisjoint(e):
            den, e, c = self._substitute(den, dict(e), c)
            g = gcd(den, c, *e.values())
            if g != 1:
                den, c = den // g, c // g
                e = {j: v // g for j, v in e.items()}
        col = self.col
        return den, {col[j]: v for j, v in e.items()}, c

    def objective(self, g: dict[int, Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """g^T v as g'^T v' + const on the points of the equalities."""
        col = self.col
        cost = {col[j]: q for j, q in g.items() if j in col}
        const = _ZERO
        for p, (d, e, c) in self.expr.items():
            f = g.get(p)
            if f:
                f /= d
                for j, a in e.items():
                    v = cost.get(col[j], _ZERO) - f * a
                    if v:
                        cost[col[j]] = v
                    else:
                        cost.pop(col[j], None)
                const += f * c
        return cost, const

    def lift(self, x: dict[int, Fraction]) -> dict[int, Fraction]:
        """A point of the reduced LP in the original variables."""
        out = {self.keep[j]: q for j, q in x.items()}
        dx = lcm(*(q.denominator for q in out.values()))
        xi = {j: q.numerator * (dx // q.denominator) for j, q in out.items()}
        for p, (d, e, c) in self.expr.items():
            num = c * dx
            for j, a in e.items():
                v = xi.get(j)
                if v:
                    num -= a * v
            if num:
                out[p] = Fraction(num, d * dx)
        return out

    def lift_dual(self, lam: dict[RowId, Fraction], g: dict[int, Fraction],
                  sys: NormalizedSystem) -> dict[RowId, Fraction]:
        """Multipliers on the kept rows, with lam^T A' = g'^T, extended by the
        equalities' so that lam^T A = g^T on the original rows.

        w = q (g - lam^T A) on the eliminated columns, over a common
        denominator q.  Walking them in decreasing order, as
        `propagate.back_substitution` does, the equality of column p gets the
        multiplier nu = w_p den / (q a_p) that zeroes it, on its row with
        a_p > 0 when nu > 0 and as -nu on the other row when nu < 0, and
        takes nu times its row off w's smaller columns; q grows by what keeps
        w integral."""
        terms = [(mult, sys.resolve(rid).ints) for rid, mult in lam.items()]
        gp = {p: g.get(p, _ZERO) for p in self.expr}
        q = lcm(*(mult.denominator * den for mult, (den, _, _) in terms),
                *(f.denominator for f in gp.values()))
        w = {p: f.numerator * (q // f.denominator) for p, f in gp.items()}
        for mult, (den, coeffs, _) in terms:
            s = mult.numerator * (q // (mult.denominator * den))
            for j, a in coeffs.items():
                if j in w:
                    w[j] -= s * a
        out = dict(lam)
        for p in reversed(self.expr):
            wp = w.pop(p)
            if not wp:
                continue
            pos, neg = self.eq[p]
            den, coeffs, _ = pos.ints
            a = coeffs[p]
            out[(pos if wp > 0 else neg).rid] = Fraction(abs(wp) * den, q * a)
            h = gcd(a, wp)
            t, c = a // h, wp // h  # w_p / a_p = c / t, t > 0
            if t != 1:
                for j in w:
                    w[j] *= t
                q *= t
            for j, v in coeffs.items():
                if j in w:
                    w[j] -= c * v
        return out


#: a bound x_j <= num / d (upper) or x_j >= num / d (lower), d > 0, given
#: by the row `rid` whose integer form has denominator `den`:
#: (num, d, rid, den)
_Bound = tuple[int, int, RowId, int]

#: where a variable's label measures from: x_j = p / d + sigma y_j, with
#: y_j >= 0 unless the variable is free: (sigma, p, d)
_Offset = tuple[int, int, int]


def _single(rid: RowId, form: IntForm) -> tuple[int, bool, _Bound]:
    """A reduced row a x_j <= c with one nonzero coefficient, as (j, whether
    it bounds x_j from above, its `_Bound`).  The rational row is
    (a / den) x_j <= c / den, so its slack is |a| / den times x_j's distance
    from the bound, and den / |a| is its multiplier per unit of reduced
    cost of x_j there."""
    den, coeffs, c = form
    (j, a), = coeffs.items()
    return (j, True, (c, a, rid, den)) if a > 0 else (j, False, (-c, -a, rid, den))


def _bounds(singles: list, n: int) -> tuple[list[_Bound | None], list[_Bound | None]]:
    """The lower and upper bound of each of n variables, or None: on each
    side the tightest of the `singles` (`_single`s, in row order), the
    first in row order on a tie.  Every other single-variable row is implied
    by these two."""
    lo: list[_Bound | None] = [None] * n
    hi: list[_Bound | None] = [None] * n
    for j, upper, b in singles:
        side = hi if upper else lo
        cur = side[j]
        if cur is None or (b[0] * cur[1] < cur[0] * b[1] if upper
                           else b[0] * cur[1] > cur[0] * b[1]):
            side[j] = b
    return lo, hi


def _in_labels(form: IntForm, off: list[_Offset]) -> IntForm:
    """A reduced row over the variables' labels, each variable's `_Offset`
    substituted, in lowest terms."""
    den, coeffs, c = form
    out = {}
    num, q = 0, 1  # the sum of a_j p_j / d_j, as num / q
    for j, a in coeffs.items():
        sigma, p, d = off[j]
        out[j] = a if sigma > 0 else -a
        if p:
            if d == q:
                num += a * p
            else:
                m = lcm(q, d)
                num = num * (m // q) + a * p * (m // d)
                q = m
    if q == 1:  # a common factor of den and every a_j divides num, not c
        return den, out, c - num
    return lowest_terms(den * q, {j: a * q for j, a in out.items()}, c * q - num)


class _Tableau:
    """Gauss-Jordan simplex tableau over integers that stores only its
    nonbasic columns, on the general rows of a system's reduced LP
    (`_Reduction`, which travels with it as `red`); the reduced LP's
    single-variable rows are bounds, not rows.

    Bounds.  A reduced row with one nonzero coefficient bounds its
    variable (`_single`); per variable and side the tightest such row is
    its bound (`_bounds`), `lo` and `hi`, and every looser one is implied:
    it leaves the LP and never gets a multiplier, as does a row that
    reduces to 0 <= c with c >= 0.  Two bounds that contradict leave the
    Farkas vector of their two rows in `conflict`.  Each variable's label
    y_j >= 0 measures its distance from the bound it sits at, its `_Offset`
    `off[j]`: x_j = lo + y_j at its lower bound, x_j = hi - y_j at its
    upper one; a variable with no bound is free, x_j = y_j.  A label with
    both bounds has the upper bound `width` = hi - lo, which the ratio test
    also stops at; a fixed variable (width 0) never enters.

    Labels: 0..n-1 the kept variables, n..n+m-1 the slacks of the general
    rows in `row_ids` order, then artificials.  Every nonbasic label reads
    0, so a variable starts at its lower bound, or its upper one when it
    has no lower, and a general row is written over the labels.  A row
    whose rhs is then negative starts with an artificial basic (column
    -e_i), so its initial row is negated to make that column +e_i; every
    other row starts with its slack basic.

    `cols` lists the nonbasic labels.  Row i is the list `T[i]` of its
    integer entries for `cols`, with the rhs numerator last, over the
    positive row denominator `D[i]`, kept in lowest terms (gcd(D[i], *T[i])
    == 1).  Its entry for its basic label `basis[i]` is D[i] and its entry
    for every other basic label 0; neither is stored.  A pivot swaps the
    entering and leaving labels between `cols` and `basis` in place.
    Artificial labels leave `cols` when phase 1 ends (`drop_artificials`).
    An objective row has the same form, reduced costs for `cols` and the
    objective value last.

    A label that reaches its other bound is complemented, y' = width - y,
    so every nonbasic label reads 0 again: an entering label whose own
    bound is the nearest is flipped in every row and the objective row
    (`_flip`), with no pivot; a basic label that leaves at its upper bound
    is complemented in its row before the pivot.  The entering label is
    the smallest eligible one (Bland) and ratio ties, the entering label's
    own bound among them, go to the smaller label.  Values become
    `Fraction` only in `primal`, `dual_from_obj` and the optimal value.

    The system must be bounded in the objective `run` maximizes (see the
    module docstring); a ratio test that nothing stops raises
    `SelfCheckFailed`.
    """

    def __init__(self, sys: NormalizedSystem):
        #: the system this tableau solves, the one `lp_max` may reuse it for
        self.sys = sys
        self.red = red = _Reduction(sys)
        self.n = n = red.n
        singles, general = [], []
        for r in sys.rows:
            if r.rid in red.removed:
                continue
            form = red.reduce(r.ints)
            if len(form[1]) == 1:
                singles.append(_single(r.rid, form))
            elif form[1] or form[2] < 0:
                general.append((r.rid, form))
        self.lo, self.hi = lo, hi = _bounds(singles, n)
        self.off: list[_Offset] = [(1, l[0], l[1]) if l else (-1, h[0], h[1]) if h else (1, 0, 1)
                                   for l, h in zip(lo, hi)]
        #: hi - lo, in lowest terms, of each variable bounded on both sides
        self.width = {j: _ratio(h[0] * l[1] - l[0] * h[1], h[1] * l[1])
                      for j, (l, h) in enumerate(zip(lo, hi)) if l and h}
        self.fixed = {j for j, (w, _) in self.width.items() if not w}
        self.free = {j for j, (l, h) in enumerate(zip(lo, hi)) if not l and not h}
        #: the Farkas vector, on the reduced rows, of the first variable
        #: whose lower bound exceeds its upper one; None if there is none
        self.conflict = next(({b[2]: Fraction(b[3], b[1]) for b in (lo[j], hi[j])}
                              for j, (w, _) in self.width.items() if w < 0), None)
        rows = [_in_labels(form, self.off) for _, form in general]
        self.m = m = len(rows)
        self.row_ids = [rid for rid, _ in general]
        negative = [i for i, (_, _, rhs) in enumerate(rows) if rhs < 0]
        #: the artificial labels, one per row with a negative rhs; empty
        #: once phase 2 starts
        self.art_cols = list(range(n + m, n + m + len(negative)))
        self.cols = [*range(n), *(n + i for i in negative)]
        self.T: list[list[int]] = []
        self.D: list[int] = []
        self.basis: list[int] = []
        t = 0
        for i, (den, coeffs, rhs) in enumerate(rows):
            row = [0] * (len(self.cols) + 1)
            for j, a in coeffs.items():
                row[j] = a
            row[-1] = rhs
            if rhs < 0:  # the t-th such row: its slack sits at position n + t
                row = [-a for a in row]
                row[n + t] = -den
                self.basis.append(n + m + t)
                t += 1
            else:
                self.basis.append(n + i)
            self.T.append(row)
            self.D.append(den)
        self.iterations = 0

    def _turn(self, j: int):
        """Variable j now sits at its other bound."""
        b = self.lo[j] if self.off[j][0] < 0 else self.hi[j]
        self.off[j] = (-self.off[j][0], b[0], b[1])

    def is_artificial(self, j: int) -> bool:
        return j >= self.n + self.m

    def objective_row(self, cost: dict[int, Fraction]) -> tuple[list[int], int]:
        """Reduced costs z_j - c_j of the nonbasic labels and the current
        objective value (last), as numerators over one denominator, for the
        cost c of each variable (x_j, not its label) or artificial."""
        n, off = self.n, self.off
        shift = _ZERO  # the objective at the bounds the labels measure from
        ycost = {}
        for j, q in cost.items():
            if j < n:
                sigma, p, d = off[j]
                if p:
                    shift += q * Fraction(p, d)
                q = -q if sigma < 0 else q
            ycost[j] = q
        basic = [(ycost[b], i) for i, b in enumerate(self.basis) if ycost.get(b)]
        den = lcm(shift.denominator, *(q.denominator for q in ycost.values()),
                  *(q.denominator * self.D[i] for q, i in basic))
        obj = [0] * (len(self.cols) + 1)
        for k, c in enumerate(self.cols):
            q = ycost.get(c)
            if q:
                obj[k] = -q.numerator * (den // q.denominator)
        for q, i in basic:
            f = q.numerator * (den // (q.denominator * self.D[i]))
            for k, a in enumerate(self.T[i]):
                if a:
                    obj[k] += f * a
        obj[-1] += shift.numerator * (den // shift.denominator)
        return _reduced(obj, den)

    def _pivot(self, r: int, q: int) -> tuple[list[tuple[int, int]], int]:
        """Bring the label at position q of `cols` into the basis at row r;
        the leaving label `basis[r]` takes position q.  Returns the new row
        r as its nonzero (position, numerator) entries and its denominator,
        for `_eliminate` on an objective row."""
        row = self.T[r]
        a = row[q]
        row[q] = self.D[r]  # the leaving label's entry
        if a < 0:
            row, a = [-v for v in row], -a
        row, p = _reduced(row, a)
        T, D = self.T, self.D
        T[r], D[r] = row, p
        nz = [(k, v) for k, v in enumerate(row) if v]
        for i, other in enumerate(T):
            if i != r and other[q]:
                T[i], D[i] = _eliminate(other, D[i], q, nz, p)
        self.basis[r], self.cols[q] = self.cols[q], self.basis[r]
        return nz, p

    def _flip(self, q: int, obj: list[int], den: int) -> tuple[list[int], int]:
        """Move the nonbasic label at position q to its other bound, in every
        row and in the objective row obj over den, which is returned."""
        c = self.cols[q]
        u = self.width[c]
        T, D = self.T, self.D
        for i, row in enumerate(T):
            if row[q]:
                T[i], D[i] = _complemented(row, D[i], q, *u)
        self._turn(c)
        return _complemented(obj, den, q, *u)

    def run(self, cost: dict[int, Fraction]) -> tuple[list[int], int]:
        """Maximize; returns the optimal objective row and its denominator.
        `iterations` counts pivots and flips.  The reduced-cost row is
        maintained incrementally.  An entering label that no bound stops
        raises `SelfCheckFailed`: the system is not bounded in this
        objective."""
        obj, den = self.objective_row(cost)
        cols, basis, T, D = self.cols, self.basis, self.T, self.D
        free, fixed, width = self.free, self.fixed, self.width
        while True:
            # Bland: the smallest label that is free with a nonzero reduced
            # cost, or neither free nor fixed with a negative one
            enter = -1
            for k, (c, oj) in enumerate(zip(cols, obj)):
                if oj and (enter < 0 or c < cols[enter]) and (
                        c in free if oj > 0 else c not in fixed):
                    enter = k
            if enter < 0:
                return obj, den
            self.iterations += 1
            label = cols[enter]
            direction = 1 if obj[enter] < 0 else -1
            # Bland ratio test over the steps num / d at which the entering
            # label meets its own upper bound or a basic label meets one of
            # its bounds (at 0, the row denominator cancelling; at its width
            # u, (u D - rhs) / |entry|); free basics never stop it
            best_r = -2  # -1: the entering label's own bound
            u = width.get(label)
            if u is not None:
                best_r, (best_num, best_d), best_label, best_up = -1, u, label, False
            for i, row in enumerate(T):
                d = direction * row[enter]
                if not d:
                    continue
                b = basis[i]
                if d > 0:
                    if b in free:
                        continue
                    num, up = row[-1], False
                else:
                    w = width.get(b)
                    if w is None:
                        continue
                    num, d, up = w[0] * D[i] - w[1] * row[-1], -d * w[1], True
                if best_r != -2:
                    lhs, rhs = num * best_d, best_num * d
                    if lhs > rhs or (lhs == rhs and b > best_label):
                        continue
                best_r, best_num, best_d, best_label, best_up = i, num, d, b, up
            if best_r == -2:
                raise SelfCheckFailed(f"unbounded: no row bounds entering label {label}")
            if best_r < 0:
                obj, den = self._flip(enter, obj, den)
                continue
            if best_up:  # the leaving label goes to its upper bound
                b = basis[best_r]
                T[best_r], D[best_r] = _shifted(T[best_r], D[best_r], -1, *width[b])
                self._turn(b)
            nz, p = self._pivot(best_r, enter)
            obj, den = _eliminate(obj, den, enter, nz, p)

    def drop_artificials(self):
        """Pivot basic artificials out, then drop the artificial labels from
        `cols` and their entries from every row.

        Every row of the full tableau has a nonzero entry among the
        variable and slack columns: its slack block is the basis inverse
        times a diagonal of +-1, which is invertible.  In a row whose basic
        label is artificial, every other basic label reads 0, so that entry
        is a nonbasic label's.  So there is always a label to pivot on, and
        no row of the tableau ever reads 0 = 0.  The artificial reads 0, so
        the label entering for it stays at its bound."""
        bound = self.n + self.m
        cols = self.cols
        for i in range(self.m):
            if self.is_artificial(self.basis[i]):
                self.iterations += 1
                row = self.T[i]
                self._pivot(i, min((k for k, c in enumerate(cols) if c < bound and row[k]),
                                   key=cols.__getitem__))
        if self.art_cols:
            live = [k for k, c in enumerate(cols) if c < bound]
            self.cols = [cols[k] for k in live]
            for i, row in enumerate(self.T):
                self.T[i], self.D[i] = _reduced([row[k] for k in live] + [row[-1]], self.D[i])
            self.art_cols = []

    def primal(self) -> dict[int, Fraction]:
        """The point: each variable at its bound, plus its label's value if
        basic."""
        y = {b: i for i, b in enumerate(self.basis) if b < self.n}
        out = {}
        for j, (sigma, p, d) in enumerate(self.off):
            i = y.get(j)
            if i is None:
                if p:
                    out[j] = Fraction(p, d)
                continue
            num = p * self.D[i] + sigma * self.T[i][-1] * d
            if num:
                out[j] = Fraction(num, d * self.D[i])
        return out

    def dual_from_obj(self, obj: list[int], den: int) -> dict[RowId, Fraction]:
        """The multiplier of each row whose nonbasic label has a reduced cost
        r: a slack's row takes r; a variable's bound row takes r times its
        `_single` scale, on the side the variable sits at, or on the other
        side when r < 0, which only a fixed variable keeps.  A basic label
        and a free one (r = 0 at an optimum) give none."""
        n, m = self.n, self.m
        out = {}
        for k, c in enumerate(self.cols):
            r = obj[k]
            if not r or c >= n + m:
                continue
            if c >= n:
                out[self.row_ids[c - n]] = Fraction(r, den)
            else:
                _, d, rid, row_den = (self.hi if (self.off[c][0] < 0) != (r < 0) else self.lo)[c]
                out[rid] = Fraction(abs(r) * row_den, den * d)
        return out


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den in lowest terms; den > 0."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


def _eliminate(row: list[int], den: int, q: int, nz: list[tuple[int, int]], p: int):
    """row/den minus (row[q]/den) times the new pivot row (entries `nz` over
    p), in lowest terms, after a pivot at position q: the entering label
    there reads 1 in the pivot row, and the leaving label that takes its
    place read 0 in row.  Over the common denominator den * p this is
    row * p - row[q] * pivot, with row[q] itself replaced by 0; dividing
    both factors by gcd(p, row[q]) first keeps the numbers small.  The
    result may reuse `row`, never the pivot row."""
    f = row[q]
    g = gcd(p, f)
    ps, fs = p // g, f // g
    if ps != 1:
        row = [a * ps for a in row]
    row[q] = 0
    for k, a in nz:
        row[k] -= fs * a
    return _reduced(row, den * ps)


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms; den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def _complemented(row: list[int], den: int, q: int, p: int, s: int) -> tuple[list[int], int]:
    """row / den with the nonbasic label y at position q replaced by u - y'
    (u = p / s, s > 0): its entry negated and the rhs less entry times u,
    in lowest terms."""
    a = row[q]
    row = [v * s for v in row] if s != 1 else list(row)
    row[q] = -row[q]
    row[-1] -= a * p
    return _reduced(row, den * s)


def _shifted(row: list[int], den: int, sign: int, p: int, s: int) -> tuple[list[int], int]:
    """row / den of a basic label y, rewritten for the label y' = sign y +
    p / s (sign +-1, s > 0): den y' + sign T y_N = sign rhs + den p / s, in
    lowest terms."""
    out = [sign * s * v for v in row]
    out[-1] += p * den
    return _reduced(out, den * s)


def _phase1(sys: NormalizedSystem) -> tuple[_Tableau, LpOutcome | None]:
    """Drive the artificials of a fresh tableau to zero.  The outcome is
    INFEASIBLE (with its self-checked Farkas vector, at once when two
    bounds contradict) when phase 1 decides the LP, None when the tableau
    is feasible."""
    tab = _Tableau(sys)
    if tab.conflict is not None:
        lam = tab.red.lift_dual(tab.conflict, {}, sys)
        _check_farkas(sys, lam)
        return tab, LpOutcome(INFEASIBLE, dual=lam)
    if not tab.art_cols:
        return tab, None
    obj, den = tab.run({j: Fraction(-1) for j in tab.art_cols})
    if obj[-1] < 0:
        lam = tab.red.lift_dual(tab.dual_from_obj(obj, den), {}, sys)
        _check_farkas(sys, lam)
        return tab, LpOutcome(INFEASIBLE, dual=lam, iterations=tab.iterations)
    return tab, None


def lp_max(sys: NormalizedSystem, g: dict[int, Fraction],
           warm: _Tableau | None = None) -> LpOutcome:
    """Maximize g^T v over the system, which must bound it (an unbounded
    direction raises `SelfCheckFailed`); deterministic (Bland's rule).
    `warm`, the `tableau` of an earlier OPTIMAL outcome, is reused in place
    when it records this very system object (identity, not equality): phase
    2 runs from its basis, and `iterations` counts this LP's steps alone.
    Any other `warm` is ignored and the LP starts cold."""
    g = {j: Fraction(q) for j, q in g.items() if q != 0}
    if warm is not None and warm.sys is sys:
        tab = warm
        tab.iterations = 0
    else:
        tab, out = _phase1(sys)
        if out is not None:
            return out
        tab.drop_artificials()
    red = tab.red
    cost, const = red.objective(g)
    obj, den = tab.run(cost)
    val = Fraction(obj[-1], den) + const
    point = red.lift(tab.primal())
    lam = red.lift_dual(tab.dual_from_obj(obj, den), g, sys)
    _check_holds(sys, point)
    _check_dual(sys, g, lam, val)
    gv = sum((q * point.get(j, _ZERO) for j, q in g.items()), _ZERO)
    if gv != val:
        raise SelfCheckFailed("primal/dual objective mismatch")
    return LpOutcome(OPTIMAL, value=val, primal=point, dual=lam, iterations=tab.iterations,
                     tableau=tab)


def lp_min(sys: NormalizedSystem, g: dict[int, Fraction],
           warm: _Tableau | None = None) -> LpOutcome:
    """Minimize g^T v.  The returned dual certifies -g^T v <= -value."""
    out = lp_max(sys, {j: -q for j, q in g.items()}, warm)
    if out.status == OPTIMAL:
        out.value = -out.value
    return out


def lp_feasible(sys: NormalizedSystem) -> LpOutcome:
    """Phase-1 feasibility: Feasible(point) or Infeasible(Farkas lambda)."""
    tab, out = _phase1(sys)
    if out is not None:
        return out
    point = tab.red.lift(tab.primal())
    _check_holds(sys, point)
    return LpOutcome(FEASIBLE, primal=point, iterations=tab.iterations)
