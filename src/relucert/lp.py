"""Exact rational LP over A v <= b with free variables v.

Two-phase primal simplex with Bland's rule, dense tableau of Fractions.
Optimal outcomes carry a dual vector with lambda^T A = g^T and
lambda^T b = value; infeasible outcomes carry a Farkas vector with
lambda^T A = 0 and lambda^T b < 0.  Both are re-verified with the exact
checkers of `certs` before returning (the one place LP results are
self-checked); a failure raises `SelfCheckFailed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certs import FarkasCertificate, _combine, check_farkas
from .store import NormalizedSystem, RowId

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FEASIBLE = "feasible"
LIMIT = "limit"

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_ITERS = 50_000


@dataclass
class LpOutcome:
    status: str
    value: Fraction | None = None
    primal: dict[int, Fraction] | None = None
    dual: dict[RowId, Fraction] | None = None
    ray: dict[int, Fraction] | None = None
    iterations: int = 0


class _Tableau:
    """Gauss-Jordan simplex tableau.

    Columns: 0..N-1 original free variables, N..N+m-1 slacks, then
    artificials.  Rows whose rhs is negative start with an artificial basic
    (column -e_i), so the initial tableau row is negated to expose identity
    basis columns.
    """

    def __init__(self, sys: NormalizedSystem):
        self.n = sys.n_vars
        self.m = len(sys.rows)
        self.row_ids = [r.rid for r in sys.rows]
        n, m = self.n, self.m
        self.art_cols: list[int] = []
        rows = []
        basis = []
        for i, r in enumerate(sys.rows):
            dense = [_ZERO] * (n + m)
            for j, q in r.row.items():
                dense[j] = q
            dense[n + i] = _ONE
            rhs = r.rhs
            if rhs < 0:
                dense = [-q for q in dense]
                rhs = -rhs
                art = n + m + len(self.art_cols)
                self.art_cols.append(art)
                basis.append(art)
            else:
                basis.append(n + i)
            rows.append((dense, rhs))
        na = len(self.art_cols)
        self.ncols = n + m + na
        self.T: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        k = 0
        for i, (dense, rhs) in enumerate(rows):
            dense = dense + [_ZERO] * na
            if basis[i] >= n + m:
                dense[basis[i]] = _ONE
            self.T.append(dense)
            self.rhs.append(rhs)
        self.basis = basis
        self.iterations = 0

    def is_free(self, j: int) -> bool:
        return j < self.n

    def is_artificial(self, j: int) -> bool:
        return j >= self.n + self.m

    def objective_row(self, cost):
        """objrow[j] = z_j - c_j and current objective value, for cost c."""
        obj = [-cost(j) for j in range(self.ncols)]
        val = _ZERO
        for i, b in enumerate(self.basis):
            cb = cost(b)
            if cb == 0:
                continue
            row = self.T[i]
            for j in range(self.ncols):
                if row[j] != 0:
                    obj[j] += cb * row[j]
            val += cb * self.rhs[i]
        return obj, val

    def _pivot(self, r: int, j: int):
        piv = self.T[r][j]
        inv = _ONE / piv
        row = self.T[r] = [q * inv for q in self.T[r]]
        self.rhs[r] *= inv
        for i in range(self.m):
            if i == r:
                continue
            f = self.T[i][j]
            if f == 0:
                continue
            ti = self.T[i]
            for k in range(self.ncols):
                if row[k] != 0:
                    ti[k] -= f * row[k]
            self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = j

    def run(self, cost, max_iters: int, forbid_artificials: bool):
        """Maximize; returns ("optimal", objrow, val) | ("unbounded", col, dir)
        | ("limit",).  The reduced-cost row is maintained incrementally."""
        obj, val = self.objective_row(cost)
        while True:
            enter = -1
            direction = 1
            for j in range(self.ncols):
                if self.is_artificial(j) and forbid_artificials:
                    continue
                oj = obj[j]
                if self.is_free(j):
                    if oj != 0:
                        enter, direction = j, (1 if oj < 0 else -1)
                        break
                elif oj < 0:
                    enter, direction = j, 1
                    break
            if enter < 0:
                return ("optimal", obj, val)
            if self.iterations >= max_iters:
                return ("limit",)
            self.iterations += 1
            # Bland ratio test; free basics never block
            best_r = -1
            best_ratio = None
            for i in range(self.m):
                if self.is_free(self.basis[i]):
                    continue
                d = direction * self.T[i][enter]
                if d > 0:
                    ratio = self.rhs[i] / d
                    if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and self.basis[i] < self.basis[best_r]
                    ):
                        best_r, best_ratio = i, ratio
            if best_r < 0:
                return ("unbounded", enter, direction)
            self._pivot(best_r, enter)
            f = obj[enter]
            if f != 0:
                row = self.T[best_r]
                for k in range(self.ncols):
                    if row[k] != 0:
                        obj[k] -= f * row[k]
                val -= f * self.rhs[best_r]

    def drop_artificials(self, max_iters: int) -> bool:
        """Pivot basic artificials out; delete redundant rows.  False on limit."""
        i = 0
        while i < self.m:
            if self.is_artificial(self.basis[i]):
                pivot_col = -1
                for j in range(self.n + self.m):
                    if self.T[i][j] != 0:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    if self.iterations >= max_iters:
                        return False
                    self.iterations += 1
                    self._pivot(i, pivot_col)
                else:
                    # redundant 0 = 0 row
                    del self.T[i], self.rhs[i], self.basis[i]
                    self.m -= 1
                    continue
            i += 1
        return True

    def primal(self) -> dict[int, Fraction]:
        v = {}
        for i, b in enumerate(self.basis):
            if b < self.n and self.rhs[i] != 0:
                v[b] = self.rhs[i]
        return v

    def dual_from_obj(self, obj) -> dict[RowId, Fraction]:
        lam = {}
        for i, rid in enumerate(self.row_ids):
            q = obj[self.n + i]
            if q != 0:
                lam[rid] = q
        return lam

    def ray(self, enter: int, direction: int) -> dict[int, Fraction]:
        r: dict[int, Fraction] = {}
        if enter < self.n:
            r[enter] = Fraction(direction)
        for i, b in enumerate(self.basis):
            if b < self.n:
                delta = -direction * self.T[i][enter]
                if delta != 0:
                    r[b] = r.get(b, _ZERO) + delta
        return {j: q for j, q in r.items() if q != 0}


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


def _check_primal(sys: NormalizedSystem, point: dict[int, Fraction]):
    for r in sys.rows:
        lhs = sum((q * point.get(j, _ZERO) for j, q in r.row.items()), _ZERO)
        if lhs > r.rhs:
            raise SelfCheckFailed(f"primal point violates row {r.rid}")


def lp_max(sys: NormalizedSystem, g: dict[int, Fraction],
           max_iters: int = DEFAULT_MAX_ITERS) -> LpOutcome:
    """Maximize g^T v over the system; deterministic (Bland's rule)."""
    g = {j: Fraction(q) for j, q in g.items() if q != 0}
    tab = _Tableau(sys)
    if tab.art_cols:
        art = set(tab.art_cols)
        res = tab.run(lambda j: Fraction(-1) if j in art else _ZERO, max_iters, False)
        if res[0] == "limit":
            return LpOutcome(LIMIT, iterations=tab.iterations)
        if res[0] != "optimal":
            raise SelfCheckFailed("phase 1 cannot be unbounded")
        _, obj, val = res
        if val < 0:
            lam = tab.dual_from_obj(obj)
            _self_check_farkas(sys, lam)
            return LpOutcome(INFEASIBLE, dual=lam, iterations=tab.iterations)
        if not tab.drop_artificials(max_iters):
            return LpOutcome(LIMIT, iterations=tab.iterations)
    res = tab.run(lambda j: g.get(j, _ZERO) if j < tab.n else _ZERO, max_iters, True)
    if res[0] == "limit":
        return LpOutcome(LIMIT, iterations=tab.iterations)
    if res[0] == "unbounded":
        _, enter, direction = res
        ray = tab.ray(enter, direction)
        gain = sum((q * ray.get(j, _ZERO) for j, q in g.items()), _ZERO)
        if gain <= 0:
            raise SelfCheckFailed("unbounded ray does not improve the objective")
        return LpOutcome(UNBOUNDED, ray=ray, iterations=tab.iterations)
    _, obj, val = res
    point = tab.primal()
    lam = tab.dual_from_obj(obj)
    _check_primal(sys, point)
    _self_check_dual(sys, g, lam, val)
    gv = sum((q * point.get(j, _ZERO) for j, q in g.items()), _ZERO)
    if gv != val:
        raise SelfCheckFailed("primal/dual objective mismatch")
    return LpOutcome(OPTIMAL, value=val, primal=point, dual=lam, iterations=tab.iterations)


def lp_min(sys: NormalizedSystem, g: dict[int, Fraction],
           max_iters: int = DEFAULT_MAX_ITERS) -> LpOutcome:
    """Minimize g^T v.  The returned dual certifies -g^T v <= -value."""
    out = lp_max(sys, {j: -q for j, q in g.items()}, max_iters)
    if out.status == OPTIMAL:
        out.value = -out.value
    return out


def lp_feasible(sys: NormalizedSystem, max_iters: int = DEFAULT_MAX_ITERS) -> LpOutcome:
    """Phase-1 feasibility: Feasible(point) or Infeasible(Farkas lambda)."""
    tab = _Tableau(sys)
    if tab.art_cols:
        art = set(tab.art_cols)
        res = tab.run(lambda j: Fraction(-1) if j in art else _ZERO, max_iters, False)
        if res[0] == "limit":
            return LpOutcome(LIMIT, iterations=tab.iterations)
        if res[0] != "optimal":
            raise SelfCheckFailed("phase 1 cannot be unbounded")
        _, obj, val = res
        if val < 0:
            lam = tab.dual_from_obj(obj)
            _self_check_farkas(sys, lam)
            return LpOutcome(INFEASIBLE, dual=lam, iterations=tab.iterations)
    point = tab.primal()
    _check_primal(sys, point)
    return LpOutcome(FEASIBLE, primal=point, iterations=tab.iterations)
