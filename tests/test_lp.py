import hashlib
import itertools
import math
import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

from conftest import WORKED, norm_row, rand_rational, rational_row
from relucert import certs, lp
from relucert.model import parse_problem
from relucert.rows import NormalizedSystem
from relucert.search import Config, hsrv_verify, icl_verify

ZERO = F(0)


def _system(rows):
    """rows: list of (coef dict, rhs); ids assigned positionally."""
    n = max((j for row, _ in rows for j in row), default=-1) + 1
    return NormalizedSystem(
        [norm_row(dict(row), F(rhs), ("c", i, "le")) for i, (row, rhs) in enumerate(rows)], n)


def _boxed_random_system(rng, n_extra=4, max_den=4):
    """Random inequalities on top of a full box, so the polytope is bounded
    (and any nonempty instance has a vertex the oracle can find)."""
    n = rng.randint(1, 3)
    rows = []
    for j in range(n):
        lo = rand_rational(rng, max_den)
        hi = lo + abs(rand_rational(rng, max_den))
        rows.append(({j: F(1)}, hi))
        rows.append(({j: F(-1)}, -lo))
    for _ in range(rng.randint(0, n_extra)):
        row = {j: rand_rational(rng, max_den) for j in range(n)}
        row = {j: q for j, q in row.items() if q != 0}
        if not row:
            continue
        rows.append((row, rand_rational(rng, max_den)))
    g = {j: rand_rational(rng, max_den) for j in range(n)}
    return _system(rows), {j: q for j, q in g.items() if q != 0}


def _solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rhs)
    M = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = F(1) / M[col][col]
        M[col] = [q * inv for q in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _vertices(sys):
    """Exhaustive vertex enumeration: every feasible basic point."""
    n = sys.n_vars
    dense = [([rational_row(r)[0].get(j, ZERO) for j in range(n)], r.rhs) for r in sys.rows]
    for combo in itertools.combinations(range(len(dense)), n):
        v = _solve_square([dense[i][0] for i in combo], [dense[i][1] for i in combo])
        if v is not None and all(sum(a * x for a, x in zip(row, v)) <= rhs
                                 for row, rhs in dense):
            yield v


def _vertex_oracle(sys, g, vertices=None):
    """Best g^T v over all feasible basic points (`_vertices`, or those
    given).  Sound for bounded polytopes (box rows present)."""
    best = None
    arg = None
    for v in _vertices(sys) if vertices is None else vertices:
        val = sum(g.get(j, ZERO) * x for j, x in enumerate(v))
        if best is None or val > best:
            best, arg = val, v
    return best, arg


#: the bound cases of `_bound_variants`
BOUND_CASES = ("fixed", "repeated", "scaled", "one-sided", "free", "contradictory")


def _bound_variants(rng, sys):
    """(case, system) for each bound case of the simplex: `sys`, a
    `_boxed_random_system` (or an `_equality_system` built on one), with the
    box rows of one variable x_j, ("c", 2j, "le") x_j <= hi and
    ("c", 2j + 1, "le") -x_j <= -lo, rewritten in place:

    - fixed: x_j <= lo in place of x_j <= hi, a zero-width box;
    - repeated: each box row with an exact tie (2 x_j <= 2 hi before it, a
      copy of -x_j <= -lo after it) and a dominated row (x_j <= hi + 1,
      x_j >= lo - 1);
    - scaled: a x_j <= a hi and -(5/7) a x_j <= -(5/7) a lo, a a fraction;
    - one-sided: x_j >= lo replaced by a two-variable row, so x_j has an
      upper bound alone;
    - free: both replaced by two-variable rows, so x_j has no bound, and
      the rows still bound it through another variable x_k;
    - contradictory: x_j >= hi + 1/2 added after x_j <= hi.

    The polytope stays bounded, so the vertex oracle applies.  one-sided
    and free need a second variable."""
    n = sys.n_vars
    j = rng.randrange(n)
    k = (j + 1) % n
    up, down = ("c", 2 * j, "le"), ("c", 2 * j + 1, "le")
    hi, lo = sys.resolve(up).rhs, -sys.resolve(down).rhs
    k_hi, k_lo = sys.resolve(("c", 2 * k, "le")).rhs, -sys.resolve(("c", 2 * k + 1, "le")).rhs
    a = F(rng.randint(1, 9), rng.randint(2, 9))
    new = iter(itertools.count(300))

    def row(coeffs, rhs):
        return norm_row({v: F(q) for v, q in coeffs.items()}, F(rhs), ("c", next(new), "le"))

    def replaced(by):
        return NormalizedSystem([r for old in sys.rows for r in by.get(old.rid, [old])], n)

    yield "fixed", replaced({up: [row({j: 1}, lo)]})
    yield "repeated", replaced({
        up: [row({j: 2}, 2 * hi), sys.resolve(up), row({j: 1}, hi + 1)],
        down: [sys.resolve(down), row({j: -1}, -lo), row({j: -1}, 1 - lo)]})
    yield "scaled", replaced({up: [row({j: a}, a * hi)],
                              down: [row({j: -a * F(5, 7)}, -a * F(5, 7) * lo)]})
    if n > 1:
        yield "one-sided", replaced({down: [row({j: -1, k: 1}, k_hi - lo)]})
        yield "free", replaced({up: [row({j: 1, k: -1}, hi - k_lo)],
                                down: [row({j: -1, k: 1}, k_hi - lo)]})
    yield "contradictory", replaced({up: [sys.resolve(up), row({j: -1}, -hi - F(1, 2))]})


def _assert_bound_case(sys, g):
    """`sys` solved in both senses and by phase 1: statuses and values
    those of the vertex oracle, every certificate accepted by the exact
    checkers of `certs`, and no multiplier on an implied row (a
    single-variable row that is not its variable's bound).  Then the
    warm start of a TGCT call on x_j, a variable the reduction keeps:
    maximize x_j, then g over the same system from that tableau, which is
    kept and gives the cold solve's status and value, with a certificate
    the checkers accept; the TGCT step's new system (x_j <= that maximum
    appended, x_j's upper bound row retired) starts cold from it.  The
    warm start needs a feasible system and a kept variable."""
    vertices = list(_vertices(sys))
    want, _ = _vertex_oracle(sys, g, vertices)
    low, _ = _vertex_oracle(sys, {j: -q for j, q in g.items()}, vertices)
    outs = {"max": lp.lp_max(sys, g), "min": lp.lp_min(sys, g), "feasible": lp.lp_feasible(sys)}
    if want is None:
        assert {out.status for out in outs.values()} == {lp.INFEASIBLE}
    else:
        assert (outs["max"].status, outs["min"].status, outs["feasible"].status) == (
            lp.OPTIMAL, lp.OPTIMAL, lp.FEASIBLE)
        assert (outs["max"].value, outs["min"].value) == (want, -low)
    tab = lp._Tableau(sys)
    bounds = {b[2] for b in tab.lo + tab.hi if b}
    implied = {r.rid for r in sys.rows} - tab.red.removed - set(tab.row_ids) - bounds
    for sense, out in outs.items():
        _assert_certified(sys, g, out, sense)
        assert not implied & set(out.dual or ())
    if want is None or not tab.red.keep:
        return
    j = tab.red.keep[0]
    first = lp.lp_max(sys, {j: F(1)})
    upper = tab.hi[0]  # x_j is the reduced LP's variable 0
    rows = [r for r in sys.rows if upper is None or r.rid != upper[2]]
    step = NormalizedSystem(rows + [norm_row({j: F(1)}, first.value, ("c", 400, "le"))],
                            sys.n_vars)
    moved = lp.lp_max(step, g, warm=first.tableau)
    assert moved.tableau is not first.tableau
    assert _outcome_key(moved) == _outcome_key(lp.lp_max(step, g))
    warm = lp.lp_max(sys, g, warm=first.tableau)
    assert warm.tableau is first.tableau
    assert (warm.status, warm.value) == (outs["max"].status, outs["max"].value) == (
        lp.OPTIMAL, want)
    _assert_certified(sys, g, warm, "max")


class TestAgainstVertexEnumeration:
    def test_lp_max_matches_oracle_on_random_boxed_systems(self):
        # system k also with one variable's box rows rewritten into bound
        # case k mod 6 (`_bound_variants`, from its own generator)
        rng, variants = random.Random(42), random.Random(142)
        optima = infeasible = 0
        cases = set()
        for k in range(60):
            sys, g = _boxed_random_system(rng)
            want, _ = _vertex_oracle(sys, g)
            out = lp.lp_max(sys, g)
            if want is None:
                assert out.status == lp.INFEASIBLE
                infeasible += 1
            else:
                assert out.status == lp.OPTIMAL
                assert out.value == want
                optima += 1
            for case, variant in _bound_variants(variants, sys):
                if case == BOUND_CASES[k % len(BOUND_CASES)]:
                    _assert_bound_case(variant, g)
                    cases.add(case)
        assert optima >= 20  # the suite must actually exercise the optimum path
        assert infeasible >= 1
        assert cases == set(BOUND_CASES)

    def test_lp_min_is_negated_lp_max(self):
        rng = random.Random(43)
        for _ in range(20):
            sys, g = _boxed_random_system(rng)
            lo = lp.lp_min(sys, g)
            hi = lp.lp_max(sys, {j: -q for j, q in g.items()})
            assert lo.status == hi.status
            if lo.status == lp.OPTIMAL:
                assert lo.value == -hi.value

    def test_feasibility_matches_oracle(self):
        rng = random.Random(44)
        for _ in range(40):
            sys, g = _boxed_random_system(rng)
            want, _ = _vertex_oracle(sys, g)
            out = lp.lp_feasible(sys)
            assert out.status == (lp.FEASIBLE if want is not None else lp.INFEASIBLE)


class TestCertificates:
    def test_optimal_dual_reproduces_objective_and_value(self):
        rng = random.Random(45)
        for _ in range(25):
            sys, g = _boxed_random_system(rng)
            out = lp.lp_max(sys, g)
            if out.status != lp.OPTIMAL:
                continue
            combo = {}
            rhs = ZERO
            for rid, q in out.dual.items():
                assert q >= 0
                row = sys.resolve(rid)
                for j, a in rational_row(row)[0].items():
                    combo[j] = combo.get(j, ZERO) + q * a
                rhs += q * row.rhs
            assert {j: v for j, v in combo.items() if v != 0} == g
            assert rhs == out.value

    def test_farkas_vector_refutes_the_system(self):
        sys = _system([({0: F(1)}, 1), ({0: F(-1)}, -2)])  # x <= 1 and x >= 2
        out = lp.lp_feasible(sys)
        assert out.status == lp.INFEASIBLE
        combo = {}
        rhs = ZERO
        for rid, q in out.dual.items():
            assert q >= 0
            row = sys.resolve(rid)
            for j, a in rational_row(row)[0].items():
                combo[j] = combo.get(j, ZERO) + q * a
            rhs += q * row.rhs
        assert not {j: v for j, v in combo.items() if v != 0}
        assert rhs < 0

    def test_primal_point_is_feasible_and_attains_value(self):
        sys = _system([({0: F(1), 1: F(1)}, 2), ({0: F(-1)}, 0), ({1: F(-1)}, 0)])
        out = lp.lp_max(sys, {0: F(1), 1: F(2)})
        assert out.status == lp.OPTIMAL and out.value == F(4)
        assert out.primal.get(1, ZERO) == F(2)


#: LPs over x >= 0 on which the simplex method cycles when the largest
#: reduced cost enters: (rows, objective, maximum, optimal point, the
#: iterations Bland's rule takes); Beale 1955, and Chvatal, Linear
#: Programming, 1983, ch. 3
_CYCLING = {
    "beale": ([({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, 0),
               ({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, 0),
               ({2: F(1)}, 1)],
              {0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)}, F(1, 20), (F(1, 25), 0, 1, 0), 6),
    "chvatal": ([({0: F(1, 2), 1: F(-11, 2), 2: F(-5, 2), 3: F(9)}, 0),
                 ({0: F(1, 2), 1: F(-3, 2), 2: F(-1, 2), 3: F(1)}, 0),
                 ({0: F(1)}, 1)],
                {0: F(10), 1: F(-57), 2: F(-9), 3: F(-24)}, F(1), (1, 0, 1, 0), 7),
}


class TestEdgeCases:
    def test_unbounded_direction_is_a_fault(self):
        # x >= 0: maximizing x (minimizing -x) breaks the engine's bounded
        # precondition, and finding a point does not
        sys = _system([({0: F(-1)}, 0)])
        for solve, g in ((lp.lp_max, {0: F(1)}), (lp.lp_min, {0: F(-1)})):
            with pytest.raises(lp.SelfCheckFailed, match="no row bounds entering label 0"):
                solve(sys, g)
        assert lp.lp_feasible(sys).status == lp.FEASIBLE

    def test_free_variable_reaches_negative_optimum(self):
        sys = _system([({0: F(1)}, -3)])  # x <= -3, maximize x
        out = lp.lp_max(sys, {0: F(1)})
        assert out.status == lp.OPTIMAL and out.value == F(-3)

    def test_degenerate_equalities_terminate(self):
        # x = 1 encoded as adjacent pair plus a redundant copy
        sys = _system([({0: F(1)}, 1), ({0: F(-1)}, -1), ({0: F(2)}, 2)])
        out = lp.lp_max(sys, {0: F(5)})
        assert out.status == lp.OPTIMAL and out.value == F(5)

    @pytest.mark.parametrize("name", sorted(_CYCLING))
    def test_cycling_example_ends_at_its_optimum(self, name):
        # with no pivot cap, these stand as the evidence that every LP ends
        rows, g, value, point, pivots = _CYCLING[name]
        sys = _system(rows + [({j: F(-1)}, 0) for j in range(4)])
        out = lp.lp_max(sys, g)
        assert (out.status, out.value, out.iterations) == (lp.OPTIMAL, value, pivots)
        assert tuple(out.primal.get(j, ZERO) for j in range(4)) == point
        cert = certs.DualBoundCertificate(tuple(g.items()), value, tuple(out.dual.items()))
        assert certs.check_dual_exact(sys, cert).ok

    def test_deterministic_across_runs(self):
        rng = random.Random(47)
        sys, g = _boxed_random_system(rng)
        a = lp.lp_max(sys, g)
        b = lp.lp_max(sys, g)
        assert (a.status, a.value, a.primal, a.dual) == (b.status, b.value, b.primal, b.dual)


class TestSelfCheck:
    """The engine re-checks its own certificates with explicit exceptions,
    which `python -O` keeps."""

    def test_bad_farkas_vector_raises(self):
        sys = _system([({0: F(1)}, 1)])
        with pytest.raises(lp.SelfCheckFailed):
            lp._check_farkas(sys, {("c", 0, "le"): F(1)})  # lambda^T A != 0

    def test_dual_bound_must_equal_the_optimum(self):
        sys = _system([({0: F(1)}, 1)])
        lp._check_dual(sys, {0: F(1)}, {("c", 0, "le"): F(1)}, F(1))
        with pytest.raises(lp.SelfCheckFailed):
            lp._check_dual(sys, {0: F(1)}, {("c", 0, "le"): F(1)}, F(2))
        with pytest.raises(lp.SelfCheckFailed):
            lp._check_dual(sys, {0: F(-1)}, {("c", 0, "le"): F(-1)}, F(-1))

    def test_primal_point_off_a_row_by_the_least_amount_raises(self):
        # 3x - y/7 <= 2/5 and y <= 1, with y = 1/3: the first row holds with
        # equality at x = 47/315 and fails for x only 1/10**40 larger
        sys = _system([({0: F(3), 1: F(-1, 7)}, F(2, 5)), ({1: F(1)}, 1)])
        lp._check_holds(sys, {0: F(1, 7), 1: F(1, 3)})
        x_on = (F(2, 5) + F(1, 21)) / 3
        assert x_on == F(47, 315)
        lp._check_holds(sys, {0: x_on, 1: F(1, 3)})
        with pytest.raises(lp.SelfCheckFailed, match="violates row"):
            lp._check_holds(sys, {0: x_on + F(1, 10**40), 1: F(1, 3)})

    def test_multiplier_off_by_the_least_amount_raises(self):
        # x + y = 1 with x <= 3/4 and y >= 0: maximize x - y at (3/4, 1/4),
        # certified by 2 on x <= 3/4 and 1 on the equality's "ge" row; with
        # y >= 1/3 and x >= 1 instead, the system is infeasible
        eq = [norm_row({0: F(1), 1: F(1)}, F(1), ("c", 0, "le")),
              norm_row({0: F(-1), 1: F(-1)}, F(-1), ("c", 0, "ge"))]
        sys = NormalizedSystem(eq + [norm_row({0: F(1)}, F(3, 4), ("c", 1, "le")),
                                     norm_row({1: F(-1)}, ZERO, ("c", 2, "le"))], 2)
        g = {0: F(1), 1: F(-1)}
        out = lp.lp_max(sys, g)
        assert out.dual == {("c", 0, "ge"): F(1), ("c", 1, "le"): F(2)}
        infeasible = NormalizedSystem(eq + [norm_row({0: F(-1)}, F(-1), ("c", 1, "le")),
                                            norm_row({1: F(-1)}, F(-1, 3), ("c", 2, "le"))], 2)
        farkas = lp.lp_feasible(infeasible).dual
        assert len(farkas) == 3
        cases = [(partial(lp._check_dual, sys), (g,), out.dual, (out.value,)),
                 (partial(lp._check_farkas, infeasible), (), farkas, ())]
        for check, before, lam, after in cases:
            check(*before, lam, *after)
            for rid in lam:
                for step in (F(1, 10**40), -F(1, 10**40)):
                    moved = dict(lam)
                    moved[rid] += step
                    with pytest.raises(lp.SelfCheckFailed):
                        check(*before, moved, *after)

    def _reject_in_certs(self, monkeypatch):
        def reject(*_):
            return certs.CheckResult(False, "rejected in certs")
        monkeypatch.setattr(certs, "check_farkas", reject)
        monkeypatch.setattr(certs, "check_dual", reject)

    def test_farkas_vector_is_checked_by_certs(self, monkeypatch):
        # x <= -1 and -x <= 0: infeasible, and its Farkas vector goes to
        # certs.check_farkas
        infeasible = _system([({0: F(1)}, -1), ({0: F(-1)}, 0)])
        assert lp.lp_feasible(infeasible).status == lp.INFEASIBLE
        self._reject_in_certs(monkeypatch)
        with pytest.raises(lp.SelfCheckFailed, match="rejected in certs"):
            lp.lp_feasible(infeasible)

    def test_dual_vector_is_checked_by_certs(self, monkeypatch):
        bounded = _system([({0: F(1)}, 1), ({0: F(-1)}, 0)])
        assert lp.lp_max(bounded, {0: F(1)}).value == 1
        self._reject_in_certs(monkeypatch)
        with pytest.raises(lp.SelfCheckFailed, match="rejected in certs"):
            lp.lp_max(bounded, {0: F(1)})

    def test_primal_point_on_a_row_boundary_passes(self):
        # x + y <= 1 and -x <= -1/3 hold with equality at (1/3, 2/3); an
        # absent coordinate is zero, and 0 <= 0 holds too
        sys = _system([({0: F(1), 1: F(1)}, 1), ({0: F(-1)}, F(-1, 3)),
                       ({2: F(5, 3)}, 0)])
        lp._check_holds(sys, {0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(lp.SelfCheckFailed, match="violates row"):
            lp._check_holds(sys, {0: F(1, 3), 1: F(2, 3), 2: F(1, 10**40)})


#: the pivot-path key of a solve that raised the unbounded-direction fault
_FAULT = "fault: unbounded"


def _outcome_key(out):
    """The outcome's fields as one string; `_FAULT` for None, a solve that
    met an unbounded direction (`_corpus_solves`)."""
    if out is None:
        return _FAULT

    def items(d):
        return None if d is None else sorted(d.items())
    return repr((out.status, out.value, items(out.primal), items(out.dual),
                 items(out.ray), out.iterations))


def _corpus_solves(sys, g):
    """`lp_max`, `lp_min` and `lp_feasible` of the system, each outcome or
    None where the solve met an unbounded direction."""
    for solve, args in ((lp.lp_max, (g,)), (lp.lp_min, (g,)), (lp.lp_feasible, ())):
        try:
            yield solve(sys, *args)
        except lp.SelfCheckFailed as exc:
            if "no row bounds" not in str(exc):
                raise
            yield None


class TestPivotPath:
    """The simplex's pivot path, pinned: status, value, primal point, dual
    or Farkas vector and pivot count over a seeded corpus hash to a
    constant.  A change of arithmetic that keeps every sign and ratio exact
    keeps this hash.  Each boxed system is also solved without its box
    rows, which reaches the unbounded fault, hashed as `_FAULT`.  Re-pinned
    when single-variable rows became bounds: every status and value is the
    all-rows tableau's, and only iteration counts and the multipliers of
    degenerate optima moved."""

    PINNED = "a1c712af45944213c8ed36f3ec0926b049e5d58d1ecf070c3ba0dc0c158bc373"

    def _digest(self):
        rng = random.Random(20240824)
        h = hashlib.sha256()
        for k in range(150):
            boxed, g = _boxed_random_system(rng, n_extra=2 + k % 6, max_den=2 + k % 7)
            open_ = NormalizedSystem(boxed.rows[2 * boxed.n_vars:], boxed.n_vars)
            for sys in (boxed, open_):
                for out in _corpus_solves(sys, g):
                    h.update(_outcome_key(out).encode())
                    h.update(b"\n")
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_pivot_path(self):
        assert self._digest() == self.PINNED


def _assert_tableau_invariants(tab, phase2):
    """Positive row denominators, rows in lowest terms and one entry per
    nonbasic label plus the rhs wide; the nonbasic and basic labels
    disjoint and together the live ones (variables, slacks and, in phase
    1, artificials); in phase 2 no artificial label is left.  Every basic
    label but a free variable's lies within its bounds, 0 <= rhs / D <=
    its width."""
    assert len(tab.T) == len(tab.D) == len(tab.basis) == tab.m == len(tab.row_ids)
    if phase2:
        assert not tab.art_cols
    live = [*range(tab.n + tab.m), *tab.art_cols]
    assert sorted(tab.cols + tab.basis) == live
    for row, den, b in zip(tab.T, tab.D, tab.basis):
        assert len(row) == len(tab.cols) + 1
        assert den > 0 and math.gcd(den, *row) == 1
        if b not in tab.free:
            assert row[-1] >= 0
            if b in tab.width:
                wn, wd = tab.width[b]
                assert row[-1] * wd <= wn * den


#: x + y >= 1 (row 0) and x + y <= 1 (row 1) with 0 <= y <= 2: labels x 0,
#: y 1, the slacks 2 and 3, and row 0's artificial 4
_TIED = [({0: F(-1), 1: F(-1)}, -1), ({0: F(1), 1: F(1)}, 1), ({1: F(-1)}, 0), ({1: F(1)}, 2)]


class TestIntegerTableau:
    """Edge cases of the integer-row tableau."""

    def test_ratio_tie_leaves_by_smaller_basic_index(self, monkeypatch):
        # x, free, enters phase 1 first; row 0 (artificial basic, label 4)
        # and row 1 (slack basic, label 3) both stop it at ratio 1; the
        # slack has the smaller label and leaves although its row comes
        # second
        tab = lp._Tableau(_system(_TIED))
        assert tab.basis == [4, 3]
        pivot = lp._Tableau._pivot
        first = []  # (iterations, basis) after the first pivot

        def recording(tab, r, q):
            res = pivot(tab, r, q)
            if not first:
                first.append((tab.iterations, list(tab.basis)))
            return res

        monkeypatch.setattr(lp._Tableau, "_pivot", recording)
        tab.run({4: F(-1)})
        assert first == [(1, [4, 0])]

    def test_ratio_tie_with_the_entering_labels_own_bound_flips_it(self):
        # 0 <= x <= 1 and 0 <= y, with x + y <= 1: x enters, and its own
        # bound and the row's slack (label 2) stop it at 1; x has the
        # smaller label, so it moves to its upper bound with no pivot
        tab = lp._Tableau(_system([({0: F(1)}, 1), ({0: F(-1)}, 0), ({1: F(-1)}, 0),
                                   ({0: F(1), 1: F(1)}, 1)]))
        assert (tab.basis, tab.off[0]) == ([2], (1, 0, 1))
        obj, den = tab.run({0: F(1)})
        assert (tab.iterations, tab.basis, tab.off[0]) == (1, [2], (-1, 1, 1))
        assert (F(obj[-1], den), tab.primal()) == (1, {0: F(1)})

    def test_iteration_limit_while_dropping_artificials(self):
        # phase 1 ends optimal after one pivot with the artificial of
        # x + y >= 1 still basic at zero; driving it out needs a second pivot
        sys = _system(_TIED)
        out = lp.lp_feasible(sys)
        assert (out.status, out.iterations) == (lp.FEASIBLE, 1)
        out = lp.lp_max(sys, {0: F(1)})
        assert (out.status, out.value, out.iterations) == (lp.OPTIMAL, F(1), 2)

    def test_equality_written_twice_keeps_every_row(self):
        # x + y = 3/2 as two copies of the pair x + y <= 3/2,
        # -x - y <= -3/2, with 0 <= y <= 1: the copies are linearly
        # dependent, yet each row keeps a nonzero slack entry (a basic slack
        # reads the row denominator), so every artificial is pivoted out
        # and no row is dropped; y's rows are bounds, not rows
        rows = [({0: F(1), 1: F(1)}, F(3, 2)), ({0: F(-1), 1: F(-1)}, F(-3, 2))] * 2
        sys = _system(rows + [({1: F(1)}, 1), ({1: F(-1)}, 0)])
        out = lp.lp_max(sys, {0: F(2)})
        assert (out.status, out.value) == (lp.OPTIMAL, F(3))
        tab, phase1 = lp._phase1(sys)
        assert phase1 is None
        tab.drop_artificials()
        assert len(tab.T) == tab.m == 4
        assert not tab.art_cols and not any(tab.is_artificial(j) for j in tab.cols + tab.basis)
        slacks = range(tab.n, tab.n + tab.m)
        assert all(b in slacks or any(a for a, j in zip(row, tab.cols) if j in slacks)
                   for row, b in zip(tab.T, tab.basis))

    def test_single_variable_rows_are_bounds_not_rows(self, monkeypatch):
        """On every LP the solver builds for the worked problem and for a
        branching instance, no tableau row starts with a single nonzero
        coefficient, and so no artificial starts in a bound's row: each
        single-variable row became a bound or left as implied."""
        from test_search import TestBranchingOracleAgreement, tightened

        init = lp._Tableau.__init__
        starts = []  # per tableau, (variable nonzeros, artificial basic) of each row

        def recording(tab, sys):
            init(tab, sys)
            starts.append([(sum(1 for a in row[:tab.n] if a), tab.is_artificial(b))
                           for row, b in zip(tab.T, tab.basis)])

        worked = parse_problem(Path(WORKED).read_bytes())
        branching = tightened(57)
        monkeypatch.setattr(lp._Tableau, "__init__", recording)
        for driver in (icl_verify, hsrv_verify):
            assert driver(*worked, Config()).status == "unsat"
        assert icl_verify(*branching, TestBranchingOracleAgreement.CONFIG).status == "unsat"
        rows = [row for tab in starts for row in tab]
        assert len(starts) >= 5 and any(artificial for _, artificial in rows)
        assert all(count != 1 for count, _ in rows)

    def test_rows_stay_in_lowest_terms_after_every_pivot(self, monkeypatch):
        pivot, flip, drop = lp._Tableau._pivot, lp._Tableau._flip, lp._Tableau.drop_artificials
        past_phase1 = []  # the tableaux whose phase 2 has started
        pivots = flips = reused = 0

        def checked_pivot(tab, r, q):
            nonlocal pivots
            res = pivot(tab, r, q)
            pivots += 1
            _assert_tableau_invariants(tab, any(t is tab for t in past_phase1))
            return res

        def checked_drop(tab):
            drop(tab)
            past_phase1.append(tab)
            _assert_tableau_invariants(tab, True)

        def checked_flip(tab, q, obj, den):
            nonlocal flips
            res = flip(tab, q, obj, den)
            flips += 1
            _assert_tableau_invariants(tab, any(t is tab for t in past_phase1))
            return res

        monkeypatch.setattr(lp._Tableau, "_pivot", checked_pivot)
        monkeypatch.setattr(lp._Tableau, "_flip", checked_flip)
        monkeypatch.setattr(lp._Tableau, "drop_artificials", checked_drop)
        rng = random.Random(48)
        for _ in range(100):
            sys, g = _boxed_random_system(rng, n_extra=6, max_den=9)
            out = lp.lp_max(sys, g)
            lp.lp_feasible(sys)
            if out.status == lp.OPTIMAL and g:
                # the other sense from the optimal tableau: phase 2 goes on
                reused += lp.lp_min(sys, g, warm=out.tableau).tableau is out.tableau
                _assert_tableau_invariants(out.tableau, True)
        assert pivots >= 100 and flips >= 50 and reused >= 20


class TestWarmStart:
    """A tableau reused the way template tightening reuses it: one system
    per call, each LP after the first from the optimal tableau of the one
    before, with another objective."""

    def _cases(self, seed, count=100):
        """(boxed system, its optimal outcome for g, g, a second objective)
        for each seeded system with a nonzero g and g2 and an optimum."""
        rng = random.Random(seed)
        for _ in range(count):
            sys, g = _boxed_random_system(rng, n_extra=3 + rng.randint(0, 3), max_den=6)
            g2 = {j: rand_rational(rng, 6) for j in range(sys.n_vars)}
            g2 = {j: q for j, q in g2.items() if q != 0}
            if not g or not g2:
                continue
            first = lp.lp_max(sys, g)
            if first.status == lp.OPTIMAL:
                yield sys, first, g, g2

    def test_second_objective_on_the_same_system_keeps_the_tableau(self):
        warm = 0
        for sys, first, _, g2 in self._cases(50):
            tab = first.tableau
            for solve, sense in ((lp.lp_max, "max"), (lp.lp_min, "min")):  # reused twice
                out = solve(sys, g2, warm=tab)
                cold = solve(sys, g2)
                assert out.tableau is tab  # phase 2 started from the old basis
                _assert_tableau_invariants(tab, True)
                assert cold.status == lp.OPTIMAL
                assert (out.status, out.value) == (cold.status, cold.value)
                _assert_certified(sys, g2, out, sense)
            warm += 1
        assert warm >= 40

    def test_a_tableau_of_another_system_starts_cold(self):
        # an equal copy of the system, the system less the first row after
        # its box rows (the box keeps it bounded), the system of a TGCT
        # step (the optimum appended on g) and one with a cut below the
        # optimum: none is the tableau's own system, so each LP is the cold
        # solve in every field, and the tableau stays as it was
        statuses = set()
        for sys, first, g, g2 in self._cases(51):
            tab = first.tableau
            before = repr((tab.cols, tab.T, tab.D, tab.basis, tab.off))
            n = sys.n_vars
            for other in (NormalizedSystem(list(sys.rows), n),
                          NormalizedSystem(sys.rows[:2 * n] + sys.rows[2 * n + 1:], n),
                          NormalizedSystem(sys.rows + [norm_row(dict(g), first.value,
                                                                ("c", 100, "le"))], n),
                          NormalizedSystem(sys.rows + [norm_row(dict(g), first.value - F(1, 3),
                                                                ("c", 100, "le"))], n)):
                out = lp.lp_max(other, g2, warm=tab)
                assert out.tableau is not tab
                assert _outcome_key(out) == _outcome_key(lp.lp_max(other, g2))
                statuses.add(out.status)
            assert repr((tab.cols, tab.T, tab.D, tab.basis, tab.off)) == before
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}

    def test_pivot_counts_are_per_lp(self, monkeypatch):
        # `iterations` counts the pivots and flips of its own LP, warm or
        # cold, none of the tableau's earlier ones; the objective a tableau
        # ended on is optimal again at once
        pivot, flip = lp._Tableau._pivot, lp._Tableau._flip
        steps = 0

        def counted(real):
            def wrapper(*args):
                nonlocal steps
                steps += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(lp._Tableau, "_pivot", counted(pivot))
        monkeypatch.setattr(lp._Tableau, "_flip", counted(flip))
        moved = 0
        for sys, first, _, g2 in self._cases(52):
            for solve in (lp.lp_max, lp.lp_min):
                steps = 0
                out = solve(sys, g2, warm=first.tableau)
                assert out.tableau is first.tableau and out.iterations == steps
                moved += steps > 0
            steps = 0
            assert lp.lp_min(sys, g2).iterations == steps
            again = lp.lp_min(sys, g2, warm=first.tableau)  # where the loop's lp_min ended
            assert (again.iterations, again.value) == (0, out.value)
        assert moved >= 40


def _equality_system(rng, max_den=4):
    """A `_boxed_random_system` with 1-3 equality pairs inserted between its
    rows, alternately under store ids ("c", cid, "le"/"ge") and guard ids
    ("g", layer, neuron, phase, k).  Most equalities pass through a point of
    the box, some have a random rhs, so feasible and infeasible systems both
    come up."""
    sys, g = _boxed_random_system(rng, n_extra=3, max_den=max_den)
    n = sys.n_vars
    x0 = [-sys.rows[2 * j + 1].rhs + (sys.rows[2 * j].rhs + sys.rows[2 * j + 1].rhs)
          * F(rng.randint(0, 4), 4) for j in range(n)]
    blocks = [[r] for r in sys.rows]
    for t in range(rng.randint(1, 3)):
        a = {j: rand_rational(rng, max_den) for j in range(n)}
        a = {j: q for j, q in a.items() if q != 0} or {rng.randrange(n): F(1)}
        beta = (sum(q * x0[j] for j, q in a.items()) if rng.random() < 0.8
                else rand_rational(rng, max_den))
        le, ge = ((("c", 100 + t, "le"), ("c", 100 + t, "ge")) if t % 2 == 0
                  else (("g", 1, t, "active", 0), ("g", 1, t, "active", 1)))
        pair = [norm_row(a, beta, le), norm_row({j: -q for j, q in a.items()}, -beta, ge)]
        blocks.insert(rng.randint(0, len(blocks)), pair)
    return NormalizedSystem([r for b in blocks for r in b], n), g


def _equalities(sys):
    """(row, rhs) of the second row of each equality pair: every point of
    the system has row^T v = rhs."""
    return [rational_row(r) for r in sys.rows if r.rid[-1] in ("ge", 1)]


def _meets_equalities(sys, point):
    return all(sum((q * point.get(j, ZERO) for j, q in row.items()), ZERO) == rhs
               for row, rhs in _equalities(sys))


def _assert_certified(sys, g, out, sense):
    """The outcome's certificate passes the exact checker of `certs` on the
    system as given (a dual's lambda^T b equal to the optimum), and its
    point meets every equality exactly."""
    if out.status == lp.INFEASIBLE:
        assert certs.check_farkas(sys, certs.FarkasCertificate.make(out.dual)).ok
    elif out.status == lp.OPTIMAL:
        obj = g if sense == "max" else {j: -q for j, q in g.items()}
        value = out.value if sense == "max" else -out.value
        assert certs.check_dual_exact(
            sys, certs.DualBoundCertificate.make(obj, value, out.dual)).ok
    if out.primal is not None:
        assert _meets_equalities(sys, out.primal)


class TestEqualities:
    """Systems with equality pairs, solved on the reduced LP and lifted back."""

    def test_statuses_and_values_match_the_oracle(self):
        # system k also with one variable's box rows rewritten into bound
        # case k mod 6 (`_bound_variants`, from its own generator)
        rng, variants = random.Random(60), random.Random(160)
        optima = infeasible = eliminated = 0
        multiplier_ids = set()
        cases = set()
        for k in range(60):
            sys, g = _equality_system(rng)
            for case, variant in _bound_variants(variants, sys):
                if case == BOUND_CASES[k % len(BOUND_CASES)]:
                    _assert_bound_case(variant, g)
                    cases.add(case)
            eliminated += sys.n_vars - lp._Tableau(sys).n
            want, _ = _vertex_oracle(sys, g)
            low, _ = _vertex_oracle(sys, {j: -q for j, q in g.items()})
            outs = {"max": lp.lp_max(sys, g), "min": lp.lp_min(sys, g)}
            feas = lp.lp_feasible(sys)
            if want is None:
                assert outs["max"].status == outs["min"].status == feas.status == lp.INFEASIBLE
                infeasible += 1
            else:
                assert outs["max"].status == outs["min"].status == lp.OPTIMAL
                assert (outs["max"].value, outs["min"].value) == (want, -low)
                assert feas.status == lp.FEASIBLE
                optima += 1
            for sense, out in outs.items():
                _assert_certified(sys, g, out, sense)
                multiplier_ids.update(rid[0] for rid in out.dual)
            _assert_certified(sys, g, feas, "max")
        assert optima >= 20 and infeasible >= 5 and eliminated >= 60
        assert multiplier_ids == {"c", "g"}
        assert cases == set(BOUND_CASES)

    def test_duplicated_equality_is_dropped(self):
        # x + y = 1 twice, then maximize x - y over the unit box: the first
        # pair eliminates y; the second would eliminate y too, so it stays,
        # and its two rows reduce to 0 <= 0
        rows = [norm_row({0: F(1)}, F(1), ("c", 0, "le")), norm_row({0: F(-1)}, ZERO, ("c", 1, "le")),
                norm_row({1: F(1)}, F(1), ("c", 2, "le")), norm_row({1: F(-1)}, ZERO, ("c", 3, "le"))]
        pairs = [norm_row({0: F(sign), 1: F(sign)}, F(sign), ("c", cid, side))
                 for cid in (4, 5) for sign, side in ((1, "le"), (-1, "ge"))]
        sys = NormalizedSystem(rows + pairs, 2)
        tab = lp._Tableau(sys)
        assert list(tab.red.expr) == [1]
        assert [r.rid for r in sys.rows if r.rid not in tab.red.removed] == [
            r.rid for r in rows + pairs[2:]]
        assert [tab.red.reduce(r.ints) for r in pairs[2:]] == [(1, {}, 0)] * 2
        # y = 1 - x makes every box row a bound on x, and the rows that read
        # 0 <= 0 leave: the tableau has no row
        assert tab.n == 1 and tab.row_ids == []
        g = {0: F(1), 1: F(-1)}
        out = lp.lp_max(sys, g)
        assert (out.status, out.value, out.primal) == (lp.OPTIMAL, F(1), {0: F(1)})
        _assert_certified(sys, g, out, "max")

    def test_inconsistent_equality_is_refuted(self):
        # x + y = 1 and x + y = 2: the second pair reduces to 0 = 1, whose
        # violated side stays
        sys = NormalizedSystem([
            norm_row({0: F(1), 1: F(1)}, F(1), ("c", 0, "le")),
            norm_row({0: F(-1), 1: F(-1)}, F(-1), ("c", 0, "ge")),
            norm_row({0: F(1)}, F(3), ("c", 1, "le")),
            norm_row({0: F(1), 1: F(1)}, F(2), ("g", 1, 0, "active", 0)),
            norm_row({0: F(-1), 1: F(-1)}, F(-2), ("g", 1, 0, "active", 1)),
        ], 2)
        tab = lp._Tableau(sys)
        # x <= 3 becomes x's bound, the pair's rows 0 <= 1, which leaves, and
        # 0 <= -1, which stays in the tableau and takes phase 1's artificial
        assert [r.rid for r in sys.rows if r.rid not in tab.red.removed] == [
            ("c", 1, "le"), ("g", 1, 0, "active", 0), ("g", 1, 0, "active", 1)]
        assert tab.row_ids == [("g", 1, 0, "active", 1)] and tab.art_cols
        for out in (lp.lp_max(sys, {0: F(1)}), lp.lp_min(sys, {0: F(1)}), lp.lp_feasible(sys)):
            assert out.status == lp.INFEASIBLE
            _assert_certified(sys, {}, out, "max")

    def test_unbounded_direction_through_the_equalities_is_a_fault(self):
        # x - y = 0 and z = x + y + 1 (as z - x - y = 1, a guard pair), x >= 0:
        # z is unbounded above along x = y, z = 2x, on the reduced LP over x
        sys = NormalizedSystem([
            norm_row({0: F(1), 1: F(-1)}, ZERO, ("c", 0, "le")),
            norm_row({0: F(-1), 1: F(1)}, ZERO, ("c", 0, "ge")),
            norm_row({0: F(-1)}, ZERO, ("c", 1, "le")),
            norm_row({2: F(1), 0: F(-1), 1: F(-1)}, F(1), ("g", 1, 0, "active", 0)),
            norm_row({2: F(-1), 0: F(1), 1: F(1)}, F(-1), ("g", 1, 0, "active", 1)),
        ], 3)
        assert lp._Tableau(sys).n == 1
        for solve, g in ((lp.lp_max, {2: F(1)}), (lp.lp_min, {2: F(-1)})):
            with pytest.raises(lp.SelfCheckFailed, match="no row bounds entering label 0"):
                solve(sys, g)
        out = lp.lp_feasible(sys)
        assert out.status == lp.FEASIBLE
        _assert_certified(sys, {}, out, "max")

    def test_warm_step_matches_cold(self):
        # a second objective on the same equality system runs from the
        # reduced tableau of the first; the system of a TGCT step, and that
        # with one more equality, start cold from it
        rng = random.Random(61)
        warm = 0
        for _ in range(150):
            sys, g = _equality_system(rng, max_den=6)
            g2 = {j: rand_rational(rng, 6) for j in range(sys.n_vars)}
            g2 = {j: q for j, q in g2.items() if q != 0}
            best, _ = _vertex_oracle(sys, g)
            if best is None or not g or not g2:
                continue
            n = sys.n_vars
            first = lp.lp_max(sys, g)
            tab = first.tableau
            assert first.value == best and tab.red.expr
            for solve, sense in ((lp.lp_max, "max"), (lp.lp_min, "min")):
                out = solve(sys, g2, warm=tab)
                cold = solve(sys, g2)
                assert out.tableau is tab
                assert (out.status, out.value) == (cold.status, cold.value)
                _assert_certified(sys, g2, out, sense)
            step = NormalizedSystem(sys.rows + [norm_row(dict(g), best, ("c", 201, "le"))], n)
            extra = [norm_row(dict(g), best, ("c", 202, "le")),
                     norm_row({j: -q for j, q in g.items()}, -best, ("c", 202, "ge"))]
            for other in (step, NormalizedSystem(step.rows + extra, n)):
                out = lp.lp_max(other, g2, warm=tab)
                assert out.tableau is not tab
                assert _outcome_key(out) == _outcome_key(lp.lp_max(other, g2))
            warm += 1
        assert warm >= 30


class TestEqualityPivotPath:
    """The pivot path of the reduced LP, pinned like `TestPivotPath` over a
    seeded corpus of equality systems, each also solved without its box
    rows (ids ("c", k, "le") with k < 2n), which reaches the unbounded
    fault, hashed as `_FAULT` as there.  A change to the reduction's choice
    of eliminated variables, its row order or its renumbering moves this
    hash.  Re-pinned with `TestPivotPath`, on the same terms, and again when
    each equality came to eliminate the variable it defines: a pair whose
    highest variable an earlier pair eliminates now stays as two rows, so
    some multipliers, pivot counts and points of alternative optima moved,
    and every status and value stayed."""

    PINNED = "2a3c91bd0487266015bd1a2c4ad092cb24473fc06ac148d6bfdc0204edb656ef"

    def _digest(self):
        rng = random.Random(20250117)
        h = hashlib.sha256()
        statuses = set()
        faults = 0
        for k in range(120):
            sys, g = _equality_system(rng, max_den=2 + k % 7)
            box = {("c", i, "le") for i in range(2 * sys.n_vars)}
            open_ = NormalizedSystem([r for r in sys.rows if r.rid not in box], sys.n_vars)
            for s in (sys, open_):
                for out in _corpus_solves(s, g):
                    if out is None:
                        faults += 1
                    else:
                        statuses.add(out.status)
                    h.update(_outcome_key(out).encode())
                    h.update(b"\n")
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.FEASIBLE}
        assert faults == 35
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_pivot_path(self):
        assert self._digest() == self.PINNED


class TestWarmStartPath:
    """The warm-start path, pinned like `TestPivotPath`.  A seeded corpus of
    template tightening runs: per system, a few objectives g, each with a
    bound row per sense (mostly strictly looser than the optimum, at times
    tight or cutting), and two TGCT calls over them.  A call solves every
    objective in both senses over the one system its rows form when it
    begins, each LP from the previous LP's tableau, and ends at the first
    INFEASIBLE; when an optimum is strictly tighter, that sense's bound row
    retires from the rows and the optimum is appended as a new row, which
    the next call's system has.  So the first LP of the second call is
    handed a tableau of another system and starts cold.  Each LP's status
    and value are those of a cold solve over the rows as they stand at that
    LP.  Every LP's status, value, primal point, dual vector, pivot count,
    and whether it was handed a tableau and reused it, hash to a constant.
    Re-pinned with `TestPivotPath`, on the same terms, and with
    `TestEqualityPivotPath` when each equality came to eliminate the
    variable it defines (some multipliers moved)."""

    PINNED = "b0e2aec949295e8a0a321020676a47b9b98e0180292901d4f1d4954a186470de"

    def _digest(self):
        rng = random.Random(20261018)
        h = hashlib.sha256()
        seen = set()
        for k in range(80):
            make = _equality_system if k % 2 else partial(_boxed_random_system, n_extra=4)
            sys, _ = make(rng, max_den=2 + k % 5)
            n = sys.n_vars
            templates = [{j: rand_rational(rng, 4) for j in range(n)} for _ in range(3)]
            steps = [(t, {j: q for j, q in g.items() if q}, sign)
                     for t, g in enumerate(templates) for sign in (1, -1)]
            steps = [(t, g, sign) for t, g, sign in steps if g]
            rows = list(sys.rows)
            bound = {}  # (template, sign) -> the id and rhs of its bound row
            for t, g, sign in steps:
                rhs = F(25) if rng.random() < 0.75 else rand_rational(rng, 4, span=4)
                rid = ("c", 300 + 2 * t + (sign < 0), "le")
                rows.append(norm_row({j: sign * q for j, q in g.items()}, rhs, rid))
                bound[t, sign] = rid, rhs
            tab = None
            fresh = 400
            for _ in range(2):
                call = NormalizedSystem(list(rows), n)
                for t, g, sign in steps:
                    solve = lp.lp_max if sign > 0 else lp.lp_min
                    handed = tab
                    out = solve(call, g, warm=handed)
                    cold = solve(NormalizedSystem(rows, n), g)
                    assert (out.status, out.value) == (cold.status, cold.value)
                    reused = handed is not None and out.tableau is handed
                    key = (out.status, handed is not None, reused)
                    h.update(f"{_outcome_key(out)} {key[1:]}\n".encode())
                    seen.add(key)
                    tab = out.tableau
                    if out.status != lp.OPTIMAL:
                        break
                    rid, rhs = bound[t, sign]
                    beta = sign * out.value
                    if beta >= rhs:
                        continue
                    rows = [r for r in rows if r.rid != rid]
                    new = ("c", fresh, "le")
                    fresh += 1
                    rows.append(norm_row({j: sign * q for j, q in g.items()}, beta, new))
                    bound[t, sign] = new, beta
        assert seen >= {(lp.OPTIMAL, True, True), (lp.OPTIMAL, True, False),
                        (lp.OPTIMAL, False, False), (lp.INFEASIBLE, False, False)}
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_warm_start_path(self):
        assert self._digest() == self.PINNED


class TestEachEqualityDefinesItsVariable:
    """In every system the solver builds, each equality defines its own
    variable, the highest index in its row: spied on `lp_max` and
    `lp_feasible` over the first 100 acceptance problems with the default
    flags and over two branching networks, each at an UNSAT and a SAT
    threshold, with margin-only templates and a one-LP gate, under both
    drivers, every pair `_equality_pairs` finds is eliminated at its first
    row's highest variable.  The same system with the second row of each
    pair renamed, so that nothing pairs and the simplex runs on every row,
    gives the same status and value, and the checkers of `certs` accept its
    certificate."""

    def test_every_pair_eliminates_its_highest_variable(self, monkeypatch):
        from test_acceptance import _spec_suite
        from test_search import TestBranchingOracleAgreement, tightened

        seen = {"systems": 0, "pairs": 0, "guard pairs": 0, lp.INFEASIBLE: 0}

        def check(sys, out, solve, g=None):
            rows = sys.rows
            pairs = lp._equality_pairs(sys)
            red = lp._Reduction(sys)
            assert len(red.expr) == len(pairs)
            for k in pairs:
                p = max(rows[k].ints[1])
                assert {r.rid for r in red.eq[p]} == {rows[k].rid, rows[k + 1].rid}
            unpaired = {rows[k + 1].rid for k in pairs}
            renamed = NormalizedSystem([r._replace(rid=(*r.rid, "unpaired")) if r.rid in unpaired
                                        else r for r in rows], sys.n_vars)
            assert lp._equality_pairs(renamed) == [] and not lp._Reduction(renamed).expr
            alone = solve(renamed)
            assert (alone.status, alone.value) == (out.status, out.value)
            if alone.status == lp.INFEASIBLE:
                assert certs.check_farkas(renamed, certs.FarkasCertificate.make(alone.dual)).ok
            elif alone.status == lp.OPTIMAL:
                assert certs.check_dual_exact(renamed, certs.DualBoundCertificate.make(
                    g, alone.value, alone.dual)).ok
            seen["systems"] += 1
            seen["pairs"] += len(pairs)
            seen["guard pairs"] += sum(rows[k].rid[0] == "g" for k in pairs)
            seen[lp.INFEASIBLE] += out.status == lp.INFEASIBLE

        lp_max, lp_feasible = lp.lp_max, lp.lp_feasible

        def spy_max(sys, g, warm=None):
            out = lp_max(sys, g, warm)
            g = {j: F(q) for j, q in g.items() if q}
            check(sys, out, lambda s: lp_max(s, g), g)
            return out

        def spy_feasible(sys):
            out = lp_feasible(sys)
            check(sys, out, lp_feasible)
            return out

        runs = [(problem, Config()) for problem in _spec_suite(100)]
        runs += [(tightened(idx, gap), TestBranchingOracleAgreement.CONFIG)
                 for idx in (57, 89) for gap in (F(1, 1000), F(-1, 1000))]
        monkeypatch.setattr(lp, "lp_max", spy_max)
        monkeypatch.setattr(lp, "lp_feasible", spy_feasible)
        for problem, config in runs:
            for driver in (icl_verify, hsrv_verify):
                driver(*problem, config)
        assert (seen["systems"] >= 80 and seen["pairs"] >= 700 and seen["guard pairs"] >= 50
                and seen[lp.INFEASIBLE] >= 25), seen
