import hashlib
import itertools
import math
import random
from fractions import Fraction as F
from functools import partial

import pytest

from conftest import norm_row, rand_rational, rational_row
from relucert import certs, lp
from relucert.rows import NormalizedSystem

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


def _vertex_oracle(sys, g):
    """Exhaustive vertex enumeration: best g^T v over all feasible basic
    points.  Sound for bounded polytopes (box rows present)."""
    n = sys.n_vars
    dense = [([rational_row(r)[0].get(j, ZERO) for j in range(n)], r.rhs) for r in sys.rows]
    best = None
    arg = None
    for combo in itertools.combinations(range(len(dense)), n):
        v = _solve_square([dense[i][0] for i in combo], [dense[i][1] for i in combo])
        if v is None:
            continue
        if all(sum(a * x for a, x in zip(row, v)) <= rhs for row, rhs in dense):
            val = sum(g.get(j, ZERO) * v[j] for j in range(n))
            if best is None or val > best:
                best, arg = val, v
    return best, arg


class TestAgainstVertexEnumeration:
    def test_lp_max_matches_oracle_on_random_boxed_systems(self):
        rng = random.Random(42)
        optima = infeasible = 0
        for _ in range(60):
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
        assert optima >= 20  # the suite must actually exercise the optimum path
        assert infeasible >= 1

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


class TestEdgeCases:
    def test_unbounded_direction_reported_with_improving_ray(self):
        sys = _system([({0: F(-1)}, 0)])  # x >= 0, maximize x
        out = lp.lp_max(sys, {0: F(1)})
        assert out.status == lp.UNBOUNDED
        assert sum(q * out.ray.get(j, ZERO) for j, q in {0: F(1)}.items()) > 0

    def test_free_variable_reaches_negative_optimum(self):
        sys = _system([({0: F(1)}, -3)])  # x <= -3, maximize x
        out = lp.lp_max(sys, {0: F(1)})
        assert out.status == lp.OPTIMAL and out.value == F(-3)

    def test_degenerate_equalities_terminate(self):
        # x = 1 encoded as adjacent pair plus a redundant copy
        sys = _system([({0: F(1)}, 1), ({0: F(-1)}, -1), ({0: F(2)}, 2)])
        out = lp.lp_max(sys, {0: F(5)})
        assert out.status == lp.OPTIMAL and out.value == F(5)

    def test_iteration_limit_reports_limit(self):
        rng = random.Random(46)
        sys, g = _boxed_random_system(rng, n_extra=6)
        out = lp.lp_max(sys, g, max_iters=0)
        assert out.status == lp.LIMIT

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


def _outcome_key(out):
    def items(d):
        return None if d is None else sorted(d.items())
    return repr((out.status, out.value, items(out.primal), items(out.dual),
                 items(out.ray), out.iterations))


class TestPivotPath:
    """The simplex's pivot path, pinned: status, value, primal point, dual
    or Farkas vector, ray and pivot count over a seeded corpus hash to a
    constant recorded on the dense Fraction tableau.  A change of arithmetic
    that keeps every sign and ratio exact keeps this hash.  Each boxed system
    is also solved without its box rows, which reaches unbounded outcomes."""

    PINNED = "514f36ae068f0204bb11f5150510a5a687f6228c3c999cc81e711086471dc4e0"

    def _digest(self):
        rng = random.Random(20240824)
        h = hashlib.sha256()
        for k in range(150):
            boxed, g = _boxed_random_system(rng, n_extra=2 + k % 6, max_den=2 + k % 7)
            open_ = NormalizedSystem(boxed.rows[2 * boxed.n_vars:], boxed.n_vars)
            for sys in (boxed, open_):
                for out in (lp.lp_max(sys, g), lp.lp_min(sys, g), lp.lp_feasible(sys)):
                    h.update(_outcome_key(out).encode())
                    h.update(b"\n")
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_pivot_path(self):
        assert self._digest() == self.PINNED


def _assert_tableau_invariants(tab, phase2):
    """Positive row denominators, rows in lowest terms and one entry per
    nonbasic label plus the rhs wide; the nonbasic and basic labels
    disjoint and together the live ones (free variables, slacks and, in
    phase 1, artificials); in phase 2 no artificial label is left."""
    assert len(tab.T) == len(tab.D) == len(tab.basis) == tab.m == len(tab.row_ids)
    if phase2:
        assert not tab.art_cols
    live = [*range(tab.n + tab.m), *tab.art_cols]
    assert sorted(tab.cols + tab.basis) == live
    for row, den in zip(tab.T, tab.D):
        assert len(row) == len(tab.cols) + 1
        assert den > 0 and math.gcd(den, *row) == 1


class TestIntegerTableau:
    """Edge cases of the integer-row tableau."""

    def test_ratio_tie_leaves_by_smaller_basic_index(self):
        # x >= 1 (row 0, artificial basic, column 3) and x <= 1 (row 1, slack
        # basic, column 2) both bound x at ratio 1; the slack has the smaller
        # index and leaves although its row comes second
        tab = lp._Tableau(_system([({0: F(-1)}, -1), ({0: F(1)}, 1)]))
        assert tab.basis == [3, 2]
        tab.run({3: F(-1)}, max_iters=1)
        assert tab.iterations == 1
        assert tab.basis == [3, 0]

    def test_iteration_limit_in_phase_one(self):
        sys = _system([({0: F(-1)}, -1), ({0: F(1)}, 1)])
        for out in (lp.lp_max(sys, {0: F(1)}, max_iters=0), lp.lp_feasible(sys, max_iters=0)):
            assert (out.status, out.iterations) == (lp.LIMIT, 0)

    def test_iteration_limit_while_dropping_artificials(self):
        # phase 1 ends optimal after one pivot with the artificial of x >= 1
        # still basic at zero; driving it out needs a second pivot
        sys = _system([({0: F(-1)}, -1), ({0: F(1)}, 1)])
        assert lp.lp_feasible(sys, max_iters=1).status == lp.FEASIBLE
        out = lp.lp_max(sys, {0: F(1)}, max_iters=1)
        assert (out.status, out.iterations) == (lp.LIMIT, 1)
        out = lp.lp_max(sys, {0: F(1)}, max_iters=2)
        assert (out.status, out.value, out.iterations) == (lp.OPTIMAL, F(1), 2)

    def test_equality_written_twice_keeps_every_row(self):
        # x = 3/2 as two copies of the pair x <= 3/2, -x <= -3/2: the copies
        # are linearly dependent, yet each row keeps a nonzero slack entry
        # (a basic slack reads the row denominator), so every artificial is
        # pivoted out and no row is dropped
        rows = [({0: F(1)}, F(3, 2)), ({0: F(-1)}, F(-3, 2))] * 2
        sys = _system(rows)
        out = lp.lp_max(sys, {0: F(2)})
        assert (out.status, out.value) == (lp.OPTIMAL, F(3))
        tab, phase1 = lp._phase1(sys, lp.DEFAULT_MAX_ITERS)
        assert phase1 is None and tab.drop_artificials(lp.DEFAULT_MAX_ITERS)
        assert len(tab.T) == tab.m == 4
        assert not tab.art_cols and not any(tab.is_artificial(j) for j in tab.cols + tab.basis)
        slacks = range(tab.n, tab.n + tab.m)
        assert all(b in slacks or any(a for a, j in zip(row, tab.cols) if j in slacks)
                   for row, b in zip(tab.T, tab.basis))

    def test_rows_stay_in_lowest_terms_after_every_pivot(self, monkeypatch):
        pivot, drop, reconcile = (lp._Tableau._pivot, lp._Tableau.drop_artificials,
                                  lp._Tableau.reconcile)
        past_phase1 = []  # the tableaux whose phase 2 has started
        pivots = reconciled = 0

        def checked_pivot(tab, r, q):
            nonlocal pivots
            res = pivot(tab, r, q)
            pivots += 1
            _assert_tableau_invariants(tab, any(t is tab for t in past_phase1))
            return res

        def checked_drop(tab, max_iters):
            ok = drop(tab, max_iters)
            if ok:
                past_phase1.append(tab)
                _assert_tableau_invariants(tab, True)
            return ok

        def checked_reconcile(tab, sys):
            nonlocal reconciled
            ok = reconcile(tab, sys)
            reconciled += ok
            _assert_tableau_invariants(tab, True)
            return ok

        monkeypatch.setattr(lp._Tableau, "_pivot", checked_pivot)
        monkeypatch.setattr(lp._Tableau, "drop_artificials", checked_drop)
        monkeypatch.setattr(lp._Tableau, "reconcile", checked_reconcile)
        rng = random.Random(48)
        for _ in range(30):
            sys, g = _boxed_random_system(rng, n_extra=6, max_den=9)
            out = lp.lp_max(sys, g)
            lp.lp_feasible(sys)
            if out.status == lp.OPTIMAL and g:
                cut = norm_row(dict(g), out.value, ("c", 100, "le"))
                lp.lp_min(NormalizedSystem(sys.rows + [cut], sys.n_vars), g, warm=out.tableau)
        assert pivots >= 100 and reconciled >= 10


def _above_box_max(sys, g):
    """1 more than the box rows' bound on g^T v: strictly above the optimum
    (the first 2n rows of a `_boxed_random_system` are x_j <= hi, -x_j <= -lo)."""
    n = sys.n_vars
    hi = [sys.rows[2 * j].rhs for j in range(n)]
    lo = [-sys.rows[2 * j + 1].rhs for j in range(n)]
    return sum((q * (hi[j] if q > 0 else lo[j]) for j, q in g.items()), ZERO) + 1


class TestWarmStart:
    """A tableau reused the way template tightening reuses it: solve, append
    g^T v <= optimum, retire a looser row on g, solve another objective."""

    @pytest.fixture(autouse=True)
    def _checked_reconcile(self, monkeypatch):
        reconcile = lp._Tableau.reconcile

        def checked(tab, sys):
            ok = reconcile(tab, sys)
            _assert_tableau_invariants(tab, True)
            if ok:
                assert tab.row_ids == [r.rid for r in sys.rows] and not tab.art_cols
            return ok

        monkeypatch.setattr(lp._Tableau, "reconcile", checked)

    def _cases(self, seed, count=100):
        """(boxed system plus a looser row on g, its optimal outcome, g, a
        second objective) for each seeded system with a nonzero g."""
        rng = random.Random(seed)
        for _ in range(count):
            sys, g = _boxed_random_system(rng, n_extra=3 + rng.randint(0, 3), max_den=6)
            g2 = {j: rand_rational(rng, 6) for j in range(sys.n_vars)}
            g2 = {j: q for j, q in g2.items() if q != 0}
            if not g or not g2:
                continue
            looser = norm_row(dict(g), _above_box_max(sys, g), ("c", 100, "le"))
            first_sys = NormalizedSystem(sys.rows + [looser], sys.n_vars)
            first = lp.lp_max(first_sys, g)
            if first.status == lp.OPTIMAL:
                yield first_sys, first, g, g2

    def test_warm_solve_after_a_tighter_row_matches_cold(self):
        warm = 0
        for first_sys, first, g, g2 in self._cases(50):
            rows = first_sys.rows[:-1] + [norm_row(dict(g), first.value, ("c", 101, "le"))]
            sys = NormalizedSystem(rows, first_sys.n_vars)
            tab = first.tableau
            for solve in (lp.lp_max, lp.lp_min):  # the second reuse leaves the rows as they are
                out = solve(sys, g2, warm=tab)
                cold = solve(sys, g2)
                assert out.tableau is tab  # no fallback: phase 2 started from the old basis
                assert cold.status == lp.OPTIMAL
                assert (out.status, out.value) == (cold.status, cold.value)
            warm += 1
        assert warm >= 40

    def test_dropped_row_with_nonbasic_slack_starts_cold(self):
        fallbacks = 0
        for first_sys, first, _, g2 in self._cases(51):
            tab = first.tableau
            k = next(k for k in range(tab.m) if tab.n + k not in tab.basis)
            sys = NormalizedSystem(first_sys.rows[:k] + first_sys.rows[k + 1:], first_sys.n_vars)
            before = repr((tab.cols, tab.T, tab.D, tab.basis, tab.row_ids))
            assert not tab.reconcile(sys)
            assert repr((tab.cols, tab.T, tab.D, tab.basis, tab.row_ids)) == before
            out = lp.lp_max(sys, g2, warm=tab)
            assert out.tableau is not tab
            assert _outcome_key(out) == _outcome_key(lp.lp_max(sys, g2))
            fallbacks += 1
        assert fallbacks >= 40

    def test_appended_row_the_point_violates_starts_cold(self):
        statuses = set()
        for first_sys, first, g, g2 in self._cases(52):
            tab = first.tableau
            cut = norm_row(dict(g), first.value - F(1, 3), ("c", 101, "le"))
            sys = NormalizedSystem(first_sys.rows + [cut], first_sys.n_vars)
            before = repr((tab.cols, tab.T, tab.D, tab.basis, tab.row_ids))
            assert not tab.reconcile(sys)
            assert repr((tab.cols, tab.T, tab.D, tab.basis, tab.row_ids)) == before
            out = lp.lp_max(sys, g2, warm=tab)
            assert out.tableau is not tab
            assert _outcome_key(out) == _outcome_key(lp.lp_max(sys, g2))
            statuses.add(out.status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE}


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
    system as given, and its point meets every equality exactly."""
    if out.status == lp.INFEASIBLE:
        assert certs.check_farkas(sys, certs.FarkasCertificate.make(out.dual)).ok
    elif out.status == lp.OPTIMAL:
        obj = g if sense == "max" else {j: -q for j, q in g.items()}
        value = out.value if sense == "max" else -out.value
        assert certs.check_dual(sys, certs.DualBoundCertificate.make(obj, value, out.dual)).ok
    if out.primal is not None:
        assert _meets_equalities(sys, out.primal)


class TestEqualities:
    """Systems with equality pairs, solved on the reduced LP and lifted back."""

    def test_statuses_and_values_match_the_oracle(self):
        rng = random.Random(60)
        optima = infeasible = eliminated = 0
        multiplier_ids = set()
        for _ in range(60):
            sys, g = _equality_system(rng)
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

    def test_duplicated_equality_is_dropped(self):
        # x + y = 1 twice, then maximize x - y over the unit box: the second
        # pair reduces to 0 = 0
        rows = [norm_row({0: F(1)}, F(1), ("c", 0, "le")), norm_row({0: F(-1)}, ZERO, ("c", 1, "le")),
                norm_row({1: F(1)}, F(1), ("c", 2, "le")), norm_row({1: F(-1)}, ZERO, ("c", 3, "le"))]
        pairs = [norm_row({0: F(sign), 1: F(sign)}, F(sign), ("c", cid, side))
                 for cid in (4, 5) for sign, side in ((1, "le"), (-1, "ge"))]
        sys = NormalizedSystem(rows + pairs, 2)
        tab = lp._Tableau(sys)
        assert tab.n == 1 and tab.row_ids == [r.rid for r in rows]
        g = {0: F(1), 1: F(-1)}
        out = lp.lp_max(sys, g)
        assert (out.status, out.value, out.primal) == (lp.OPTIMAL, F(1), {0: F(1)})
        _assert_certified(sys, g, out, "max")

    def test_inconsistent_equality_is_refuted(self):
        # x + y = 1 and x + y = 2: the second pair reduces to 0 = 1 and stays
        sys = NormalizedSystem([
            norm_row({0: F(1), 1: F(1)}, F(1), ("c", 0, "le")),
            norm_row({0: F(-1), 1: F(-1)}, F(-1), ("c", 0, "ge")),
            norm_row({0: F(1)}, F(3), ("c", 1, "le")),
            norm_row({0: F(1), 1: F(1)}, F(2), ("g", 1, 0, "active", 0)),
            norm_row({0: F(-1), 1: F(-1)}, F(-2), ("g", 1, 0, "active", 1)),
        ], 2)
        tab = lp._Tableau(sys)
        assert tab.row_ids == [("c", 1, "le"), ("g", 1, 0, "active", 0), ("g", 1, 0, "active", 1)]
        for out in (lp.lp_max(sys, {0: F(1)}), lp.lp_min(sys, {0: F(1)}), lp.lp_feasible(sys)):
            assert out.status == lp.INFEASIBLE
            _assert_certified(sys, {}, out, "max")

    def test_unbounded_ray_lifts_into_the_equalities(self):
        # x - y = 0 and z = x + y + 1 (as z - x - y = 1, a guard pair), x >= 0:
        # maximize z is unbounded along x = y, z = 2x
        sys = NormalizedSystem([
            norm_row({0: F(1), 1: F(-1)}, ZERO, ("c", 0, "le")),
            norm_row({0: F(-1), 1: F(1)}, ZERO, ("c", 0, "ge")),
            norm_row({0: F(-1)}, ZERO, ("c", 1, "le")),
            norm_row({2: F(1), 0: F(-1), 1: F(-1)}, F(1), ("g", 1, 0, "active", 0)),
            norm_row({2: F(-1), 0: F(1), 1: F(1)}, F(-1), ("g", 1, 0, "active", 1)),
        ], 3)
        assert lp._Tableau(sys).n == 1
        out = lp.lp_max(sys, {2: F(1)})
        assert out.status == lp.UNBOUNDED
        d = out.ray
        assert d.get(2, ZERO) > 0
        for row, _ in _equalities(sys):
            assert sum((q * d.get(j, ZERO) for j, q in row.items()), ZERO) == 0
        assert -d.get(0, ZERO) <= 0

    def test_warm_step_matches_cold(self):
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
            first_sys = NormalizedSystem(sys.rows + [norm_row(dict(g), best + 1, ("c", 200, "le"))], n)
            first = lp.lp_max(first_sys, g)
            tab = first.tableau
            assert first.value == best and tab.red.pivots
            step = NormalizedSystem(sys.rows + [norm_row(dict(g), best, ("c", 201, "le"))], n)
            for solve, sense in ((lp.lp_max, "max"), (lp.lp_min, "min")):
                out = solve(step, g2, warm=tab)
                cold = solve(step, g2)
                assert out.tableau is tab
                assert (out.status, out.value) == (cold.status, cold.value)
                _assert_certified(step, g2, out, sense)
            # one more equality: the reduction differs, so the LP starts cold
            extra = [norm_row(dict(g), best, ("c", 202, "le")),
                     norm_row({j: -q for j, q in g.items()}, -best, ("c", 202, "ge"))]
            more = NormalizedSystem(step.rows + extra, n)
            out = lp.lp_max(more, g2, warm=tab)
            assert out.tableau is not tab
            assert _outcome_key(out) == _outcome_key(lp.lp_max(more, g2))
            warm += 1
        assert warm >= 30


class TestEqualityPivotPath:
    """The pivot path of the reduced LP, pinned like `TestPivotPath` over a
    seeded corpus of equality systems, each also solved without its box
    rows (ids ("c", k, "le") with k < 2n), which reaches unbounded outcomes.
    A change to the reduction's choice of eliminated variables, its row
    order or its renumbering moves this hash."""

    PINNED = "7be51da8a85860de5564cec665b0c9f197705c16bca17d77f730f8d01b3eace7"

    def _digest(self):
        rng = random.Random(20250117)
        h = hashlib.sha256()
        statuses = set()
        for k in range(120):
            sys, g = _equality_system(rng, max_den=2 + k % 7)
            box = {("c", i, "le") for i in range(2 * sys.n_vars)}
            open_ = NormalizedSystem([r for r in sys.rows if r.rid not in box], sys.n_vars)
            for s in (sys, open_):
                for out in (lp.lp_max(s, g), lp.lp_min(s, g), lp.lp_feasible(s)):
                    statuses.add(out.status)
                    h.update(_outcome_key(out).encode())
                    h.update(b"\n")
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED, lp.FEASIBLE}
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_pivot_path(self):
        assert self._digest() == self.PINNED


class TestWarmStartPath:
    """The warm-start path, pinned like `TestPivotPath`.  A seeded corpus of
    template tightening runs: per system, a few objectives g, each with a
    loose bound row per sense (mostly strictly looser than the optimum, at
    times tight or cutting).  Each step solves g^T v in one sense from the
    previous step's tableau, then, when the optimum is strictly tighter,
    retires that sense's bound row and appends the optimum as a new row at
    the end; now and then it appends a cut below the optimum instead, or
    also retires another bound row.  Every step's status, value, primal
    point, dual vector, pivot count and whether `reconcile` accepted the
    old tableau hash to a constant recorded on the dense tableau."""

    PINNED = "9c733344315230614469fab592f1550ba84fd2705e03a34c1b8710c063ace209"

    def _digest(self, monkeypatch):
        accepted = []
        reconcile = lp._Tableau.reconcile

        def recording(tab, sys):
            ok = reconcile(tab, sys)
            accepted.append(ok)
            return ok

        monkeypatch.setattr(lp._Tableau, "reconcile", recording)
        rng = random.Random(20261018)
        h = hashlib.sha256()
        seen, answers = set(), set()
        for k in range(80):
            make = _equality_system if k % 2 else partial(_boxed_random_system, n_extra=4)
            sys, _ = make(rng, max_den=2 + k % 5)
            n = sys.n_vars
            templates = [{j: rand_rational(rng, 4) for j in range(n)} for _ in range(3)]
            templates = [{j: q for j, q in g.items() if q} for g in templates]
            rows = list(sys.rows)
            bound = {}  # (template, sign) -> the id and rhs of its bound row
            for t, g in enumerate(templates):
                for sign in (1, -1):
                    rhs = F(25) if rng.random() < 0.75 else rand_rational(rng, 4, span=4)
                    rid = ("c", 300 + 2 * t + (sign < 0), "le")
                    rows.append(norm_row({j: sign * q for j, q in g.items()}, rhs, rid))
                    bound[t, sign] = rid, rhs
            tab = None
            fresh = 400
            for t, g in itertools.chain(enumerate(templates), enumerate(templates)):
                if not g:
                    continue
                for sign in (1, -1):
                    step = NormalizedSystem(rows, n)
                    warm = tab is not None
                    out = (lp.lp_max if sign > 0 else lp.lp_min)(step, g, warm=tab)
                    answer = accepted.pop() if warm else None
                    assert not accepted
                    answers.add(answer)
                    h.update(f"{_outcome_key(out)} {answer}\n".encode())
                    seen.add((out.status, warm and out.tableau is tab))
                    tab = out.tableau
                    if out.status != lp.OPTIMAL:
                        continue
                    rid, rhs = bound[t, sign]
                    beta = sign * out.value
                    if rhs is not None and beta >= rhs:
                        continue
                    rows = [r for r in rows if r.rid != rid]
                    u = rng.random()
                    # off the template tightening pattern, so that warm
                    # starts get refused too: a cut the optimum violates,
                    # or the retirement of another, possibly tight, row
                    if u < 0.15:
                        beta -= F(1, 3)
                    elif u < 0.3:
                        other = rng.choice(sorted(bound))
                        rows = [r for r in rows if r.rid != bound[other][0]]
                        bound[other] = None, None
                    new = ("c", fresh, "le")
                    fresh += 1
                    rows.append(norm_row({j: sign * q for j, q in g.items()}, beta, new))
                    bound[t, sign] = new, beta
        assert seen >= {(lp.OPTIMAL, True), (lp.OPTIMAL, False), (lp.INFEASIBLE, False)}
        assert answers == {None, True, False}
        return h.hexdigest()

    def test_corpus_hash_matches_the_recorded_warm_start_path(self, monkeypatch):
        assert self._digest(monkeypatch) == self.PINNED
