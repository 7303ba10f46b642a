import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import rand_rational
from relucert import lp
from relucert.store import NormRow, NormalizedSystem

ZERO = F(0)


def _system(rows):
    """rows: list of (coef dict, rhs); ids assigned positionally."""
    n = max((j for row, _ in rows for j in row), default=-1) + 1
    return NormalizedSystem(
        [NormRow(dict(row), F(rhs), ("c", i, "le")) for i, (row, rhs) in enumerate(rows)], n)


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
    dense = [([r.row.get(j, ZERO) for j in range(n)], r.rhs) for r in sys.rows]
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
                for j, a in row.row.items():
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
            for j, a in row.row.items():
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
            lp._self_check_farkas(sys, {("c", 0, "le"): F(1)})  # lambda^T A != 0

    def test_dual_bound_must_equal_the_optimum(self):
        sys = _system([({0: F(1)}, 1)])
        lp._self_check_dual(sys, {0: F(1)}, {("c", 0, "le"): F(1)}, F(1))
        with pytest.raises(lp.SelfCheckFailed):
            lp._self_check_dual(sys, {0: F(1)}, {("c", 0, "le"): F(1)}, F(2))
        with pytest.raises(lp.SelfCheckFailed):
            lp._self_check_dual(sys, {0: F(-1)}, {("c", 0, "le"): F(-1)}, F(-1))

    def test_primal_point_off_a_row_by_the_least_amount_raises(self):
        # 3x - y/7 <= 2/5 and y <= 1, with y = 1/3: the first row holds with
        # equality at x = 47/315 and fails for x only 1/10**40 larger
        sys = _system([({0: F(3), 1: F(-1, 7)}, F(2, 5)), ({1: F(1)}, 1)])
        lp._Tableau(sys).check_primal({0: F(1, 7), 1: F(1, 3)})
        x_on = (F(2, 5) + F(1, 21)) / 3
        assert x_on == F(47, 315)
        lp._Tableau(sys).check_primal({0: x_on, 1: F(1, 3)})
        with pytest.raises(lp.SelfCheckFailed, match="violates row"):
            lp._Tableau(sys).check_primal({0: x_on + F(1, 10**40), 1: F(1, 3)})

    def test_primal_point_on_a_row_boundary_passes(self):
        # x + y <= 1 and -x <= -1/3 hold with equality at (1/3, 2/3); an
        # absent coordinate is zero, and 0 <= 0 holds too
        sys = _system([({0: F(1), 1: F(1)}, 1), ({0: F(-1)}, F(-1, 3)),
                       ({2: F(5, 3)}, 0)])
        lp._Tableau(sys).check_primal({0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(lp.SelfCheckFailed, match="violates row"):
            lp._Tableau(sys).check_primal({0: F(1, 3), 1: F(2, 3), 2: F(1, 10**40)})


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


class TestIntegerTableau:
    """Edge cases of the integer-row tableau."""

    def test_ratio_tie_leaves_by_smaller_basic_index(self):
        # x >= 1 (row 0, artificial basic, column 3) and x <= 1 (row 1, slack
        # basic, column 2) both bound x at ratio 1; the slack has the smaller
        # index and leaves although its row comes second
        tab = lp._Tableau(_system([({0: F(-1)}, -1), ({0: F(1)}, 1)]))
        assert tab.basis == [3, 2]
        tab.run({3: F(-1)}, max_iters=1, forbid_artificials=False)
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
        # are linearly dependent, yet each row keeps a nonzero slack entry,
        # so every artificial is pivoted out and no row is dropped
        rows = [({0: F(1)}, F(3, 2)), ({0: F(-1)}, F(-3, 2))] * 2
        sys = _system(rows)
        out = lp.lp_max(sys, {0: F(2)})
        assert (out.status, out.value) == (lp.OPTIMAL, F(3))
        tab, phase1 = lp._phase1(sys, lp.DEFAULT_MAX_ITERS)
        assert phase1 is None and tab.drop_artificials(lp.DEFAULT_MAX_ITERS)
        assert len(tab.T) == tab.m == 4
        assert not any(tab.is_artificial(b) for b in tab.basis)
        assert all(any(row[tab.n:tab.n + tab.m]) for row in tab.T)

    def test_rows_stay_in_lowest_terms_after_every_pivot(self, monkeypatch):
        pivot = lp._Tableau._pivot
        pivots = 0

        def checked(tab, r, j):
            nonlocal pivots
            res = pivot(tab, r, j)
            pivots += 1
            assert len(tab.T) == len(tab.D) == len(tab.basis) == tab.m
            for row, den, b in zip(tab.T, tab.D, tab.basis):
                assert len(row) == tab.ncols + 1
                assert den > 0 and math.gcd(den, *row) == 1
                assert row[b] == den  # basic column reads 1 in its row ...
                assert sum(1 for other in tab.T if other[b]) == 1  # ... and 0 elsewhere
            return res

        monkeypatch.setattr(lp._Tableau, "_pivot", checked)
        rng = random.Random(48)
        for _ in range(30):
            sys, g = _boxed_random_system(rng, n_extra=6, max_den=9)
            lp.lp_max(sys, g)
            lp.lp_feasible(sys)
        assert pivots >= 100
