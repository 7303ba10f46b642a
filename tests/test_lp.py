import itertools
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
