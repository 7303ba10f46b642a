import random
from fractions import Fraction as F
from math import gcd

import pytest

from conftest import layout_of, norm_row, worked_network, worked_prop, worked_region
from relucert import certs
from relucert.certs import (
    DualBoundCertificate,
    FarkasCertificate,
    GuardedCertificate,
    check_dual,
    check_farkas,
    check_guarded,
    extend_with_guards,
)
from relucert.model import ACTIVE, INACTIVE
from relucert.rows import GuardLiteral, NormalizedSystem
from relucert.store import build_initial_store


def _sys(rows):
    n = max((j for row, _ in rows for j in row), default=-1) + 1
    return NormalizedSystem(
        [norm_row(dict(row), F(rhs), ("c", i, "le")) for i, (row, rhs) in enumerate(rows)], n)


def hand_infeasible_system():
    """z1 <= 1, -z2 <= 0, -z1 + z2 + y <= 0, -y <= -11/10 over v = (z1, z2, y).

    Infeasible: chaining gives y <= z1 <= 1, yet the last row demands
    y >= 11/10.  The all-ones multiplier vector refutes it.
    """
    return _sys([
        ({0: F(1)}, F(1)),
        ({1: F(-1)}, F(0)),
        ({0: F(-1), 1: F(1), 2: F(1)}, F(0)),
        ({2: F(-1)}, F(-11, 10)),
    ])


ALL_ONES = FarkasCertificate.make({("c", i, "le"): F(1) for i in range(4)})


class TestFarkasChecker:
    def test_all_ones_vector_accepted(self):
        assert check_farkas(hand_infeasible_system(), ALL_ONES).ok

    def test_combination_values_are_exact(self):
        sys = hand_infeasible_system()
        combo, rhs = certs._combine(sys, ALL_ONES.multipliers)
        assert combo == {}
        assert rhs == F(-1, 10)

    def test_negative_multiplier_rejected(self):
        bad = FarkasCertificate.make({("c", 0, "le"): F(-1)})
        res = check_farkas(hand_infeasible_system(), bad)
        assert not res.ok and "negative" in res.reason

    def test_nonzero_combination_rejected(self):
        bad = FarkasCertificate.make({("c", 0, "le"): F(1)})
        res = check_farkas(hand_infeasible_system(), bad)
        assert not res.ok and res.reason == "lambda^T A != 0"

    def test_nonnegative_rhs_rejected(self):
        # dropping the last row flips lambda^T b to +1 >= 0
        sys = _sys([
            ({0: F(1)}, F(1)),
            ({0: F(-1)}, F(0)),
        ])
        bad = FarkasCertificate.make({("c", 0, "le"): F(1), ("c", 1, "le"): F(1)})
        res = check_farkas(sys, bad)
        assert not res.ok and "not < 0" in res.reason

    def test_unknown_row_rejected(self):
        bad = FarkasCertificate.make({("c", 99, "le"): F(1)})
        res = check_farkas(hand_infeasible_system(), bad)
        assert not res.ok and "unknown row" in res.reason


class TestDualChecker:
    def _bound_system(self):
        # x <= 2 and y - x <= 1 prove y <= 3
        return _sys([({0: F(1)}, F(2)), ({1: F(1), 0: F(-1)}, F(1))])

    def test_valid_bound_accepted(self):
        cert = DualBoundCertificate.make(
            {1: F(1)}, F(3), {("c", 0, "le"): F(1), ("c", 1, "le"): F(1)})
        assert check_dual(self._bound_system(), cert).ok

    def test_slack_in_the_bound_is_allowed(self):
        cert = DualBoundCertificate.make(
            {1: F(1)}, F(100), {("c", 0, "le"): F(1), ("c", 1, "le"): F(1)})
        assert check_dual(self._bound_system(), cert).ok

    def test_too_tight_bound_rejected(self):
        cert = DualBoundCertificate.make(
            {1: F(1)}, F(2), {("c", 0, "le"): F(1), ("c", 1, "le"): F(1)})
        res = check_dual(self._bound_system(), cert)
        assert not res.ok and "> bound" in res.reason

    def test_objective_mismatch_rejected(self):
        cert = DualBoundCertificate.make(
            {0: F(1)}, F(3), {("c", 0, "le"): F(1), ("c", 1, "le"): F(1)})
        res = check_dual(self._bound_system(), cert)
        assert not res.ok and res.reason == "lambda^T A != g^T"

    def test_zero_entries_normalized_out_of_the_certificate(self):
        cert = DualBoundCertificate.make(
            {0: F(0), 1: F(1)}, F(3),
            {("c", 0, "le"): F(1), ("c", 1, "le"): F(1), ("c", 99, "le"): F(0)})
        assert dict(cert.objective) == {1: F(1)}
        assert len(cert.multipliers) == 2


class TestGuardedChecker:
    def _store(self, alpha):
        net, prop = worked_network(), worked_prop()
        return build_initial_store(net, layout_of(net, prop), worked_region(), prop, alpha)

    def test_extend_with_guards_appends_resolvable_rows(self):
        store = self._store({})
        base = store.normalize()
        lit = GuardLiteral((1, 0), ACTIVE)
        sys = extend_with_guards(base, store.layout, [lit])
        assert len(sys) == len(base) + 3
        assert sys.resolve(("g", 1, 0, ACTIVE, 2)) is not None

    @pytest.mark.parametrize("lit, error", [
        (GuardLiteral((9, 9), ACTIVE), "ValueError('(9, 9) is not a ReLU unit')"),
        (GuardLiteral((2, 0), ACTIVE), "ValueError('(2, 0) is not a ReLU unit')"),
        (GuardLiteral((1, 0), "bogus"), "ValueError(\"unknown phase 'bogus'\")"),
    ], ids=["unknown-unit", "unit-without-a-relu", "unknown-phase"])
    def test_guard_without_rows_rejected(self, lit, error):
        """A guard that `guard_rows` refuses is a rejection, not a raise."""
        store = self._store({})
        cert = GuardedCertificate.make([lit], FarkasCertificate.make({}))
        res = check_guarded(store.normalize(), store.layout, cert)
        assert not res.ok and res.reason == f"guard without rows: {error}", res

    def test_guarded_refutation_of_both_inactive(self):
        """With both units inactive, y = 0 yet the query demands y >= 11/10."""
        from relucert import lp

        store = self._store({})
        guards = [GuardLiteral((1, 0), INACTIVE), GuardLiteral((1, 1), INACTIVE)]
        sys = extend_with_guards(store.normalize(), store.layout, guards)
        out = lp.lp_feasible(sys)
        assert out.status == lp.INFEASIBLE
        cert = GuardedCertificate.make(guards, FarkasCertificate.make(out.dual))
        assert check_guarded(store.normalize(), store.layout, cert).ok
        # the same certificate without its guard rows must fail
        assert not check_farkas(store.normalize(), cert.inner).ok

    def test_guards_stored_in_canonical_order(self):
        a = GuardedCertificate.make(
            [GuardLiteral((1, 1), ACTIVE), GuardLiteral((1, 0), INACTIVE)],
            FarkasCertificate.make({}))
        assert [g.unit for g in a.guards] == [(1, 0), (1, 1)]


class TestOperationCounter:
    def _chain(self, m):
        """m rows x_{i+1} - x_i <= 1 plus x_0 <= 0; all-ones lambda proves
        x_m <= m.  nnz grows linearly in m."""
        rows = [({0: F(1)}, F(0))]
        for i in range(m):
            rows.append(({i + 1: F(1), i: F(-1)}, F(1)))
        sys = _sys(rows)
        cert = DualBoundCertificate.make(
            {m: F(1)}, F(m), {("c", i, "le"): F(1) for i in range(m + 1)})
        return sys, cert

    def test_counter_counts_multiplications(self):
        sys, cert = self._chain(10)
        certs.counter.reset()
        assert check_dual(sys, cert).ok
        assert certs.counter.mults > 0

    def test_cost_scales_linearly_with_nonzeros(self):
        costs = {}
        for m in (10, 100, 1000):
            sys, cert = self._chain(m)
            nnz = sum(len(r.ints[1]) for r in sys.rows)
            certs.counter.reset()
            assert check_dual(sys, cert).ok
            costs[m] = certs.counter.mults / nnz
        assert costs[100] <= costs[10] * F(12, 10)
        assert costs[1000] <= costs[100] * F(12, 10)


#: mixed denominators, small and large, for the reference systems below
_DENS = (1, 2, 3, 7, 10, 12, 2**31 - 1, 10**20)
_STEP = F(1, 10**40)


def _reference_combine(rows, multipliers):
    """lambda^T A (its nonzeros) and lambda^T b by plain Fraction sums over
    `rows`, each row id's (a, b) as rationals."""
    acc, rhs = {}, F(0)
    for rid, m in multipliers:
        row, b = rows[rid]
        for j, a in row.items():
            acc[j] = acc.get(j, F(0)) + m * a
        rhs += m * b
    return {j: v for j, v in acc.items() if v}, rhs


def _rand_row(rng, n):
    return {j: F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice(_DENS))
            for j in rng.sample(range(n), rng.randint(1, n))}


def _reference_cases(seed, count=40):
    """Seeded systems with their multiplier vectors and their rows as
    rationals by id, some entries 0 (a move down makes them negative).  The last row is minus the combination of the
    others, with its rhs 1/7 below minus theirs, so the vector with 1 on it
    is a Farkas certificate."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        rows = [(_rand_row(rng, n), F(rng.randint(-30, 30), rng.choice(_DENS)))
                for _ in range(rng.randint(1, 7))]
        lam = [F(rng.randint(0, 20), rng.choice(_DENS)) for _ in rows]
        rational = {("c", i, "le"): row for i, row in enumerate(rows)}
        combo, rhs = _reference_combine(rational, list(zip(rational, lam)))
        if combo:
            rational[("c", len(rows), "le")] = ({j: -v for j, v in combo.items()},
                                                -rhs - F(1, 7))
            lam.append(F(1))
        norm = [norm_row(row, rhs, rid) for rid, (row, rhs) in rational.items()]
        yield NormalizedSystem(norm, n), list(zip(rational, lam)), rational


def _moved(multipliers):
    """The vector itself, then each multiplier moved by +-1/10**40 in turn."""
    yield multipliers
    for k in range(len(multipliers)):
        for step in (_STEP, -_STEP):
            out = list(multipliers)
            out[k] = (out[k][0], out[k][1] + step)
            yield out


class TestIntegerCombination:
    """The integer `_combine` and the checkers built on it against a plain
    Fraction accumulation written here."""

    def test_combine_equals_the_fraction_reference(self):
        for sys, lam, rational in _reference_cases(11):
            for moved in _moved(lam):
                certs.counter.reset()
                assert certs._combine(sys, moved) == _reference_combine(rational, moved)
                assert certs.counter.mults == sum(len(rational[rid][0]) + 1
                                                  for rid, _ in moved)

    def test_checkers_agree_with_the_reference(self):
        seen, negative = set(), 0
        for sys, lam, rational in _reference_cases(12):
            # a dual objective and bound from the unmoved vector less its last entry
            g, bound = _reference_combine(rational, lam[:-1])
            for moved in _moved(lam):
                combo, rhs = _reference_combine(rational, moved)
                negative += any(m < 0 for _, m in moved)
                farkas = check_farkas(sys, FarkasCertificate(tuple(moved)))
                assert farkas.ok == (all(m >= 0 for _, m in moved) and not combo and rhs < 0)
                seen.add(("farkas", farkas.ok))
                for b in (bound - _STEP, bound, bound + _STEP):
                    dual = check_dual(sys, DualBoundCertificate(tuple(g.items()), b,
                                                                tuple(moved[:-1])))
                    want_combo, want_rhs = _reference_combine(rational, moved[:-1])
                    want = (all(m >= 0 for _, m in moved[:-1]) and want_combo == g
                            and want_rhs <= b)
                    assert dual.ok == want
                    assert dual.value == (want_rhs if want else None)
                    seen.add(("dual", want))
        assert seen == {(kind, ok) for kind in ("farkas", "dual") for ok in (True, False)}
        assert negative

    def test_norm_row_ints_rebuild_each_row_in_lowest_terms(self):
        for sys, _, rational in _reference_cases(13):
            for r in sys.rows:
                den, coeffs, b = r.ints
                assert den > 0 and gcd(den, b, *coeffs.values()) == 1
                assert ({j: F(a, den) for j, a in coeffs.items()}, F(b, den)) == rational[r.rid]
                assert r.rhs == rational[r.rid][1]
