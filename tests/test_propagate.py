import random
from collections import Counter
from fractions import Fraction as F
from math import ceil, floor

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    layout_of,
    random_instance,
    rational_row,
    trace_vector,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import certs, lp, prooflog, propagate
from relucert.budget import Budget, Exhausted
from relucert.model import (
    ACTIVE,
    IDENTITY,
    INACTIVE,
    RELU,
    Layer,
    Network,
    Region,
    SafetyProperty,
    build_layout,
    forward_eval,
)
from relucert.propagate import (
    NotUnstable,
    back_substitution,
    ensure_relaxation,
    hull_insert,
    ROUNDING,
    propagate_node,
    simplest_in,
    stabilize,
    tgct,
)
from relucert.rows import GuardLiteral, guard_rows
from relucert.store import Store, build_initial_store, interval_bounds


def back_substitute(store):
    """The refutation of the store's back-substituted sum, if any."""
    return back_substitution(store).refutation(store)


def _store(threshold="1", alpha=None, region=None):
    net = worked_network()
    prop = worked_prop(threshold)
    return build_initial_store(net, layout_of(net, prop), region or worked_region(),
                               prop, alpha or {})


def _random_store(rng):
    net, region, prop = random_instance(rng)
    return build_initial_store(net, build_layout(net, prop), region, prop, {})


def _certificates_since(store, start):
    """The dual certificates of the derived rows added after the store's
    first `start` rows."""
    return [store.constraints[cid].derivation[1] for cid in list(store.constraints)[start:]
            if store.constraints[cid].derivation[0] == "derived"]


def _holds(r, point):
    """The normalized row holds at the point."""
    _, coeffs, b = r.ints
    return sum((a * point.get(j, F(0)) for j, a in coeffs.items()), F(0)) <= b


def _check_seed(net, region, prop, alpha, points):
    """The store of the scope, relaxed; its bounds, the solver's seed
    `interval_bounds` and the seed `check` sums for the same scope, each
    end (num, den) in lowest terms, are one interval per ReLU unit, which
    holds on each of the box's `points` whose trace agrees with `alpha`.
    Returns the store."""
    store = build_initial_store(net, build_layout(net, prop), region, prop, alpha)
    ensure_relaxation(store)
    seed = {u: interval_bounds(net, region, alpha)[u] for u in net.hidden_units}
    assert store.bounds.pre == seed
    pre = store.layout.pre_index
    assert prooflog._seed(prooflog._Problem(net, region, prop), region, alpha) == {
        pre(u): ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
        for u, (lo, hi) in seed.items()}
    for x in points:
        point = trace_vector(net, store.layout, x)
        if all(point[pre(u)] >= 0 if phase == ACTIVE else point[pre(u)] <= 0
               for u, phase in alpha.items()):
            for unit, (lo, hi) in seed.items():
                assert lo <= point[pre(unit)] <= hi, (unit, x)
    return store


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_width = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=2, max_denominator=12))


@st.composite
def _scopes(draw):
    """(net, region, alpha, points): 1-3 inputs, 1-3 hidden ReLU layers of
    1-3 units and an identity output, about a third of the weight rows all
    zero; a box whose edges may have zero width; phases committed on a
    random subset of the units, which may contradict a unit's interval;
    and the box's vertices (up to 8) and points inside it."""
    nin = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    layers, prev = [], nin
    for width in widths + [1]:
        zero = tuple(F(0) for _ in range(prev))
        rows = tuple(draw(st.sampled_from((True, False, False)).flatmap(
            lambda z: st.just(zero) if z else st.tuples(*[_coeff] * prev))) for _ in range(width))
        bias = tuple(draw(_coeff) for _ in range(width))
        layers.append(Layer(rows, bias, RELU if len(layers) < len(widths) else IDENTITY))
        prev = width
    net = Network(tuple(layers), nin, 1)
    lo = tuple(draw(_coeff) for _ in range(nin))
    hi = tuple(v + draw(_width) for v in lo)
    units = net.hidden_units
    alpha = {u: draw(st.sampled_from((ACTIVE, INACTIVE)))
             for u in draw(st.lists(st.sampled_from(units), unique=True))}
    vertices = [tuple(hi[k] if m >> k & 1 else lo[k] for k in range(nin))
                for m in range(1 << nin)]
    inside = [tuple(a + t * (b - a) for a, b, t in zip(lo, hi, ts)) for ts in draw(
        st.lists(st.tuples(*[st.fractions(0, 1, max_denominator=8)] * nin), max_size=3))]
    return net, Region(lo, hi), alpha, vertices + inside


def _chain(*biases):
    """A chain of one-unit ReLU layers s_i = z_{i-1} + b_i over x in [0, 1],
    with an identity output."""
    layers = [Layer(((F(1),),), (F(b),), RELU) for b in biases]
    return Network(tuple(layers) + (Layer(((F(1),),), (F(0),), IDENTITY),), 1, 1)


#: (1, 0) committed active over s in [-2, -1] gives z the crossed [0, -1];
#: (2, 0), uncommitted, then has s in [1, 0], both lo >= 0 and hi <= 0,
#: which the seed reads as active (lo >= 0 first), so (3, 0) has [1, 0]
_CROSSED_TIE = (_chain(-2, 1, 0), Region((F(0),), (F(1),)), {(1, 0): ACTIVE}, [(F(0),), (F(1),)])


class TestHullInsertion:
    def test_rejects_units_with_settled_sign(self):
        store = _store()
        ensure_relaxation(store)
        store.bounds.pre[(1, 0)] = (F(0), F(1))
        with pytest.raises(NotUnstable):
            hull_insert(store, (1, 0))

    def test_four_rows_installed(self):
        store = _store()
        ensure_relaxation(store)
        assert len(store.hull_ids[(1, 0)]) == 4
        assert store.hull_bounds[(1, 0)] == (F(-1), F(1))

    def test_reinsertion_retires_the_stale_envelope(self):
        store = _store()
        ensure_relaxation(store)
        old = list(store.hull_ids[(1, 0)])
        store.bounds.pre[(1, 0)] = (F(-1, 2), F(1, 2))
        new = hull_insert(store, (1, 0))
        assert set(old).isdisjoint(new)
        assert all(cid in store.retired for cid in old)

    def test_envelope_contains_the_exact_relu_graph(self):
        store = _store()
        ensure_relaxation(store)
        net, layout = store.net, store.layout
        for t in range(9):
            x = F(t, 8)
            point = trace_vector(net, layout, (x,))
            for unit in ((1, 0), (1, 1)):
                for cid in store.hull_ids[unit]:
                    assert all(_holds(r, point) for r in store.constraints[cid].sides)


class TestBoundRows:
    """A unit's interval starts at the seed of the node's scope,
    `store.interval_bounds`, which `check` sums again with its own code
    (`prooflog._seed`); no row states it."""

    def test_bound_rows_match_interval_arithmetic(self):
        store = _store()
        ensure_relaxation(store)
        assert store.bounds.pre[(1, 0)] == (F(-1), F(1))
        assert store.bounds.pre[(1, 1)] == (F(-1, 2), F(1, 2))
        assert not store.bound_rows
        assert all(c.derivation[0] != "interval" for c in store.constraints.values())

    @settings(max_examples=200, deadline=None)
    @given(_scopes())
    @example(_CROSSED_TIE)
    def test_checker_seed_is_the_solvers_and_holds_on_traces(self, scope):
        # if the two sums ever differ, `check` rebuilds hull rows over
        # another interval than the store's and REJECTs the proof
        net, region, alpha, points = scope
        prop = SafetyProperty(((0, F(1)),), F(0), F(1, 10))
        _check_seed(net, region, prop, alpha, points)

    def test_crossed_seed_is_the_checkers_and_prunes(self):
        # acceptance-suite instance 4 under a scope that commits (2, 0),
        # whose s is -1/2, active: its z has the crossed interval [0, -1/2],
        # so (3, 0)'s is crossed too, a legal seed that propagation prunes
        from test_acceptance import _spec_suite

        net, region, prop = _spec_suite(5)[4]
        alpha = {(1, 1): INACTIVE, (2, 0): ACTIVE}
        store = _check_seed(net, region, prop, alpha, ())
        assert store.bounds.pre[(3, 0)] == (F(-11, 16), F(-5, 4))
        store = build_initial_store(net, store.layout, region, prop, alpha)
        res = propagate_node(store, Budget())
        assert res.status == "prune"
        assert certs.check_farkas(store.normalize(), res.farkas).ok


class TestIntervalRowsStayOutOfLps:
    """`relucert-proof-8` wrote a unit's seed interval as two rows that no
    LP read, since the rows an LP reads imply them.  No store holds such a
    row now.  On the first 20 acceptance-suite problems, at the root and
    under each one-unit commitment of a root-unstable unit, after
    propagation with either template set: no row is tagged `interval`;
    each ReLU unit's seed holds on the rows an LP reads (or those rows are
    infeasible), so leaving it out moves no LP; and every variable has a
    maximum and a minimum over them, the bounded precondition of `lp`.
    Acceptance-suite instance 4 under the crossed scope
    {(1, 1): inactive, (2, 0): active} still prunes, with a Farkas
    certificate `check_farkas` accepts over the store's rows."""

    def _scopes(self):
        from test_acceptance import _root_unstable, _spec_suite

        suite = _spec_suite(20)
        for net, region, prop in suite:
            yield net, region, prop, {}
            for unit in _root_unstable(net, region):
                for phase in (ACTIVE, INACTIVE):
                    yield net, region, prop, {unit: phase}
        net, region, prop = suite[4]
        yield net, region, prop, {(1, 1): INACTIVE, (2, 0): ACTIVE}

    def test_interval_rows_are_implied_and_left_out(self):
        seen = {"implied": 0, "infeasible": 0, "variables": 0}
        for templates in ("default", "margin-only"):
            for net, region, prop, alpha in self._scopes():
                store = build_initial_store(net, build_layout(net, prop), region, prop, alpha)
                res = propagate_node(store, Budget(), templates=templates, margin=bool(alpha))
                kinds = {c.derivation[0] for c in store.constraints.values()}
                assert "interval" not in kinds, (alpha, templates)
                sys = store.normalize()
                if alpha == {(1, 1): INACTIVE, (2, 0): ACTIVE}:
                    assert res.status == "prune"
                    assert certs.check_farkas(sys, res.farkas).ok
                if lp.lp_feasible(sys).status == lp.INFEASIBLE:
                    seen["infeasible"] += 1
                    continue
                for unit, (lo, hi) in interval_bounds(net, region, alpha).items():
                    if unit not in net.hidden_units:
                        continue
                    s = store.layout.pre_index(unit)
                    top, bottom = lp.lp_max(sys, {s: F(1)}), lp.lp_min(sys, {s: F(1)})
                    assert top.status == bottom.status == lp.OPTIMAL, (alpha, unit)
                    assert lo <= bottom.value and top.value <= hi, (alpha, unit)
                    seen["implied"] += 2
                for j in range(store.layout.n_vars):
                    for solve in (lp.lp_max, lp.lp_min):
                        assert solve(sys, {j: F(1)}).status == lp.OPTIMAL, (alpha, j)
                    seen["variables"] += 1
        assert seen["implied"] >= 500 and seen["infeasible"] >= 5, seen


class TestStabilization:
    def test_half_domain_pins_both_units(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        stab = ensure_relaxation(store)
        assert dict(stab) == {(1, 0): ACTIVE, (1, 1): INACTIVE}
        assert not store.unstable
        # the seed proves the sign, with no row
        assert store.bounds.pre == {(1, 0): (F(0), F(1)), (1, 1): (F(-1, 2), F(0))}
        assert not store.bound_rows

    def test_specialization_replaces_the_hull(self):
        from relucert.model import Region

        store = _store(region=Region((F(1, 2),), (F(1),)))
        ensure_relaxation(store)
        assert (1, 0) not in store.hull_ids
        assert store.phases == {(1, 0): ACTIVE, (1, 1): INACTIVE}

    def test_stabilize_uses_tightened_bounds(self):
        store = _store()
        ensure_relaxation(store)
        # certified tightening settles the sign of unit (1,1)
        store.bounds.tighten((1, 1), hi=F(0))
        out = stabilize(store)
        assert out == [((1, 1), INACTIVE)]
        assert (1, 1) not in store.unstable

    def test_each_stabilized_unit_adds_one_row_its_active_bound_row_implies(self, monkeypatch):
        # the phase equality alone: the guard's sign row would repeat what
        # the unit's active bound already proves, its seed or the derived
        # row that bounds it on the side of the sign
        specialize = propagate._specialize

        def one_row(store, unit, phase):
            n = len(store.constraints)
            out = specialize(store, unit, phase)
            assert len(store.constraints) == n + 1
            return out

        monkeypatch.setattr(propagate, "_specialize", one_row)
        stabilized = Counter()
        rng = random.Random(17)
        for _ in range(40):
            store = _random_store(rng)
            seed = interval_bounds(store.net, store.region, {})
            propagate_node(store, Budget())
            rows = {cid: c for cid, c in store.constraints.items()
                    if c.derivation[0] == "stabilize"}
            assert sorted(c.derivation[1] for c in rows.values()) == sorted(store.phases)
            for cid, c in rows.items():
                _, unit, phase = c.derivation
                eq = guard_rows(store.layout, GuardLiteral(unit, phase))[0]
                assert [r.ints for r in c.sides] == eq
                assert store.phase_ids[unit] == cid
                lo, hi = seed[unit]
                if (lo if phase == ACTIVE else -hi) >= 0:
                    assert (unit, phase == INACTIVE) not in store.bound_rows
                    stabilized["seed"] += 1
                    continue
                sign_cid = store.bound_rows[unit, phase == INACTIVE]
                assert sign_cid < cid and sign_cid not in store.retired
                assert store.constraints[sign_cid].sides[0].rhs <= 0
                stabilized["derived"] += 1
        assert stabilized["seed"] >= 80 and stabilized["derived"] >= 4, stabilized


class TestTgct:
    def test_tighter_bounds_recorded_with_certificates(self):
        store = _store("1/2")  # satisfiable variant: tightening proceeds
        ensure_relaxation(store)
        budget = Budget()
        start = len(store.constraints)
        res = tgct(store, sorted(store.unstable), budget)
        assert res.farkas is None
        added = _certificates_since(store, start)
        assert res.rows_added == len(added) > 0
        sys = store.normalize()
        for cert in added:
            assert certs.check_dual(sys, cert).ok

    def test_bounds_are_optima_rounded_outward(self, monkeypatch):
        # over the propagation of random stores, each derived row's bound is
        # `simplest_in` of [v, v + (hi - lo) / ROUNDING], v its LP's optimum
        # and [lo, hi] the unit's interval before the LP: at least v, so
        # its certificate proves it; at most 0 exactly when v is; and
        # written only where it is strictly tighter than that interval
        real_tgct, real_max = propagate.tgct, lp.lp_max
        call = None  # (store, (objective, optimum, unit's interval) of each LP)
        seen = Counter()

        def tightening(store, units, budget):
            nonlocal call
            start = len(store.constraints)
            call = (store, [])
            try:
                res = real_tgct(store, units, budget)
            finally:
                lps = call[1]
                call = None
            derived = [store.constraints[cid].derivation[1]
                       for cid in list(store.constraints)[start:]]
            for g, value, (lo, hi) in lps:
                if value is None:
                    continue
                bound = simplest_in(value, value + (hi - lo) / ROUNDING)
                (sign,) = g.values()
                written = [c for c in derived if c.objective_dict == g]
                if bound < (hi if sign > 0 else -lo):
                    cert, = written
                    assert cert.bound == bound and (bound <= 0) == (value <= 0)
                    seen["rounded"] += bound != value
                    seen["rows"] += 1
                else:
                    assert not written
            return res

        def solving(sys, g, warm=None):
            out = real_max(sys, g, warm)
            if call is not None:
                store, lps = call
                (j, _), = g.items()
                unit = next(u for u in store.bounds.pre if store.layout.pre_index(u) == j)
                lps.append((g, out.value, store.bounds.pre[unit]))
            return out

        monkeypatch.setattr(propagate, "tgct", tightening)
        monkeypatch.setattr(lp, "lp_max", solving)
        rng = random.Random(33)
        for _ in range(200):
            propagate_node(_random_store(rng), Budget())
        assert seen["rows"] >= 20 and seen["rounded"] >= seen["rows"] // 2, seen

    def test_row_budget_per_call(self):
        store = _store("1/2")
        ensure_relaxation(store)
        units = sorted(store.unstable)
        res = tgct(store, units, Budget())
        assert res.rows_added <= 2 * len(units)

    def test_saturation_second_call_adds_nothing(self):
        store = _store("1/2")
        ensure_relaxation(store)
        units = sorted(store.unstable)
        tgct(store, units, Budget())
        start = len(store.constraints)
        again = tgct(store, units, Budget())
        assert again.rows_added == 0 and _certificates_since(store, start) == []

    def test_superseded_rows_are_retired_not_duplicated(self):
        store = _store("1/2")
        ensure_relaxation(store)
        before = {cid for cid, _ in store.active_constraints()}
        res = tgct(store, sorted(store.unstable), Budget())
        active = {cid for cid, _ in store.active_constraints()}
        # net growth is bounded by rows added minus retirements
        assert len(active) <= len(before) + res.rows_added

    def test_retires_only_superseded_bound_rows(self):
        # over the propagation of random stores, each retired row that is no
        # stale hull row is a derived row on a unit's pre-activation that a
        # later, strictly tighter derived row on the same side supersedes:
        # the one `bound_rows` names, which stays active
        rng = random.Random(17)
        superseded = 0
        for _ in range(200):
            store = _random_store(rng)
            propagate_node(store, Budget())
            units = {store.layout.pre_index(u): u for u in store.bounds.pre}
            for cid in store.bound_rows.values():
                assert cid not in store.retired
                assert store.constraints[cid].derivation[0] == "derived"
            for cid in sorted(store.retired):
                c = store.constraints[cid]
                if c.derivation[0] == "hull":
                    continue
                assert c.derivation[0] == "derived", c.derivation
                (j, a), = c.sides[0].ints[1].items()
                new = store.bound_rows[units[j], a > 0]
                assert new > cid and store.constraints[new].sides[0].rhs < c.sides[0].rhs
                superseded += 1
        assert superseded >= 5, superseded

    def test_every_lp_of_a_call_solves_the_calls_system(self, monkeypatch):
        # over the propagation of random stores, every LP of a TGCT call
        # runs on the one system of the rows active when the call began,
        # and its status and value are those of a cold LP over the store's
        # rows just before it, which the call may have changed by then;
        # each derived row's certificate cites only rows older than the call
        real_tgct, real_max = propagate.tgct, lp.lp_max
        call = None  # (store, the systems of the call's LPs)
        seen = Counter()

        def tightening(store, units, budget):
            nonlocal call
            units = list(units)
            start = len(store.constraints)
            active = [cid for cid, _ in store.active_constraints()]
            call = (store, [])
            try:
                res = real_tgct(store, units, budget)
            finally:
                systems = call[1]
                call = None
            assert all(sys is systems[0] for sys in systems)
            if systems:
                assert list(dict.fromkeys(r.rid[1] for r in systems[0].rows)) == active
            for cid in list(store.constraints)[start:]:
                derivation = store.constraints[cid].derivation
                assert derivation[0] == "derived"
                assert all(rid[1] < start for rid, _ in derivation[1].multipliers)
                seen["derived"] += 1
            seen["calls with 2+ units"] += len(units) >= 2
            return res

        def solving(sys, g, warm=None):
            if call is None:
                return real_max(sys, g, warm)
            store, systems = call
            systems.append(sys)
            now = store.normalize()
            cold = real_max(now, g)
            out = real_max(sys, g, warm)
            assert (out.status, out.value) == (cold.status, cold.value)
            seen["lps"] += 1
            seen["lps over changed rows"] += [r.rid for r in now.rows] != [r.rid for r in sys.rows]
            return out

        monkeypatch.setattr(propagate, "tgct", tightening)
        monkeypatch.setattr(lp, "lp_max", solving)
        rng = random.Random(33)
        for _ in range(400):
            propagate_node(_random_store(rng), Budget())
        assert seen["calls with 2+ units"] >= 20 and seen["lps over changed rows"] >= 20, seen

    def test_a_call_normalizes_the_store_once_and_only_with_a_unit(self, monkeypatch):
        normalize = Store.normalize
        counted = []

        def counting(store, *args, **kwargs):
            counted.append(store)
            return normalize(store, *args, **kwargs)

        monkeypatch.setattr(Store, "normalize", counting)
        store = _store("1/2")
        ensure_relaxation(store)
        assert tgct(store, [], Budget()).rows_added == 0 and counted == []
        res = tgct(store, sorted(store.unstable), Budget())
        assert res.rows_added > 0 and counted == [store]

    def test_budget_exhaustion_reported(self):
        store = _store("1/2")
        ensure_relaxation(store)
        budget = Budget(lp_limit=1)
        with pytest.raises(Exhausted):
            tgct(store, sorted(store.unstable), budget)
        assert budget.lp_calls == 1


class TestSimplestIn:
    """`simplest_in` against brute force over small denominators."""

    @staticmethod
    def _brute(a, b):
        # the first denominator q with a numerator p in [a q, b q], and the
        # p of least magnitude there
        q = 1
        while True:
            lo, hi = ceil(a * q), floor(b * q)
            if lo <= hi:
                return F(min(range(lo, hi + 1), key=abs), q)
            q += 1

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(3000):
            a = F(rng.randint(-80, 80), rng.randint(1, 60))
            b = a + F(rng.randint(0, 40), rng.randint(1, 400))
            got = simplest_in(a, b)
            assert a <= got <= b, (a, b, got)
            assert got == self._brute(a, b), (a, b, got)
            if a <= 0:
                assert got <= 0, (a, b, got)
            if a <= 0 <= b:
                assert got == 0, (a, b, got)

    def test_point_interval_is_its_point(self):
        for v in (F(0), F(3), F(-7, 3), F(173007221, 176886600)):
            assert simplest_in(v, v) == v

    def test_long_ends_give_a_short_rational(self):
        # a 1,000-bit optimum, rounded over a width of 2^-10, has a
        # denominator of at most 2^10
        v = F(3**629 + 1, 2**997)
        got = simplest_in(v, v + F(1, 2**10))
        assert v <= got <= v + F(1, 2**10) and got.denominator <= 2**10, got


class TestFixedPoint:
    def test_passes_are_bounded_by_the_relu_units(self):
        # after the first pass a pass goes on only if it stabilizes a unit,
        # so no node makes more than |ReLU units| + 2 passes
        rng = random.Random(34)
        passes = Counter()
        for k in range(1000):
            net, region, prop = random_instance(rng, max_hidden_layers=3)
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            res = propagate_node(store, Budget(), templates=("default", "margin-only")[k % 2],
                                 margin=k % 3 == 0)
            assert res.iterations <= len(net.hidden_units) + 2
            passes[res.iterations] += 1
        assert sum(n for p, n in passes.items() if p >= 3) >= 3, passes

    def test_worked_instance_prunes_with_checked_farkas(self):
        store = _store()
        res = propagate_node(store, Budget())
        assert res.status == "prune"
        assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_back_substitution_refutes_the_worked_store_with_no_lp(self):
        # y = z1 - z2 <= (s1 + 1)/2 - 0 = x <= 1 < 11/10, through the chord
        # of (1,0), z2 >= 0 and the affine and region rows: the query is
        # refuted before any LP, under either template setting
        for templates in ("default", "margin-only"):
            store = _store()
            budget = Budget()
            res = propagate_node(store, budget, templates=templates)
            assert res.status == "prune" and budget.lp_calls == 0
            cited = {(store.constraints[cid].derivation, side): m
                     for (_, cid, side), m in res.farkas.multipliers}
            assert cited == {(("negp",), "le"): 1, (("aff", 2, 0), "le"): 1,
                             (("hull", (1, 0), 2), "le"): 1, (("hull", (1, 1), 0), "le"): 1,
                             (("aff", 1, 0), "le"): F(1, 2), (("region", 0, "hi"), "le"): 1}
            assert certs.check_farkas(store.normalize(), res.farkas).ok

    def test_each_pass_pays_two_lps_per_templated_unit_and_one_feasibility_lp(self, monkeypatch):
        # default templates the units whose chord the pass's back-substitution
        # uses, margin-only none.  Only the last pass may skip its
        # feasibility LP: when it added no row, so that LP would see the rows
        # of the one before
        real = propagate.tgct
        for templates in ("default", "margin-only"):
            stores = [_store("1/2")] + [_random_store(random.Random(k)) for k in range(12)]
            opened = templated = 0
            for store in stores:
                budget = Budget()
                passes = []

                def spy(store, units, budget):
                    units = list(units)
                    passes.append([len(units), budget.lp_calls, len(store.constraints)])
                    out = real(store, units, budget)
                    passes[-1][2] = len(store.constraints) - passes[-1][2]
                    return out

                monkeypatch.setattr(propagate, "tgct", spy)
                res = propagate_node(store, budget, templates=templates)
                if res.status != "open":
                    continue
                opened += 1
                templated += sum(units for units, _, _ in passes)
                ends = [lps for _, lps, _ in passes[1:]] + [budget.lp_calls]
                closing = [end - start - 2 * units for (units, start, _), end in zip(passes, ends)]
                assert closing[:-1] == [1] * (len(passes) - 1)
                assert closing[-1] == 1 or (closing[-1] == 0 and passes[-1][2] == 0
                                            and len(passes) > 1)
                if templates == "margin-only":
                    assert closing == [1] * len(passes) and templated == 0
            assert opened >= 3 and (templated > 0) == (templates == "default")

    def test_sat_variant_stays_open_with_feasible_point(self):
        store = _store("1/2")
        res = propagate_node(store, Budget())
        assert res.status == "open"
        assert res.feasible_point is not None
        assert res.iterations >= 2  # reached the fixed point, not the pass cap

    def test_every_iteration_respects_the_row_budget(self, monkeypatch):
        # each pass's TGCT adds at most one row per side of a unit it tightens
        real = propagate.tgct
        calls = []

        def spy(store, units, budget):
            units = list(units)
            res = real(store, units, budget)
            calls.append((len(units), res.rows_added))
            return res

        monkeypatch.setattr(propagate, "tgct", spy)
        propagate_node(_store("1/2"), Budget())
        assert calls and all(added <= 2 * units for units, added in calls), calls
        assert any(added for _, added in calls)

    def test_margin_bound_made_after_an_early_refutation(self, monkeypatch):
        # back-substitution refutes the worked store with no LP; with
        # `margin` the node then makes the margin LP for its bound alone,
        # and keeps the refutation, unless the budget is spent, and then it
        # has no bound
        calls = []
        real = propagate._margin_lp

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(propagate, "_margin_lp", spy)
        fresh = _store()
        ensure_relaxation(fresh)
        refutation = back_substitute(fresh)
        store = _store()
        budget = Budget()
        res = propagate_node(store, budget, margin=True)
        assert res.status == "prune" and budget.lp_calls == 1 and len(calls) == 1
        assert res.farkas == refutation
        assert certs.check_dual(store.without_negp(), res.evidence).ok
        spent = Budget(lp_limit=0)
        res = propagate_node(_store(), spent, margin=True)
        assert res.status == "prune" and spent.lp_calls == 0 and res.evidence is None
        assert len(calls) == 1

    def test_open_nodes_keep_a_sound_relaxation(self):
        """The fixed-point store must still admit every true network trace."""
        rng = random.Random(9)
        checked = 0
        for _ in range(8):
            store = _random_store(rng)
            res = propagate_node(store, Budget())
            if res.status != "open":
                continue
            net, layout, region = store.net, store.layout, store.region
            x = tuple((lo + hi) / 2 for lo, hi in zip(region.lower, region.upper))
            margin = store.prop.margin_value(forward_eval(net, x).outputs)
            if margin < store.prop.violation_threshold:
                continue  # the negated-property row rightly excludes this trace
            point = trace_vector(net, layout, x)
            assert all(_holds(r, point) for r in store.normalize().rows)
            checked += 1
        # without tightening LPs the sat variant stays open too
        store = _store("1/2")
        res = propagate_node(store, Budget(), templates="margin-only")
        assert res.status == "open"


class TestChordSelection:
    """Each pass under default templates tightens exactly the unstable units
    whose hull chord that pass's back-substitution uses, at a positive
    multiplier (`Substitution.chord`)."""

    def test_each_pass_tightens_the_units_whose_chord_the_sum_uses(self, monkeypatch):
        real_sum, real_tgct = propagate.back_substitution, propagate.tgct
        sums = []
        seen = Counter()

        def summed(store):
            sums.append(real_sum(store))
            return sums[-1]

        def tightening(store, units, budget):
            units = list(units)
            lam = {u: sums[-1].chord(store, u) for u in store.unstable}
            assert all(m is not None for m in lam.values())
            assert units == sorted(u for u, m in lam.items() if m > 0)
            seen["selected"] += len(units)
            seen["left out"] += len(lam) - len(units)
            return real_tgct(store, units, budget)

        monkeypatch.setattr(propagate, "back_substitution", summed)
        monkeypatch.setattr(propagate, "tgct", tightening)
        rng = random.Random(5)
        for _ in range(200):
            sums.clear()
            propagate_node(_random_store(rng), Budget())
        assert seen["selected"] >= 20 and seen["left out"] >= 20, seen

    def test_a_unit_off_the_sum_gets_no_lp(self, monkeypatch):
        # the root of instance 57 with threshold + epsilon just below its
        # maximum margin: the sum leans on the chords of (2, 0) and (2, 2)
        # alone, and their four LPs stabilize both.  The second pass's sum
        # uses no chord, so it makes no TGCT LP, and its feasibility LP
        # would see the rows of the first pass's: it makes none, and the
        # node stays open at the first pass's point
        from test_search import tightened

        net, region, prop = tightened(57, F(-1, 1000))
        store = build_initial_store(net, layout_of(net, prop), region, prop, {})
        objectives = []
        real_max = lp.lp_max

        def solving(sys, g, *args, **kwargs):
            objectives.append(dict(g))
            return real_max(sys, g, *args, **kwargs)

        monkeypatch.setattr(lp, "lp_max", solving)
        sub = None

        def summed(store):
            nonlocal sub
            sub = back_substitution(store)
            return sub

        monkeypatch.setattr(propagate, "back_substitution", summed)
        budget = Budget()
        ensure_relaxation(store)
        first = back_substitution(store)
        lam = {u: first.chord(store, u) for u in store.unstable}
        assert lam == {(2, 0): F(7, 4), (2, 1): 0, (2, 2): F(4, 3), (2, 3): 0}
        res = propagate_node(store, budget)
        pre = store.layout.pre_index
        assert sorted(objectives, key=str) == sorted(
            ({pre(u): F(sign)} for u in ((2, 0), (2, 2)) for sign in (1, -1)), key=str)
        assert {(2, 0), (2, 2)} <= store.phases.keys() and store.unstable == {(2, 1), (2, 3)}
        assert all(sub.chord(store, u) == 0 for u in store.unstable)
        assert res.status == "open" and res.iterations == 2 and budget.lp_calls == 5
        assert res.feasible_point is not None


class TestBackSubstitution:
    """`back_substitute` sums the negated property with one row per
    variable; a certificate it returns refutes the store's rows."""

    def _stores(self):
        """The worked store, then random stores: with their relaxation
        installed, with a random phase committed for some units, and after
        a propagation that left them open (tightened hulls)."""
        store = _store()
        ensure_relaxation(store)
        yield store
        rng = random.Random(3)
        for k in range(60):
            net, region, prop = random_instance(rng)
            layout = build_layout(net, prop)
            alpha = {}
            if k % 3 == 1:
                alpha = {u: rng.choice((ACTIVE, INACTIVE)) for u in net.hidden_units
                         if rng.random() < 0.4}
            store = build_initial_store(net, layout, region, prop, alpha)
            if k % 3 == 2 and propagate_node(store, Budget()).status == "prune":
                continue
            ensure_relaxation(store)
            yield store

    def test_certificates_refute_the_rows_and_need_the_negated_property(self):
        # and of the stores an LP finds infeasible, most are refuted here
        refuted = lp_only = feasible = 0
        for store in self._stores():
            cert = back_substitute(store)
            sys = store.normalize()
            infeasible = lp.lp_feasible(sys).status == lp.INFEASIBLE
            if cert is None:
                lp_only += infeasible
                feasible += not infeasible
                continue
            assert certs.check_farkas(sys, cert).ok and infeasible
            negp = ("c", store.negp_id, "le")
            assert dict(cert.multipliers)[negp] == 1
            rest = certs.FarkasCertificate.make({rid: m for rid, m in cert.multipliers
                                                 if rid != negp})
            assert not certs.check_farkas(sys, rest).ok
            refuted += 1
        assert refuted >= 10 and feasible >= 10 and refuted > lp_only

    def test_a_corrupted_refutation_is_a_solver_fault(self):
        # each multiplier of the worked refutation moved by 1/10**40 leaves
        # lambda^T A nonzero, and `_checked_farkas` raises the LP engine's
        # fault, as the engine does for its own certificates
        store = _store()
        ensure_relaxation(store)
        cert = back_substitute(store)
        lam = dict(cert.multipliers)
        assert propagate._checked_farkas(store, lam) == cert
        for rid in lam:
            moved = {**lam, rid: lam[rid] + F(1, 10**40)}
            with pytest.raises(lp.SelfCheckFailed, match="Farkas certificate rejected"):
                propagate._checked_farkas(store, moved)


def _reference_back_substitution(store):
    """DeepPoly's back-substitution, as `back_substitute` makes it, summed
    here in `Fraction`s: the multipliers of the rows that cancel each
    variable from the highest index down, and whether the sum refutes the
    rows (0 <= rho with rho < 0)."""
    layout = store.layout

    def rational(rid):
        return rational_row(store.constraints[rid[1]].sides[0 if rid[2] == "le" else 1])

    def equality_side(cid, j, a):
        row, _ = rational(("c", cid, "le"))
        return ("c", cid, "le" if a * row[j] < 0 else "ge")

    pre = {layout.pre_index(u): u for u in store.aff_ids}
    post = {layout.post_index(u): u for u in store.aff_ids
            if layout.post_index(u) != layout.pre_index(u)}
    negp = ("c", store.negp_id, "le")
    coef, rho = rational(negp)
    lam = {negp: F(1)}
    while coef:
        j = max(coef)
        a = coef[j]
        if j in post and post[j] in store.phase_ids:
            rid = equality_side(store.phase_ids[post[j]], j, a)
        elif j in post:
            lo, hi = store.hull_bounds[post[j]]
            k = 2 if a < 0 else 1 if hi > -lo else 0
            rid = ("c", store.hull_ids[post[j]][k], "le")
        elif j in pre:
            rid = equality_side(store.aff_ids[pre[j]], j, a)
        else:
            k = next(k for k in range(store.net.input_dim) if layout.input_index(k) == j)
            rid = ("c", store.region_ids[k][0 if a < 0 else 1], "le")
        row, b = rational(rid)
        m = -a / row[j]
        assert m > 0 and rid not in lam
        lam[rid] = m
        for i, v in row.items():
            coef[i] = coef.get(i, F(0)) + m * v
            if not coef[i]:
                del coef[i]
        rho += m * b
    return lam, rho < 0


class TestBackSubstitutionReference:
    """`back_substitution` sums integer rows over one common denominator;
    the plain `Fraction` sum above must give the same answer, refuted or
    not, and where it refutes the same multipliers.  On every root store of
    the acceptance suite with its relaxation installed, on every store that
    propagation hands to `back_substitution` while the suite runs under both
    drivers, and on every node of the branching instances 42, 57 and 89
    (margin-only templates, a one-LP gate; below the root their
    propagation makes no back-substitution) as propagation leaves it."""

    def test_integer_sum_equals_the_fraction_reference(self, monkeypatch):
        from test_acceptance import _spec_suite
        from test_search import TestBranchingOracleAgreement, tightened

        from relucert import search

        seen = {"refuted": 0, "kept": 0, "below the root": 0}

        def compare(store):
            lam, refutes = _reference_back_substitution(store)
            cert = back_substitute(store)
            assert (cert is not None) == refutes
            if refutes:
                assert dict(cert.multipliers) == lam
            seen["refuted" if refutes else "kept"] += 1
            return cert

        def spied_back_substitution(store):
            compare(store)
            return back_substitution(store)

        real_propagate = search.propagate_node

        def spied_propagate(store, *args, **kwargs):
            res = real_propagate(store, *args, **kwargs)
            compare(store)
            seen["below the root"] += any(c.derivation[0] == "guard"
                                          for c in store.constraints.values())
            return res

        suite = _spec_suite(100)
        for net, region, prop in suite:
            store = build_initial_store(net, build_layout(net, prop), region, prop, {})
            ensure_relaxation(store)
            compare(store)
        monkeypatch.setattr(propagate, "back_substitution", spied_back_substitution)
        for problem in suite:
            for driver in (search.icl_verify, search.hsrv_verify):
                driver(*problem)
        monkeypatch.setattr(search, "propagate_node", spied_propagate)
        for idx in (42, 57, 89):
            for driver in (search.icl_verify, search.hsrv_verify):
                res = driver(*tightened(idx), TestBranchingOracleAgreement.CONFIG)
                assert res.status == "unsat" and res.budget.splits
        assert seen["refuted"] >= 50 and seen["kept"] >= 50, seen
        assert seen["below the root"] >= 20, seen
