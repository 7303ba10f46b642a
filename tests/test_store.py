import random
from fractions import Fraction as F

import pytest

from conftest import (
    layout_of,
    random_instance,
    trace_vector,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert.model import ACTIVE, INACTIVE, forward_eval
from relucert.rows import GuardLiteral, equality, guard_norm_rows, guard_rows
from relucert.propagate import ensure_relaxation
from relucert.store import (
    AFF,
    GUARD,
    NEGP,
    REGION,
    REL,
    Store,
    build_initial_store,
    interval_bounds,
)


def _fresh_store():
    net, prop = worked_network(), worked_prop()
    return Store(net, layout_of(net, prop), worked_region(), prop, {})


def _holds(r, point):
    _, coeffs, b = r.ints
    return sum((a * point.get(j, F(0)) for j, a in coeffs.items()), F(0)) <= b


def _satisfies(sys, point):
    return all(_holds(r, point) for r in sys.rows)


class TestNormalization:
    """`Store.add` takes a row's integer sides and keeps them as they are,
    under the row's id."""

    def test_le_row_kept_verbatim(self):
        store = _fresh_store()
        form = (1, {0: 2}, 3)
        cid = store.add(("region", 0, "hi"), [form])
        (row,) = store.constraints[cid].sides
        assert row.rid == ("c", cid, "le")
        assert row.ints is form and row.rhs == F(3)

    def test_eq_expands_to_adjacent_pair(self):
        store = _fresh_store()
        store.add(("region", 0, "hi"), [(1, {0: 1}, 1)])
        cid = store.add(("aff", 1, 0), equality((2, {0: 2, 1: -1}, 5)))
        rows = store.constraints[cid].sides
        assert [r.rid for r in rows] == [("c", cid, "le"), ("c", cid, "ge")]
        assert rows[1].ints == (2, {0: -2, 1: 1}, -5) and rows[1].rhs == F(-5, 2)
        assert [r.rid for r in store.normalize().rows] == [
            ("c", 0, "le"), ("c", cid, "le"), ("c", cid, "ge")]

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            _fresh_store().add(("region", 0, "hi"), [(1, {}, 1)])


class TestStoreMutation:
    def test_retired_rows_leave_the_lp_but_stay_resolvable(self):
        store = _fresh_store()
        cid = store.add(("region", 0, "hi"), [(1, {0: 1}, 1)])
        store.retire(cid)
        assert store.active_constraints() == []
        # a proof leaf may still carry it
        assert store.cone([("c", cid, "le")]) == [(cid, store.constraints[cid])]
        # a retired row's slot is free for re-adding under a fresh id
        cid2 = store.add(("region", 0, "hi"), [(1, {0: 1}, 1)])
        assert cid2 != cid

    def test_cone_walks_the_recorded_premises(self):
        # the walk reads the premises `add` recorded, not the rows' tags or
        # coefficients: region tags here rest on rows as propagation's do
        store = _fresh_store()
        a = store.add(("region", 0, "hi"), [(1, {0: 1}, 1)])
        b = store.add(("region", 0, "lo"), [(1, {0: -1}, 0)])
        c = store.add(("region", 0, "hi"), [(2, {0: 2}, 1)], (a,))
        d = store.add(("region", 0, "hi"), [(4, {0: 4}, 1)], (c, b, c))
        store.retire(a)
        assert store.premises == {c: (a,), d: (c, b, c)}
        cone = store.cone([("c", d, "le"), ("c", c, "le")])
        assert cone == [(cid, store.constraints[cid]) for cid in (a, b, c, d)]
        assert [cid for cid, _ in store.cone([("c", c, "le")])] == [a, c]
        assert [cid for cid, _ in store.cone([("g", 1, 0, ACTIVE, 0), ("c", b, "le")])] == [b]

    def test_normalize_excludes_by_predicate(self):
        store = build_initial_store(worked_network(), layout_of(worked_network(), worked_prop()),
                                    worked_region(), worked_prop(), {})
        full = store.normalize()
        no_negp = store.normalize(exclude=lambda cid, c: c.block == NEGP)
        assert len(no_negp) == len(full) - 1

    def test_normalize_returns_the_rows_add_built(self):
        store = build_initial_store(worked_network(), layout_of(worked_network(), worked_prop()),
                                    worked_region(), worked_prop(), {})
        first = store.normalize()
        again = store.normalize()
        assert len(first) == len(again)
        assert all(a is b for a, b in zip(first.rows, again.rows))
        cid = next(iter(store.constraints))
        store.retire(cid)
        after = store.normalize()
        assert [r.rid for r in after.rows] == [r.rid for r in first.rows if r.rid[1] != cid]
        assert all(a is first.rows[first.index[a.rid]] for a in after.rows)
        cited = store.cited_rows(r.rid for r in first.rows)
        assert all(a is b for a, b in zip(cited.rows, after.rows)) and len(cited) == len(after)


class TestGuardConsequences:
    def test_active_guard_rows(self):
        layout = layout_of(worked_network(), worked_prop())
        s, z = layout.pre_index((1, 0)), layout.post_index((1, 0))
        eq, le = guard_rows(layout, GuardLiteral((1, 0), ACTIVE))
        assert eq == [(1, {z: 1, s: -1}, 0), (1, {z: -1, s: 1}, 0)]
        assert le == [(1, {s: -1}, 0)]

    def test_inactive_guard_rows(self):
        layout = layout_of(worked_network(), worked_prop())
        s, z = layout.pre_index((1, 1)), layout.post_index((1, 1))
        eq, le = guard_rows(layout, GuardLiteral((1, 1), INACTIVE))
        assert eq == [(1, {z: 1}, 0), (1, {z: -1}, 0)]
        assert le == [(1, {s: 1}, 0)]

    def test_unknown_phase_rejected(self):
        layout = layout_of(worked_network(), worked_prop())
        with pytest.raises(ValueError):
            guard_rows(layout, GuardLiteral((1, 0), "sideways"))

    def test_norm_rows_carry_store_independent_ids(self):
        layout = layout_of(worked_network(), worked_prop())
        rows = guard_norm_rows(layout, GuardLiteral((1, 0), ACTIVE))
        assert [r.rid for r in rows] == [
            ("g", 1, 0, ACTIVE, 0), ("g", 1, 0, ACTIVE, 1), ("g", 1, 0, ACTIVE, 2)]

    def test_guard_rows_hold_exactly_on_phase_respecting_traces(self):
        net, prop = worked_network(), worked_prop()
        layout = layout_of(net, prop)
        # x = 1 puts unit (1,0) active and (1,1) inactive
        point = trace_vector(net, layout, (F(1),))
        for lit in (GuardLiteral((1, 0), ACTIVE), GuardLiteral((1, 1), INACTIVE)):
            for r in guard_norm_rows(layout, lit):
                assert _holds(r, point)


class TestIntervalBounds:
    def test_worked_network_pre_activation_intervals(self):
        bounds = interval_bounds(worked_network(), worked_region(), {})
        assert bounds[(1, 0)] == (F(-1), F(1))
        assert bounds[(1, 1)] == (F(-1, 2), F(1, 2))
        assert bounds[(2, 0)] == (F(-1, 2), F(1))

    def test_phase_commitment_tightens_downstream(self):
        bounds = interval_bounds(worked_network(), worked_region(), {(1, 1): INACTIVE})
        assert bounds[(2, 0)] == (F(0), F(1))

    def test_bounds_enclose_sampled_traces(self):
        rng = random.Random(11)
        for _ in range(25):
            net, region, prop = random_instance(rng)
            bounds = interval_bounds(net, region, {})
            for t in range(5):
                x = tuple(lo + (hi - lo) * F(t, 4)
                          for lo, hi in zip(region.lower, region.upper))
                trace = forward_eval(net, x)
                for i in range(1, len(net.layers) + 1):
                    for j, s in enumerate(trace.pre[i - 1]):
                        lo, hi = bounds[(i, j)]
                        assert lo <= s <= hi


class TestInitialStore:
    def test_blocks_present(self):
        net, prop = worked_network(), worked_prop()
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        blocks = {c.block for _, c in store.active_constraints()}
        assert blocks == {AFF, REGION, NEGP}
        assert store.unstable == {(1, 0), (1, 1)}
        # a row's block follows from its derivation kind: interval and hull
        # rows are relaxation rows
        ensure_relaxation(store)
        blocks = {c.block for _, c in store.active_constraints()}
        assert blocks == {AFF, REGION, NEGP, REL}

    def test_alpha_adds_guard_rows_and_removes_instability(self):
        net, prop = worked_network(), worked_prop()
        alpha = {(1, 0): ACTIVE}
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, alpha)
        # the id kept is the phase equality's, row 0 of the guard
        eq = store.constraints[store.phase_ids[(1, 0)]]
        assert eq.derivation == ("guard", 1, 0, ACTIVE, 0) and len(eq.sides) == 2
        assert store.phases == alpha
        assert store.unstable == {(1, 1)}
        assert any(c.block == GUARD for _, c in store.active_constraints())

    def test_base_rows_satisfied_by_violating_trace(self):
        # x = 1 drives y to 1; with threshold 1/2 the full store is satisfiable
        net = worked_network()
        prop = worked_prop("1/2")
        layout = layout_of(net, prop)
        store = build_initial_store(net, layout, worked_region(), prop, {})
        point = trace_vector(net, layout, (F(1),))
        assert _satisfies(store.normalize(), point)

    def test_negated_property_row_excludes_safe_traces(self):
        net, prop = worked_network(), worked_prop()
        layout = layout_of(net, prop)
        store = build_initial_store(net, layout, worked_region(), prop, {})
        point = trace_vector(net, layout, (F(1),))  # margin 1 < 11/10
        assert not _satisfies(store.normalize(), point)

    def test_region_ids_name_each_inputs_box_rows(self):
        net, prop = worked_network(), worked_prop()
        store = build_initial_store(net, layout_of(net, prop), worked_region(), prop, {})
        x = store.layout.input_index(0)
        hi, lo = (store.constraints[cid] for cid in store.region_ids[0])
        assert ([r.ints for r in hi.sides], hi.derivation) == ([(1, {x: 1}, 1)], ("region", 0, "hi"))
        assert ([r.ints for r in lo.sides], lo.derivation) == ([(1, {x: -1}, 0)], ("region", 0, "lo"))


class TestBaseRowLayout:
    """The store writes a scope's base rows at the ids `check` rebuilds
    them at (`prooflog._base_row`), so a proof lists none of them: unit
    n's affine row at n, input m's region rows hi and lo at k + 2m and
    k + 2m + 1, the negated property at k + 2d, then each committed unit's
    phase equality and sign row in sorted unit order.  On random problems,
    boxes and commitments, the store built for the scope holds exactly
    those rows below the scope's first non-base id, and every row
    propagation adds after them has a non-base tag."""

    def test_store_and_checker_place_each_base_row_alike(self):
        from relucert import prooflog

        rng = random.Random(11)
        scopes = 0
        for _ in range(60):
            net, region, prop = random_instance(rng, max_hidden_layers=2, max_width=3)
            layout = layout_of(net, prop)
            units = sorted(net.hidden_units)
            alpha = {u: rng.choice((ACTIVE, INACTIVE))
                     for u in rng.sample(units, rng.randint(0, len(units)))}
            store = build_initial_store(net, layout, region, prop, alpha)
            pb = prooflog._Problem(net, region, prop)
            first = pb.negp_id + 1 + 2 * len(alpha)
            assert sorted(store.constraints) == list(range(first))
            for cid, c in store.constraints.items():
                assert c.derivation[0] in prooflog.BASE_KINDS, (cid, c)
                assert [r.ints for r in c.sides] == prooflog._base_row(
                    pb, cid, region, alpha, sorted(alpha)), (cid, c)
            ensure_relaxation(store)
            assert all(c.derivation[0] not in prooflog.BASE_KINDS
                       for cid, c in store.constraints.items() if cid >= first)
            scopes += 1
        assert scopes == 60
