import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    layout_of,
    random_instance,
    trace_vector,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert.model import (
    DimensionError,
    IDENTITY,
    Layer,
    Network,
    ParseError,
    Region,
    SafetyProperty,
    RELU,
    build_layout,
    forward_eval,
    format_rational,
    parse_problem,
    parse_rational,
    problem_from_dict,
    validate_witness,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


class TestRationals:
    def test_parse_fraction_string(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("5") == F(5)
        assert parse_rational(0) == F(0)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)
        with pytest.raises(ParseError):
            parse_rational(True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("abc")

    def test_accepts_only_the_p_q_grammar(self):
        # `Fraction` takes all of these; an exponent such as 1e10000000
        # would take seconds to expand
        for text in ("1e3", "0.5", "+1", " 1", "1 ", "1/-2", "1e10000000", "١"):
            with pytest.raises(ParseError):
                parse_rational(text)

    @given(rationals)
    def test_format_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestNetworkShapes:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(DimensionError):
            Network((Layer(((F(1), F(2)),), (F(0),), RELU),), 1, 1)

    def test_identity_only_on_last_layer(self):
        with pytest.raises(DimensionError):
            Network((
                Layer(((F(1),),), (F(0),), IDENTITY),
                Layer(((F(1),),), (F(0),), IDENTITY),
            ), 1, 1)

    def test_unknown_activation_rejected(self):
        with pytest.raises(DimensionError):
            Network((Layer(((F(1),),), (F(0),), "tanh"),), 1, 1)

    def test_hidden_units_enumerates_relu_layers_only(self):
        net = worked_network()
        assert net.hidden_units == [(1, 0), (1, 1)]


class TestRegion:
    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Region((F(1),), (F(0),))

    def test_contains_is_inclusive(self):
        r = worked_region()
        assert r.contains((F(0),)) and r.contains((F(1),)) and r.contains((F(1, 2),))
        assert not r.contains((F(-1, 100),))
        assert not r.contains((F(0), F(0)))


class TestSafetyProperty:
    def test_duplicate_margin_index_rejected(self):
        with pytest.raises(ValueError):
            SafetyProperty(((0, F(1)), (0, F(2))), F(0), F(0))

    @pytest.mark.parametrize("margin", [(), ((0, F(0)),), ((0, F(0)), (1, F(0)))])
    def test_all_zero_margin_rejected(self, margin):
        # the negated property would be an empty row
        with pytest.raises(ValueError, match="nonzero"):
            SafetyProperty(margin, F(0), F(0))

    def test_violation_threshold(self):
        assert worked_prop().violation_threshold == F(11, 10)

    def test_margin_value(self):
        prop = SafetyProperty(((0, F(2)), (1, F(-1))), F(0), F(0))
        assert prop.margin_value((F(3), F(1))) == F(5)


class TestLayout:
    def test_pre_then_post_per_layer(self):
        net = worked_network()
        layout = build_layout(net, worked_prop())
        assert layout.input_index(0) == 0
        assert layout.pre_index((1, 0)) == 1
        assert layout.pre_index((1, 1)) == 2
        assert layout.post_index((1, 0)) == 3
        assert layout.post_index((1, 1)) == 4
        # identity output aliases its post onto its pre
        assert layout.post_index((2, 0)) == layout.pre_index((2, 0)) == 5
        assert layout.output_index(0) == 5

    def test_unit_coefficient_margin_aliases_the_output(self):
        net = worked_network()
        layout = build_layout(net, worked_prop())
        assert layout.margin == {layout.output_index(0): 1}
        assert layout.margin_index == layout.output_index(0)
        assert layout.n_vars == 6

    def test_general_margin_allocates_no_variable(self):
        # the margin is a row over the outputs, its nonzero coefficients only
        net = worked_network()
        two = Network(net.layers[:1] + (Layer(((F(1), F(-1)), (F(0), F(1))), (F(0), F(0)),
                                              IDENTITY),), 1, 2)
        bare = build_layout(two)
        out0, out1 = bare.output_index(0), bare.output_index(1)
        for network, margin, row in [
                (net, ((0, F(2)),), {5: F(2)}),
                (net, ((0, F(1, 3)),), {5: F(1, 3)}),
                (two, ((0, F(1)), (1, F(-1))), {out0: F(1), out1: F(-1)}),
                (two, ((0, F(0)), (1, F(1))), {out1: F(1)})]:
            layout = build_layout(network, SafetyProperty(margin, F(1), F(0)))
            assert layout.margin == row
            assert layout.n_vars == build_layout(network).n_vars == 5 + network.output_dim
            assert layout.margin_index == (out1 if row == {out1: 1} else None)


class TestForwardEval:
    def test_worked_network_values(self):
        net = worked_network()
        # y = relu(2x-1) - relu(1/2-x)
        assert forward_eval(net, (F(0),)).outputs == (F(-1, 2),)
        assert forward_eval(net, (F(1, 2),)).outputs == (F(0),)
        assert forward_eval(net, (F(1),)).outputs == (F(1),)
        assert forward_eval(net, (F(3, 4),)).outputs == (F(1, 2),)

    def test_wrong_arity_rejected(self):
        with pytest.raises(DimensionError):
            forward_eval(worked_network(), (F(0), F(0)))

    @given(st.fractions(min_value=0, max_value=1, max_denominator=64))
    def test_trace_is_exact_relu_graph(self, x):
        net = worked_network()
        t = forward_eval(net, (x,))
        for s, z in zip(t.pre[0], t.post[0]):
            assert z == max(F(0), s)
        assert t.outputs[0] == t.post[0][0] - t.post[0][1]

    def test_random_networks_piecewise_linear_locally(self):
        rng = random.Random(7)
        for _ in range(20):
            net, region, prop = random_instance(rng)
            x = tuple((lo + hi) / 2 for lo, hi in zip(region.lower, region.upper))
            t = forward_eval(net, x)
            for li, layer in enumerate(net.layers):
                if layer.activation == RELU:
                    for s, z in zip(t.pre[li], t.post[li]):
                        assert z == max(F(0), s)
                else:
                    assert t.pre[li] == t.post[li]

    def test_trace_vector_assigns_every_variable(self):
        net, prop = worked_network(), worked_prop()
        layout = layout_of(net, prop)
        v = trace_vector(net, layout, (F(3, 4),))
        assert v[layout.input_index(0)] == F(3, 4)
        assert v[layout.pre_index((1, 0))] == F(1, 2)
        assert v[layout.post_index((1, 1))] == F(0)
        assert v[layout.output_index(0)] == F(1, 2)


class TestWitnessValidation:
    def test_accepts_true_counterexample(self):
        net = worked_network()
        prop = worked_prop("1/2")  # violation at margin >= 3/5
        verdict = validate_witness(net, worked_region(), prop, (F(4, 5),))
        assert verdict.accepted

    def test_rejects_point_outside_region(self):
        verdict = validate_witness(worked_network(), worked_region(), worked_prop(), (F(2),))
        assert not verdict.accepted and verdict.reason == "region"

    def test_rejects_insufficient_margin(self):
        verdict = validate_witness(worked_network(), worked_region(), worked_prop(), (F(1),))
        assert not verdict.accepted and "margin" in verdict.reason

    # exact at the boundary: a margin equal to threshold + epsilon is a
    # counterexample, one 10^-9 below it is not
    def test_margin_at_the_violation_threshold_is_accepted(self):
        # y = 2x - 1 on [1/2, 1]: y(3/4) = 1/2 = 2/5 + 1/10
        prop = SafetyProperty(((0, F(1)),), F(2, 5), F(1, 10))
        assert validate_witness(worked_network(), worked_region(), prop, (F(3, 4),)).accepted

    def test_margin_one_billionth_below_is_rejected(self):
        prop = SafetyProperty(((0, F(1)),), F(2, 5), F(1, 10))
        x = (F(3, 4) - F(1, 2 * 10**9),)  # y = 1/2 - 10^-9
        verdict = validate_witness(worked_network(), worked_region(), prop, x)
        assert not verdict.accepted
        assert verdict.reason == f"margin {F(1, 2) - F(1, 10**9)} < 1/2"
        above = SafetyProperty(((0, F(1)),), F(2, 5) + F(1, 10**9), F(1, 10))
        assert not validate_witness(worked_network(), worked_region(), above, (F(3, 4),)).accepted


def _reference_eval(net: Network, x) -> tuple[list[tuple], list[tuple]]:
    """The forward pass in `Fraction`s, layer by layer: (pre, post), the
    reference the integer evaluator of `model` is held to."""
    pre, post = [], []
    cur = tuple(F(v) for v in x)
    for layer in net.layers:
        s = tuple(sum((w * c for w, c in zip(row, cur)), b)
                  for row, b in zip(layer.weights, layer.bias))
        cur = tuple(max(F(0), v) for v in s) if layer.activation == RELU else s
        pre.append(s)
        post.append(cur)
    return pre, post


#: weights, biases and bounds with denominators up to 10^6
_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
_unit_interval = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@st.composite
def _networks(draw):
    """A network of 1-3 inputs, 0-2 hidden ReLU layers and 1-3 outputs on
    an identity or ReLU layer; about half of its weight rows are all zero."""
    nin = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), max_size=2)) + [draw(st.integers(1, 3))]
    last = draw(st.sampled_from((IDENTITY, RELU)))
    layers, prev = [], nin
    for i, width in enumerate(widths):
        zero = tuple(F(0) for _ in range(prev))
        rows = tuple(draw(st.just(zero) | st.tuples(*[_coeff] * prev)) for _ in range(width))
        bias = tuple(draw(_coeff) for _ in range(width))
        layers.append(Layer(rows, bias, last if i == len(widths) - 1 else RELU))
        prev = width
    return Network(tuple(layers), nin, prev)


@st.composite
def _witness_cases(draw):
    """(net, region, margin, x): a margin over a nonempty set of outputs,
    with negative and zero coefficients, one nonzero; and x on a vertex of
    the box, on an edge, inside it, or just outside it."""
    net = draw(_networks())
    lo = tuple(draw(_coeff) for _ in range(net.input_dim))
    hi = tuple(v + draw(st.one_of(st.just(F(0)), _unit_interval)) for v in lo)
    idx = draw(st.lists(st.integers(0, net.output_dim - 1), min_size=1,
                        max_size=net.output_dim, unique=True))
    coeffs = [draw(_coeff.filter(bool))] + [draw(_coeff | st.just(F(0))) for _ in idx[1:]]
    margin = tuple(sorted(zip(idx, coeffs)))
    x = [draw(st.sampled_from((a, b))) for a, b in zip(lo, hi)]
    kind = draw(st.sampled_from(("vertex", "edge", "inside", "outside")))
    if kind == "vertex":
        free = ()
    elif kind == "inside":
        free = range(net.input_dim)
    else:
        free = [draw(st.integers(0, net.input_dim - 1))]
    for k in free:
        t = draw(_unit_interval)
        if kind == "outside":
            gap = t + F(1, 10**9)
            x[k] = draw(st.sampled_from((lo[k] - gap, hi[k] + gap)))
        else:
            x[k] = lo[k] + t * (hi[k] - lo[k])
    return net, Region(lo, hi), margin, tuple(x)


class TestIntegerEvaluator:
    """`forward_eval` and `validate_witness` run one forward pass in
    integers over the network's table; both agree exactly with a forward
    pass in `Fraction`s, at the boundary of the margin test too."""

    @settings(max_examples=150, deadline=None)
    @given(_witness_cases(), st.fractions(min_value=0, max_value=1, max_denominator=10**6),
           st.one_of(st.just(F(0)), _coeff))
    def test_agrees_with_the_fraction_reference(self, case, epsilon, offset):
        net, region, margin, x = case
        pre, post = _reference_eval(net, x)
        trace = forward_eval(net, x)
        assert trace.pre == tuple(pre) and trace.post == tuple(post)
        # threshold + epsilon is the margin at x itself when offset is 0
        m = sum(c * post[-1][j] for j, c in margin)
        prop = SafetyProperty(margin, m - epsilon + offset, epsilon)
        verdict = validate_witness(net, region, prop, x)
        inside = all(lo <= v <= hi for lo, v, hi in zip(region.lower, x, region.upper))
        assert verdict.accepted == (inside and offset <= 0)
        if not inside:
            assert verdict.reason == "region"
        elif offset > 0:
            assert verdict.reason == f"margin {m} < {m + offset}"

    def test_table_is_each_units_weights_over_their_lcm(self):
        net = worked_network()
        assert net.ints == (((1, (2,), -1), (2, (-2,), 1)), ((1, (1, -1), 0),))
        assert net.unit_weights((1, 1)) == (2, (-2,), 1)
        assert net.ints is net.ints


class TestProblemParsing:
    def test_worked_problem_file(self):
        net, region, prop = parse_problem(Path("problems/worked.json").read_bytes())
        assert net.input_dim == 1 and net.output_dim == 1
        assert region == worked_region()
        assert prop == worked_prop()
        assert forward_eval(net, (F(1),)).outputs == (F(1),)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            problem_from_dict({"weights": []})

    def test_margin_index_out_of_range(self):
        with open("problems/worked.json") as fh:
            doc = json.load(fh)
        doc["margin"] = {"3": "1"}
        with pytest.raises(DimensionError):
            problem_from_dict(doc)

    def test_margin_keys_read_as_canonical_decimals(self):
        with open("problems/worked.json") as fh:
            doc = json.load(fh)
        for key in ("00", " 0", "+0", "0_0", "\u0660", "", 0):
            doc["margin"] = {key: "1"}
            with pytest.raises(ParseError, match="canonical decimal key"):
                problem_from_dict(doc)
        doc["margin"] = {"0": "1"}
        assert problem_from_dict(doc)[2] == worked_prop()

    def test_region_dimension_mismatch(self):
        with open("problems/worked.json") as fh:
            doc = json.load(fh)
        doc["input_lower"] = ["0", "0"]
        doc["input_upper"] = ["1", "1"]
        with pytest.raises(DimensionError):
            problem_from_dict(doc)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_problem(b"{nope")

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-16-le"),
        lambda text: text.encode("utf-32"),
    ], ids=["utf-8-bom", "utf-16", "utf-16-le", "utf-32"])
    def test_problem_in_another_json_encoding_read(self, encode):
        # a problem's bytes are decoded as `json.loads` decodes them
        raw = Path("problems/worked.json").read_bytes()
        assert parse_problem(encode(raw.decode())) == parse_problem(raw)

    @pytest.mark.parametrize("doc", [
        b'{"a": 1}', b"\xef\xbb\xbf{}", '{"a": 1}'.encode("utf-16"), b'["\xed\xa0\x80"]',
        b'{"a": 1, "a": 2}', b"{nope", b"[1] 2", b"\xff\xfe\x00", b"[" * 5000,
        '{"a": 1}', "\ufeff{}", '"\ud800"',
    ], ids=["object", "utf-8-bom", "utf-16", "surrogate-bytes", "duplicated-key",
            "invalid", "extra-data", "bad-bytes", "deep", "str", "str-bom", "str-surrogate"])
    def test_decode_json_is_json_loads_with_unique_keys(self, doc):
        """The held decoder accepts and rejects what `json.loads` with the
        `unique_keys` hook does, with the same value or exception."""
        from relucert.model import decode_json, unique_keys

        def outcome(load):
            try:
                return "value", load(doc)
            except (ValueError, RecursionError) as exc:
                return type(exc), str(exc)

        assert outcome(decode_json) == outcome(
            lambda d: json.loads(d, object_pairs_hook=unique_keys))
