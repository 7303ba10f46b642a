"""Network representation, variable layout, exact forward evaluation, parsing.

Every number a problem states is a `fractions.Fraction`: arbitrary
precision, always in lowest terms, positive denominator.  Nothing in this
package ever rounds.  A network also holds its weights in integers, one
table computed once on first use (`Network.ints`): each unit's
s = b + sum_k w_k src_k as (den, (den w_k)_k, den b).  The forward pass,
and so the witness check, runs over that table in integers, and the
store's and the checker's affine rows and interval sums read it; no other
module rescales the weights.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable

RELU = "relu"
IDENTITY = "identity"

#: (layer, neuron) pair identifying a hidden ReLU unit.  Layers are 1-based
#: to match the layer list of the network (layer 0 is the input).
Unit = tuple[int, int]

#: a unit's s = b + sum_k w_k src_k in integers, (den, (den w_k)_k, den b),
#: den > 0 the lcm of the denominators of its weights and bias
UnitInts = tuple[int, tuple[int, ...], int]

ACTIVE = "active"
INACTIVE = "inactive"


class ParseError(ValueError):
    """Malformed problem file or rational."""


class DimensionError(Exception):
    """Inconsistent matrix/vector shapes."""


#: the one rational grammar: what `format_rational` writes
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    """Parse a JSON integer, or a "p/q" or integer string, into an exact
    rational.  No other form is accepted: `Fraction` alone would also take
    exponents, whose expansion can take unbounded time."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ParseError(f'rationals must be "p/q" or integer strings, got {text!r}')
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    return str(q)


def unique_keys(pairs) -> dict:
    """A JSON object, for `json.loads(object_pairs_hook=...)`: a key given
    twice is an error, not the last of its values."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicated key {key!r}")
        out[key] = value
    return out


#: the decoder of every document read, a problem or a proof; `json.loads`
#: with a hook would build a decoder and its scanner on each call
_DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)


def decode_json(doc: str | bytes):
    """`json.loads(doc, object_pairs_hook=unique_keys)`, with one held
    decoder: bytes are decoded as `json.loads` decodes them, in the
    encoding `json.detect_encoding` finds with surrogates passed, and a str
    that starts with a BOM is rejected, as `json.loads` rejects it."""
    if isinstance(doc, str):
        if doc.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", doc, 0)
    else:
        doc = doc.decode(json.detect_encoding(doc), "surrogatepass")
    return _DECODER.decode(doc)


def parse_key(key: str) -> int:
    """An object key naming a nonnegative integer, written as relucert
    writes it: canonical decimal, so no two keys name one integer."""
    if not (type(key) is str and key.isascii() and key.isdigit()
            and (key[0] != "0" or key == "0")):
        raise ParseError(f"expected a canonical decimal key, got {key!r}")
    return int(key)


@dataclass(frozen=True)
class Layer:
    weights: tuple[tuple[Fraction, ...], ...]  # rows = neurons of this layer
    bias: tuple[Fraction, ...]
    activation: str


@dataclass(frozen=True)
class Network:
    layers: tuple[Layer, ...]
    input_dim: int
    output_dim: int

    def __post_init__(self):
        prev = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.activation not in (RELU, IDENTITY):
                raise DimensionError(f"unknown activation {layer.activation!r}")
            if layer.activation == IDENTITY and i != len(self.layers) - 1:
                raise DimensionError("identity activation only allowed on the final layer")
            if len(layer.weights) != len(layer.bias):
                raise DimensionError(f"layer {i}: {len(layer.weights)} rows vs {len(layer.bias)} biases")
            for row in layer.weights:
                if len(row) != prev:
                    raise DimensionError(f"layer {i}: expected {prev} columns, got {len(row)}")
            prev = len(layer.weights)
        if prev != self.output_dim:
            raise DimensionError(f"output_dim {self.output_dim} != final width {prev}")

    @cached_property
    def ints(self) -> tuple[tuple[UnitInts, ...], ...]:
        """Per layer, each unit's `UnitInts`: the one integer form of the
        weights, computed once per network, on first use."""
        table = []
        for layer in self.layers:
            units = []
            for wrow, b in zip(layer.weights, layer.bias):
                den = lcm(b.denominator, *[w.denominator for w in wrow])
                units.append((den, tuple([w.numerator * (den // w.denominator) for w in wrow]),
                              b.numerator * (den // b.denominator)))
            table.append(tuple(units))
        return tuple(table)

    def unit_weights(self, unit: Unit) -> UnitInts:
        """The unit's row of `ints`."""
        i, j = unit
        return self.ints[i - 1][j]

    @property
    def hidden_units(self) -> list[Unit]:
        units = []
        for i, layer in enumerate(self.layers, start=1):
            if layer.activation == RELU:
                units.extend((i, j) for j in range(len(layer.weights)))
        return units


@dataclass(frozen=True)
class Region:
    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DimensionError("region bound vectors differ in length")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"empty box: lower {lo} > upper {hi}")

    def contains(self, x: Iterable[Fraction]) -> bool:
        x = tuple(x)
        return len(x) == len(self.lower) and all(
            lo <= v <= hi for lo, v, hi in zip(self.lower, x, self.upper)
        )


@dataclass(frozen=True)
class SafetyProperty:
    """Safety holds iff margin(v) <= threshold.

    The negated query asserted in the store is margin(v) >= threshold + epsilon
    (non-strict; the epsilon slack stands in for strictness).
    """

    margin: tuple[tuple[int, Fraction], ...]  # sparse row over output indices, not all zero
    threshold: Fraction
    epsilon: Fraction

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        seen = set()
        for idx, _ in self.margin:
            if idx in seen:
                raise ValueError(f"duplicate margin index {idx}")
            seen.add(idx)
        if not any(coeff for _, coeff in self.margin):
            raise ValueError("margin needs a nonzero coefficient")

    @property
    def violation_threshold(self) -> Fraction:
        return self.threshold + self.epsilon

    def margin_value(self, outputs) -> Fraction:
        return sum((coeff * outputs[idx] for idx, coeff in self.margin), Fraction(0))


class VariableLayout:
    """Deterministic index assignment for the global variable vector.

    Inputs first, then per layer the pre-activations s followed by the
    post-activations z (hidden ReLU layers only; an identity output layer
    aliases z onto s).  The margin allocates no variable: `margin` is its
    row over the output variables, the nonzero coefficients only.
    """

    def __init__(self, net: Network, prop: SafetyProperty | None = None):
        self.net = net
        self._input = list(range(net.input_dim))
        self._pre: dict[Unit, int] = {}
        self._post: dict[Unit, int] = {}
        idx = net.input_dim
        for i, layer in enumerate(net.layers, start=1):
            width = len(layer.weights)
            for j in range(width):
                self._pre[(i, j)] = idx + j
            idx += width
            if layer.activation == RELU:
                for j in range(width):
                    self._post[(i, j)] = idx + j
                idx += width
            else:  # identity output: z aliases s
                for j in range(width):
                    self._post[(i, j)] = self._pre[(i, j)]
        self.n_vars = idx
        self.margin: dict[int, Fraction] = {} if prop is None else {
            self.output_index(j): coeff for j, coeff in prop.margin if coeff}
        # the output variable a one-output, coefficient-1 margin equals, else
        # None; only `perfbench/families.py` reads it
        self.margin_index: int | None = None
        if list(self.margin.values()) == [1]:
            self.margin_index, = self.margin

    def input_index(self, k: int) -> int:
        return self._input[k]

    def pre_index(self, unit: Unit) -> int:
        return self._pre[unit]

    def post_index(self, unit: Unit) -> int:
        return self._post[unit]

    def output_index(self, j: int) -> int:
        return self._post[(len(self.net.layers), j)]


def build_layout(net: Network, prop: SafetyProperty | None = None) -> VariableLayout:
    return VariableLayout(net, prop)


@dataclass(frozen=True)
class Trace:
    pre: tuple[tuple[Fraction, ...], ...]
    post: tuple[tuple[Fraction, ...], ...]

    @property
    def outputs(self) -> tuple[Fraction, ...]:
        return self.post[-1]


def _scaled(net: Network, x) -> tuple[int, list[int]]:
    """x as exact rationals scaled to the lcm d of their denominators:
    (d, X) with x = X / d."""
    x = [v if type(v) is Fraction else Fraction(v) for v in x]
    if len(x) != net.input_dim:
        raise DimensionError(f"expected {net.input_dim} inputs, got {len(x)}")
    d = lcm(*[v.denominator for v in x])
    return d, [v.numerator * (d // v.denominator) for v in x]


def _forward(net: Network, d: int, cur: list[int]) -> list[tuple[int, list[int], list[int]]]:
    """The exact forward pass in integers over `net.ints`, from the inputs
    cur / d: per layer (d', S, Z), its pre-activations S / d' and
    post-activations Z / d'.  Each layer rescales to the lcm of its units'
    denominators, d' = d den, and applies z = max(0, s) on a ReLU layer."""
    out = []
    for units, layer in zip(net.ints, net.layers):
        den = lcm(*[u for u, _, _ in units])
        # s = (B d + sum_k W_k X_k) / (u d) over the unit's u, times den / u
        pre = [(b * d + sum(map(mul, ws, cur))) * (den // u) for u, ws, b in units]
        d *= den
        cur = [v if v > 0 else 0 for v in pre] if layer.activation == RELU else pre
        out.append((d, pre, cur))
    return out


def forward_eval(net: Network, x) -> Trace:
    """Exact forward pass; z = max(0, s) componentwise on ReLU layers."""
    layers = _forward(net, *_scaled(net, x))
    return Trace(tuple(tuple(Fraction(v, d) for v in pre) for d, pre, _ in layers),
                 tuple(tuple(Fraction(v, d) for v in post) for d, _, post in layers))


@dataclass(frozen=True)
class WitnessVerdict:
    """Whether x is a counterexample.  `reason` is formatted only when read:
    a margin of thousands of digits is past the digit limit of `str`."""
    accepted: bool
    #: (margin, threshold + epsilon) of a point in the region that falls short
    shortfall: tuple[Fraction, Fraction] | None = None

    @property
    def reason(self) -> str:
        if self.shortfall is None:
            return "" if self.accepted else "region"
        return "margin {} < {}".format(*self.shortfall)


def validate_witness(net: Network, region: Region, prop: SafetyProperty, x) -> WitnessVerdict:
    """Exact check that x is a counterexample: in the region and margin >=
    threshold + epsilon.  In integers throughout: with x = X / d, the box
    test lo <= X_k / d <= hi and, with the outputs Y / d' and c the lcm of
    the margin coefficients' denominators, the margin M / (c d') against
    threshold + epsilon, each by cross-multiplication."""
    d, cur = _scaled(net, x)
    if len(region.lower) != len(cur) or any(
            v * lo.denominator < lo.numerator * d or v * hi.denominator > hi.numerator * d
            for lo, v, hi in zip(region.lower, cur, region.upper)):
        return WitnessVerdict(False)
    d, _, y = _forward(net, d, cur)[-1]
    c = lcm(*[q.denominator for _, q in prop.margin])
    m = sum([q.numerator * (c // q.denominator) * y[idx] for idx, q in prop.margin])
    t = prop.violation_threshold
    if m * t.denominator >= t.numerator * c * d:
        return WitnessVerdict(True)
    return WitnessVerdict(False, (Fraction(m, c * d), t))


def _parse_matrix(obj, what: str):
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{what} must be a list of lists")
    return tuple(tuple(parse_rational(v) for v in row) for row in obj)


def problem_from_dict(doc: dict) -> tuple[Network, Region, SafetyProperty]:
    try:
        weights = doc["weights"]
        biases = doc["biases"]
        activations = doc["activations"]
        lower = doc["input_lower"]
        upper = doc["input_upper"]
        margin = doc["margin"]
        threshold = doc["threshold"]
        epsilon = doc["epsilon"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field: {exc}") from None
    if not (isinstance(weights, list) and isinstance(biases, list) and isinstance(activations, list)):
        raise ParseError("weights, biases, activations must be lists")
    if not (isinstance(lower, list) and isinstance(upper, list)):
        raise ParseError("input_lower, input_upper must be lists")
    if not len(weights) == len(biases) == len(activations):
        raise ParseError("weights, biases, activations must have equal length")
    if not weights:
        raise ParseError("network needs at least one layer")
    layers = []
    for w, b, act in zip(weights, biases, activations):
        if not isinstance(b, list):
            raise ParseError("each bias must be a list")
        layers.append(Layer(_parse_matrix(w, "weights"), tuple(parse_rational(v) for v in b), act))
    input_dim = len(layers[0].weights[0]) if layers[0].weights else 0
    net = Network(tuple(layers), input_dim, len(layers[-1].weights))
    region = Region(
        tuple(parse_rational(v) for v in lower),
        tuple(parse_rational(v) for v in upper),
    )
    if len(region.lower) != net.input_dim:
        raise DimensionError("region dimension != input dimension")
    if not isinstance(margin, dict) or not margin:
        raise ParseError("margin must be a non-empty map output-index -> coefficient")
    row = sorted((parse_key(key), parse_rational(coeff)) for key, coeff in margin.items())
    for idx, _ in row:
        if idx >= net.output_dim:
            raise DimensionError(f"margin index {idx} out of range")
    prop = SafetyProperty(tuple(row), parse_rational(threshold), parse_rational(epsilon))
    return net, region, prop


def parse_problem(raw: bytes) -> tuple[Network, Region, SafetyProperty]:
    """Parse and validate a problem file's bytes (JSON; rationals as "p/q"
    strings).  The caller reads the file, once: a proof's digest is taken
    of the same bytes."""
    try:
        doc = decode_json(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return problem_from_dict(doc)
