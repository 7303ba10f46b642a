"""The seeded scale sets S2 and S4: networks of two ReLU layers of 8 units
and one identity output, wider than any benchmark family.

One `random.Random(seed)` draws every net of a set in turn; a rational is
`conftest.rand_rational` with denominators up to 8, `Fraction(randint(-2q,
2q), q)` with `q = randint(1, 8)`.  Per net: for each ReLU layer its
weights row by row, then its 8 biases; then the output's 8 weights and its
bias; then each input's box lower end, the upper end being the lower end
plus the set's width.  The margin is the output, the threshold its value
at the box midpoint plus `randint(0, 16)/4`, and epsilon 1/10, so the
midpoint is never a counterexample.

S2: seed 11, 100 nets of 2 inputs over boxes of width 1.  S4: seed 13, 40
nets of 4 inputs over boxes of width 2.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from conftest import rand_rational
from relucert.model import IDENTITY, RELU, Layer, Network, Region, SafetyProperty, forward_eval

#: name: (seed, nets, inputs, box width)
SETS = {"S2": (11, 100, 2, F(1)), "S4": (13, 40, 4, F(2))}

WIDTH = 8


def scale_set(name: str) -> list[tuple[Network, Region, SafetyProperty]]:
    """Every (network, region, property) of set `name`, in draw order."""
    seed, count, inputs, width = SETS[name]
    rng = random.Random(seed)
    return [_net(rng, inputs, width) for _ in range(count)]


def _layer(rng: random.Random, n_in: int, n_out: int, activation: str) -> Layer:
    weights = tuple(tuple(rand_rational(rng, 8) for _ in range(n_in)) for _ in range(n_out))
    biases = tuple(rand_rational(rng, 8) for _ in range(n_out))
    return Layer(weights, biases, activation)


def _net(rng: random.Random, inputs: int, width: F):
    layers = (_layer(rng, inputs, WIDTH, RELU), _layer(rng, WIDTH, WIDTH, RELU),
              _layer(rng, WIDTH, 1, IDENTITY))
    net = Network(layers, inputs, 1)
    lower = tuple(rand_rational(rng, 8) for _ in range(inputs))
    region = Region(lower, tuple(lo + width for lo in lower))
    mid = [lo + width / 2 for lo in lower]
    threshold = forward_eval(net, mid).post[-1][0] + F(rng.randint(0, 16), 4)
    return net, region, SafetyProperty(((0, F(1)),), threshold, F(1, 10))
