import json
import random
from fractions import Fraction as F

import pytest

from relucert.model import (
    IDENTITY,
    RELU,
    Layer,
    Network,
    Region,
    SafetyProperty,
    build_layout,
    format_rational,
)

WORKED = "problems/worked.json"
WORKED_SAT = "problems/worked_sat.json"


def worked_network() -> Network:
    """x in [0,1]; s1 = 2x-1, s2 = 1/2 - x; y = relu(s1) - relu(s2)."""
    return Network((
        Layer(((F(2),), (F(-1),)), (F(-1), F(1, 2)), RELU),
        Layer(((F(1), F(-1)),), (F(0),), IDENTITY),
    ), 1, 1)


def worked_region() -> Region:
    return Region((F(0),), (F(1),))


def worked_prop(threshold="1") -> SafetyProperty:
    return SafetyProperty(((0, F(1)),), F(threshold), F(1, 10))


@pytest.fixture
def worked():
    net = worked_network()
    return net, worked_region(), worked_prop()


@pytest.fixture
def worked_sat():
    net = worked_network()
    return net, worked_region(), worked_prop("1/2")


def rand_rational(rng: random.Random, max_den: int = 4, span: int = 2) -> F:
    d = rng.randint(1, max_den)
    return F(rng.randint(-span * d, span * d), d)


def random_instance(rng: random.Random, max_hidden_layers: int = 2,
                    max_width: int = 3, max_den: int = 4):
    """Small random verification problem with a single output coordinate."""
    nin = rng.randint(1, 2)
    widths = [rng.randint(1, max_width) for _ in range(rng.randint(1, max_hidden_layers))]
    layers = []
    prev = nin
    for w in widths:
        layers.append(Layer(
            tuple(tuple(rand_rational(rng, max_den) for _ in range(prev)) for _ in range(w)),
            tuple(rand_rational(rng, max_den) for _ in range(w)), RELU))
        prev = w
    layers.append(Layer(
        tuple((tuple(rand_rational(rng, max_den) for _ in range(prev)),)),
        (rand_rational(rng, max_den),), IDENTITY))
    net = Network(tuple(layers), nin, 1)
    lo = tuple(rand_rational(rng, max_den) for _ in range(nin))
    hi = tuple(v + abs(rand_rational(rng, max_den)) + F(1, 2) for v in lo)
    region = Region(lo, hi)
    prop = SafetyProperty(((0, F(1)),), rand_rational(rng, max_den), F(1, 10))
    return net, region, prop


def layout_of(net, prop):
    return build_layout(net, prop)


def mutate_rational_field(rng, doc):
    """Change one rational scalar somewhere in a parsed proof document to a
    different value; returns its path."""
    import re

    paths = []

    def walk(o, path):
        if isinstance(o, dict):
            for k, v in o.items():
                walk(v, path + [k])
        elif isinstance(o, list):
            for i, v in enumerate(o):
                walk(v, path + [i])
        elif isinstance(o, str) and re.fullmatch(r"-?\d+(/\d+)?", o):
            paths.append((path, o))

    walk(doc, [])
    path, old = rng.choice(paths)
    q = F(old)
    new = q + 1 if rng.random() < 0.5 else -q - 1
    if new == q:  # -q - 1 == q at q = -1/2
        new = q + 1
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = str(new)
    return path


def dump_problem(net, region, prop, path):
    """Write a (net, region, prop) triple in the problem file format."""
    doc = {
        "weights": [[[format_rational(w) for w in row] for row in l.weights]
                    for l in net.layers],
        "biases": [[format_rational(b) for b in l.bias] for l in net.layers],
        "activations": [l.activation for l in net.layers],
        "input_lower": [format_rational(v) for v in region.lower],
        "input_upper": [format_rational(v) for v in region.upper],
        "margin": {str(i): format_rational(c) for i, c in prop.margin},
        "threshold": format_rational(prop.threshold),
        "epsilon": format_rational(prop.epsilon),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def snapshot_system(proof, sid):
    """The normalized system of one snapshot of a run's proof."""
    from relucert.store import LinearConstraint, NormalizedSystem, normalize_constraint

    _, snap_rows = proof.snapshots[sid]
    rows = []
    n = 0
    for cid, row, relation, rhs, block, tag in snap_rows:
        rows.extend(normalize_constraint(cid, LinearConstraint(dict(row), relation, rhs,
                                                               block, tag)))
        n = max([n] + [j + 1 for j, _ in row])
    return NormalizedSystem(rows, n)
