import json
import random
from fractions import Fraction as F
from pathlib import Path

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
    forward_eval,
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


def file_digest(path) -> str:
    """The digest that `verify` writes into a proof of the problem file at
    `path`, and that `check` compares it with."""
    from relucert import prooflog

    return prooflog.problem_digest(Path(path).read_bytes())


def trace_vector(net: Network, layout, x) -> dict:
    """Full assignment of the layout variables induced by an exact trace."""
    trace = forward_eval(net, x)
    v = {layout.input_index(k): F(q) for k, q in enumerate(x)}
    for i in range(1, len(net.layers) + 1):
        for j in range(len(net.layers[i - 1].weights)):
            v[layout.pre_index((i, j))] = trace.pre[i - 1][j]
            v[layout.post_index((i, j))] = trace.post[i - 1][j]
    return v


def layout_of(net, prop):
    return build_layout(net, prop)


def norm_row(row, rhs, rid):
    """The normalized row a^T v <= b, given as rationals, in its integer
    form under the id `rid`."""
    from relucert.rows import NormRow, int_form

    return NormRow(rid, int_form(dict(row), rhs))


def rational_row(r):
    """A normalized row's a (its nonzeros) and b as rationals."""
    den, coeffs, b = r.ints
    return {j: F(a, den) for j, a in coeffs.items()}, F(b, den)


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


def scoped_leaves(entry, region, alpha=None):
    """(leaf, region, alpha) for each leaf of a run's proof tree, each with
    the scope its path gives."""
    from relucert.search import ProofSplit, refine

    alpha = alpha or {}
    if isinstance(entry, ProofSplit):
        for (r, a), child in zip(refine(region, alpha, entry.kind), entry.children):
            yield from scoped_leaves(child, r, a)
    else:
        yield entry, region, alpha


def leaf_system(problem, leaf, region, alpha):
    """The normalized system that `check` builds for a leaf over its
    scope: its listed rows and the base rows its certificates cite."""
    from relucert import prooflog

    leaf_doc = prooflog._tree_json(leaf)
    reason, system = prooflog._check_snapshot(prooflog._Problem(*problem), leaf_doc, region, alpha)
    assert reason is None, reason
    return system
