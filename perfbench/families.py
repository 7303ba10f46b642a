"""Seeded instance families for the benchmark.

Every family is drawn from the generator of the repository's acceptance
suite (acceptance criterion 5), so the default `mixed` seed reproduces that
suite's instance list exactly.  The verifier under test only ever sees the
problem files written here.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F

from relucert import lp
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
    format_rational,
)
from relucert.search import oracle_verify
from relucert.store import NEGP, build_initial_store, interval_bounds

MIXED_SEED = 20240824
#: a second family seed, kept out of tuning, for confirming a claimed gain
HELD_OUT_SEED = 20250117
#: threshold + epsilon sits this far above the exact maximum margin
TIGHT_GAP = F(1, 1000)


@dataclass
class Instance:
    idx: int
    net: Network
    region: Region
    prop: SafetyProperty
    expected: str  # "sat" | "unsat"
    path: str = ""

    @property
    def problem(self):
        return self.net, self.region, self.prop


def _rand_rational(rng: random.Random, max_den: int, span: int = 2) -> F:
    d = rng.randint(1, max_den)
    return F(rng.randint(-span * d, span * d), d)


def _random_instance(rng: random.Random, max_hidden_layers: int, max_width: int,
                     max_den: int):
    """One network with a single output, a box and a threshold; consumes the
    random stream exactly as the acceptance suite's generator does."""
    nin = rng.randint(1, 2)
    widths = [rng.randint(1, max_width) for _ in range(rng.randint(1, max_hidden_layers))]
    layers = []
    prev = nin
    for w in widths:
        layers.append(Layer(
            tuple(tuple(_rand_rational(rng, max_den) for _ in range(prev)) for _ in range(w)),
            tuple(_rand_rational(rng, max_den) for _ in range(w)), RELU))
        prev = w
    layers.append(Layer(
        (tuple(_rand_rational(rng, max_den) for _ in range(prev)),),
        (_rand_rational(rng, max_den),), IDENTITY))
    net = Network(tuple(layers), nin, 1)
    lo = tuple(_rand_rational(rng, max_den) for _ in range(nin))
    hi = tuple(v + abs(_rand_rational(rng, max_den)) + F(1, 2) for v in lo)
    prop = SafetyProperty(((0, F(1)),), _rand_rational(rng, max_den), F(1, 10))
    return net, Region(lo, hi), prop


def root_unstable(net: Network, region: Region) -> int:
    bounds = interval_bounds(net, region, {})
    return sum(1 for u in net.hidden_units if bounds[u][0] < 0 < bounds[u][1])


def spec_stream(seed: int):
    """Acceptance-5 shapes: <= 3 hidden layers, width <= 4, denominators <= 8,
    <= 6 units unstable at the root.  Yields (net, region, prop, unstable)."""
    rng = random.Random(seed)
    while True:
        net, region, prop = _random_instance(rng, 3, 4, 8)
        k = root_unstable(net, region)
        if k <= 6:
            yield net, region, prop, k


def max_margin(net: Network, region: Region, prop: SafetyProperty) -> F:
    """Exact maximum of the margin over the box: the best `lp_max` of the
    margin, without the negated-property row, over every phase assignment of
    the root-unstable units (stable units keep their phase, as in
    `oracle_verify`).  Assignments are tried in decreasing order of their
    interval bound on the margin, and the search stops once no remaining
    bound exceeds the best value found, which keeps the maximum exact."""
    layout = build_layout(net, prop)
    bounds = interval_bounds(net, region, {})
    fixed = {u: ACTIVE if bounds[u][0] >= 0 else INACTIVE for u in net.hidden_units
             if not bounds[u][0] < 0 < bounds[u][1]}
    free = sorted(u for u in net.hidden_units if u not in fixed)
    (out, coeff), = prop.margin
    out_unit = (len(net.layers), out)
    candidates = []
    for phases in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
        alpha = {**fixed, **dict(zip(free, phases))}
        lo, hi = interval_bounds(net, region, alpha)[out_unit]
        candidates.append((max(coeff * lo, coeff * hi), phases, alpha))
    candidates.sort(key=lambda c: c[:2], reverse=True)
    g = {layout.margin_index: F(1)}
    best = None
    for bound, _, alpha in candidates:
        if best is not None and bound <= best:
            break
        store = build_initial_store(net, layout, region, prop, alpha)
        res = lp.lp_max(store.normalize(exclude=lambda cid, c: c.block == NEGP), g)
        if res.status == lp.OPTIMAL and (best is None or res.value > best):
            best = res.value
    if best is None:
        raise ValueError("no feasible phase assignment")
    return best


def relabel(net: Network, region: Region, rng: random.Random):
    """A function-preserving presentation of the same instance: inputs and the
    units of each hidden layer are permuted by `rng`.  The verdict and the
    exact maximum margin are unchanged; the variable layout, and with it the
    simplex's pivot order, is not."""
    perm = list(range(net.input_dim))
    rng.shuffle(perm)
    region = Region(tuple(region.lower[k] for k in perm), tuple(region.upper[k] for k in perm))
    layers = []
    for layer in net.layers:
        rows = [tuple(row[k] for k in perm) for row in layer.weights]
        order = list(range(len(rows)))
        if layer.activation == RELU:
            rng.shuffle(order)
        layers.append(Layer(tuple(rows[j] for j in order),
                            tuple(layer.bias[j] for j in order), layer.activation))
        perm = order
    return Network(tuple(layers), net.input_dim, net.output_dim), region


def with_gap(prop: SafetyProperty, maximum: F, gap: F) -> SafetyProperty:
    """The property whose threshold + epsilon equals `maximum + gap`."""
    return SafetyProperty(prop.margin, maximum + gap - prop.epsilon, prop.epsilon)


def mixed(seed: int, count: int) -> list[Instance]:
    out = []
    for idx, (net, region, prop, k) in enumerate(itertools.islice(spec_stream(seed), count)):
        out.append(Instance(idx, net, region, prop, oracle_verify(net, region, prop).status))
    return out


def tight_unsat(seed: int, count: int, min_unstable: int = 0) -> list[Instance]:
    out = []
    for net, region, prop, k in spec_stream(seed):
        if len(out) == count:
            break
        if k < min_unstable:
            continue
        prop = with_gap(prop, max_margin(net, region, prop), TIGHT_GAP)
        out.append(Instance(len(out), net, region, prop, "unsat"))
    return out


def dump_problem(inst: Instance, path: str) -> None:
    """Write an instance in the problem file format."""
    net, region, prop = inst.problem
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
    inst.path = path


@dataclass(frozen=True)
class Workload:
    count: int
    tight: bool  # tight-unsat construction instead of oracle labels
    #: seconds one pass takes at the reference host speed; a run makes
    #: `--seconds` over this many passes, at least one
    pass_s: float
    min_unstable: int = 0
    flags: tuple[str, ...] = ()


WORKLOADS = {
    "mixed": Workload(54, tight=False, pass_s=20),
    "tight-unsat": Workload(80, tight=True, pass_s=21),
    "branching": Workload(8, tight=True, pass_s=19, min_unstable=4,
                          flags=("--templates", "margin-only", "--gate-budget", "1")),
}


def family(workload: Workload, family_seed: int) -> list[Instance]:
    if workload.tight:
        return tight_unsat(family_seed, workload.count, workload.min_unstable)
    return mixed(family_seed, workload.count)


def setup(workload: Workload, family_seed: int, seed: int, directory: str) -> list[Instance]:
    """Generate the family, label it, present it as `seed` draws (unit
    relabelling and instance order) and write the problem files."""
    rng = random.Random(seed)
    out = []
    for inst in family(workload, family_seed):
        net, region = relabel(inst.net, inst.region, rng)
        out.append(Instance(inst.idx, net, region, inst.prop, inst.expected))
    rng.shuffle(out)
    for inst in out:
        dump_problem(inst, os.path.join(directory, f"p{inst.idx}.json"))
    return out
