"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE, ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families  # noqa: E402
import measure  # noqa: E402
from relucert.model import forward_eval  # noqa: E402
from relucert.search import oracle_verify  # noqa: E402
from spans import Tracer  # noqa: E402


def test_default_mixed_seed_reproduces_acceptance_suite():
    from test_acceptance import _spec_suite

    family = families.mixed(families.MIXED_SEED, 100)
    assert [inst.problem for inst in family] == _spec_suite(100)
    assert Counter(inst.expected for inst in family) == {"sat": 62, "unsat": 38}


def test_tight_unsat_family_is_near_tight():
    sample = families.tight_unsat(families.MIXED_SEED, 5)
    sample += families.tight_unsat(families.MIXED_SEED, 2, min_unstable=4)
    for inst in sample:
        net, region, prop = inst.problem
        assert oracle_verify(net, region, prop).status == "unsat"
        maximum = prop.violation_threshold - families.TIGHT_GAP
        below = families.with_gap(prop, maximum, -families.TIGHT_GAP)
        assert oracle_verify(net, region, below).status == "sat"


def test_relabel_preserves_function_and_verdict():
    rng = random.Random(3)
    for inst in families.mixed(families.MIXED_SEED, 12):
        state = rng.getstate()
        net, region = families.relabel(inst.net, inst.region, rng)
        # replay the input permutation the relabelling drew
        rng2 = random.Random()
        rng2.setstate(state)
        perm = list(range(inst.net.input_dim))
        rng2.shuffle(perm)
        for _ in range(5):
            x = [F(rng.randint(0, 8), 8) * (hi - lo) + lo
                 for lo, hi in zip(inst.region.lower, inst.region.upper)]
            assert forward_eval(net, [x[k] for k in perm]).outputs == \
                forward_eval(inst.net, x).outputs
        assert oracle_verify(net, region, inst.prop).status == inst.expected


def _traced_counts(workload, seed, directory):
    directory.mkdir()
    instances = families.setup(workload, families.MIXED_SEED, seed, str(directory))
    with Tracer() as tracer:
        (runs,) = measure.run_passes(instances, workload.flags, 1, [], tracer)
    verdicts = [{"status": r.status, "counters": r.counters} for r in runs]
    layer = tracer.per_layer(verdicts)
    return runs, layer


def test_counts_repeat_exactly_and_match_budget(tmp_path):
    small = {name: dataclasses.replace(families.WORKLOADS[name], count=count)
             for name, count in (("mixed", 6), ("branching", 2))}
    for name, workload in small.items():
        first, layer = _traced_counts(workload, 7, tmp_path / f"{name}-a")
        again, layer2 = _traced_counts(workload, 7, tmp_path / f"{name}-b")
        assert [r.counters for r in first] == [r.counters for r in again]
        assert [r.proof_bytes for r in first] == [r.proof_bytes for r in again]
        for key in ("lp.pivots", "lp.calls", "certs.verify.mults", "prooflog.check.mults",
                    "prooflog.proof_bytes", "search.splits"):
            assert layer[key] == layer2[key], key
        assert layer["lp.calls"] == sum(r.counters["lp_calls"] for r in first)
        assert layer["search.splits"] == sum(r.counters["splits"] for r in first)
        assert not any(r.wrong for r in first)
    assert layer["search.splits"] > 0  # the branching sample really splits


def test_tracer_restores_the_program():
    from relucert import cli, lp, search, store

    before = (lp.lp_max, search.build_initial_store, store.Store.normalize, cli.icl_verify)
    with Tracer():
        assert lp.lp_max is not before[0]
    assert (lp.lp_max, search.build_initial_store, store.Store.normalize,
            cli.icl_verify) == before


def test_timed_samples_the_host_and_restores_the_signal():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    probes = []
    result, seconds = measure.timed(lambda: time.sleep(0.1) or 7, probes)
    assert result == 7
    assert len(probes) >= 4  # before, during and after the call
    ref = 0.1 * measure.PROBE_REF_MS / (sum(probes) / len(probes))
    assert 0.9 * ref < seconds < 1.5 * ref
    assert signal.getsignal(signal.SIGALRM) is previous


def test_statistics():
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(48) == 79
    assert measure.tail_percentile(12) == 50
    values = [float(v) for v in range(1, 22)]
    assert abs(measure.quantile(values, 0.5) - 11.0) < 1e-9
    assert measure.quantile([7.0], 0.5) == 7.0
    assert measure.quantile(values, 0.9) > measure.quantile(values, 0.5)
    samples = [(1.0, False), (5.0, True), (3.0, False), (2.0, True)]
    assert measure.ranked(samples) == [1.0, 3.0, 3.0, 5.0]
    fixed = [(1.0, False), (5.0, True), (3.0, False), (2.0, False)]
    assert all(a <= b for a, b in zip(measure.ranked(fixed), measure.ranked(samples)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
