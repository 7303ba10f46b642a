"""The closed measurement loop and the end-to-end metrics.

One client in one process: each call to `relucert.cli.main` starts when the
previous one returns.  Every instance is verified under both strategies,
every UNSAT proof is replayed with `check`, every witness is re-evaluated
exactly, and every verdict is compared with the label computed in set-up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from relucert import certs, cli
from relucert.model import forward_eval

STRATEGIES = ("icl", "hsrv")
#: the host probe's time on the host the bounds were set on; timings are
#: reported at this host speed
PROBE_REF_MS = 0.3
#: how often the host probe runs during a timed call
SAMPLE_EVERY_S = 0.02


def host_probe_ms() -> float:
    """Time of a fixed pure-Python Fraction loop, about 0.3 ms, with the
    collector off so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 100):
            acc += Fraction(k % 97 - 48, k)
        return 1000 * (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def timed(fn, probes):
    """Call `fn()` and return its result and its time in seconds at the
    reference host speed.

    The shared host switches between speeds within a second, and the
    verifier slows with it.  So the host probe runs once before the call,
    every SAMPLE_EVERY_S seconds during it (from a timer signal) and once
    after it.  The call's wall time, less the time spent in the probes, is
    scaled by PROBE_REF_MS over the mean probe time.  The probe times are
    appended to `probes`.  The heap is collected first, so that each call
    starts as clean as in a fresh `relucert` process and does not pay for
    the garbage of the calls before it."""
    gc.collect()
    samples = [host_probe_ms()]
    spent = 0.0

    def sample(*_):
        nonlocal spent
        start = time.perf_counter()
        samples.append(host_probe_ms())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(host_probe_ms())
    probes.extend(samples)
    return result, (wall - spent) * PROBE_REF_MS / statistics.fmean(samples)


@dataclass
class Attempt:
    """One instance under one strategy, in one pass.  Times are in seconds
    at the reference host speed."""

    instance: int
    strategy: str
    verify_s: float = 0.0
    status: str = ""  # verdict printed by verify: "sat" | "unsat" | "unknown"
    counters: dict = field(default_factory=dict)
    check_s: float | None = None
    proof_bytes: int = 0
    failure: str = ""  # empty when the run succeeded
    wrong: bool = False  # a verdict or witness that is false, not merely uncertified


def _call(argv, probes, tracer=None):
    """Run the command line in process, timed; returns (seconds, exit code,
    stdout).  A call that raises gives exit code None and the exception."""
    out = io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                return tracer.call("cli", cli.main, argv) if tracer else cli.main(argv)
            except Exception as exc:  # a crash is a failed run, not a benchmark error
                return exc

    code, seconds = timed(run, probes)
    if isinstance(code, Exception):
        return seconds, None, f"raised {code!r}"
    return seconds, code, out.getvalue()


def _parse_verify(text: str):
    counters, status = {}, "unknown"
    for line in text.splitlines():
        if line == "UNSAT":
            status = "unsat"
        elif line.startswith("SAT "):
            status = "sat"
        elif "=" in line and not line.startswith("UNKNOWN"):
            key, value = line.split("=", 1)
            counters[key] = int(value)
    return status, counters


def _witness_ok(inst, path) -> bool:
    """Exact forward evaluation of the witness file, independent of the
    verifier's own validation."""
    try:
        with open(path) as fh:
            x = tuple(Fraction(line) for line in fh.read().split())
    except (OSError, ValueError, ZeroDivisionError):
        return False
    net, region, prop = inst.problem
    if len(x) != net.input_dim or not region.contains(x):
        return False
    return prop.margin_value(forward_eval(net, x).outputs) >= prop.violation_threshold


def attempt(inst, strategy, flags, probes, tracer=None) -> Attempt:
    stem = f"{inst.path}.{strategy}"
    proof, witness = stem + ".proof", stem + ".witness"
    for path in (proof, witness):
        if os.path.exists(path):
            os.remove(path)
    argv = ["verify", inst.path, "--strategy", strategy, "--emit-proof", proof,
            "--witness", witness, *flags]
    run = Attempt(inst.idx, strategy)
    mults = certs.counter.mults
    run.verify_s, code, text = _call(argv, probes, tracer)
    if tracer:
        tracer.counts["certs.verify.mults"] += certs.counter.mults - mults
    if code is None:
        run.failure = f"verify {text}"
        return run
    run.status, run.counters = _parse_verify(text)
    if code not in (cli.EXIT_SAT, cli.EXIT_UNSAT):
        run.failure = f"verify exit {code}: {(text.strip().splitlines() or [''])[-1]}"
    elif run.status != inst.expected:
        run.failure = f"verdict {run.status}, expected {inst.expected}"
        run.wrong = True
    elif run.status == "sat":
        if not _witness_ok(inst, witness):
            run.failure = "witness rejected by exact forward evaluation"
            run.wrong = True
    elif not os.path.exists(proof):
        run.failure = "no proof written"
    else:
        run.proof_bytes = os.path.getsize(proof)
        mults = certs.counter.mults
        run.check_s, code, text = _call(["check", inst.path, proof], probes, tracer)
        if tracer:
            tracer.counts["prooflog.check.mults"] += certs.counter.mults - mults
        if code != 0 or text.strip() != "ACCEPT":
            run.failure = f"check: {text.strip()}"
    return run


def run_passes(instances, flags, passes, probes, tracer=None):
    """`passes` whole passes over the instances, each instance under every
    strategy in turn.  Host probe times are appended to `probes`."""
    out = []
    for _ in range(passes):
        runs = []
        for inst in instances:
            if tracer:
                tracer.instance = inst.idx
            runs += [attempt(inst, s, flags, probes, tracer) for s in STRATEGIES]
        out.append(runs)
    return out


# -- statistics -------------------------------------------------------------


def quantile(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density over their
    share of [0, 1], integrated by the midpoint rule.  With few, widely
    spread samples it moves less than a single order statistic.  For p50 and
    the tail percentile both Beta parameters are at least 1, so the density
    is bounded."""
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64 * n
    dens = [x ** (a - 1) * (1 - x) ** (b - 1) for x in ((k + 0.5) / steps for k in range(steps))]
    return sum(sorted_values[k // 64] * d for k, d in enumerate(dens)) / sum(dens)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it; p50
    when there are fewer than twenty samples."""
    return max(50, math.floor(100 * (n - 10) / n)) if n else 50


def ranked(samples) -> list[float]:
    """Sample times in rank order, a failed sample ranking above every
    success and reading at least as slow as the slowest one.  Turning a
    failure into a success can then only lower every order statistic."""
    ok = sorted(t for t, failed in samples if not failed)
    slowest = max((t for t, _ in samples), default=0.0)
    bad = sorted(max(t, ok[-1] if ok else slowest) for t, failed in samples if failed)
    return ok + bad


def per_instance(passes, strategy, key) -> dict[int, tuple[float, bool]]:
    """Per instance, under one strategy: the median over passes of `key`,
    and whether any pass failed."""
    by_inst: dict[int, list[Attempt]] = {}
    for runs in passes:
        for r in runs:
            if r.strategy == strategy:
                by_inst.setdefault(r.instance, []).append(r)
    out = {}
    for idx, rs in sorted(by_inst.items()):
        values = [key(r) for r in rs if key(r) is not None]
        if values:
            out[idx] = (statistics.median(values), any(r.failure for r in rs))
    return out


def end_to_end(passes) -> tuple[dict, dict]:
    """Metric values in their units, and the sample counts and tail
    percentiles behind them."""
    metrics, detail = {}, {}
    for s in STRATEGIES:
        samples = per_instance(passes, s, lambda r: r.verify_s)
        values = ranked(samples.values())
        tail = tail_percentile(len(values))
        metrics[f"{s}.verify_p50_ms"] = 1000 * quantile(values, 0.5)
        metrics[f"{s}.verify_tail_ms"] = 1000 * quantile(values, tail / 100)
        runs = [r for p in passes for r in p if r.strategy == s]
        good = sum(1 for r in runs if not r.failure)
        metrics[f"{s}.verdicts_per_s"] = good / sum(r.verify_s for r in runs)
        detail[f"{s}.verify"] = {"samples": len(values), "tail_percentile": tail,
                                 "ms": {i: round(1000 * t, 3) for i, (t, _) in samples.items()}}
    checks = []
    for s in STRATEGIES:
        checks += per_instance(passes, s, lambda r: r.check_s).values()
    values = ranked(checks)
    tail = tail_percentile(len(values))
    metrics["check_p50_ms"] = 1000 * quantile(values, 0.5) if values else 0.0
    metrics["check_tail_ms"] = 1000 * quantile(values, tail / 100) if values else 0.0
    detail["check"] = {"samples": len(values), "tail_percentile": tail}
    first = passes[0]
    proofs = [r.proof_bytes for r in first if r.status == "unsat" and r.proof_bytes]
    metrics["proof_kb"] = sum(proofs) / len(proofs) / 1000 if proofs else 0.0
    detail["proof_kb"] = {"samples": len(proofs)}
    return metrics, detail
