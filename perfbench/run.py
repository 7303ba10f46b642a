"""relucert benchmark: time to a certified verdict, and proof replay cost.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the verifier is imported from
`src/`.  The workload's instance family comes from `--family-seed`
(default: the acceptance suite's seed; `families.HELD_OUT_SEED` is kept for
confirming claims).  `--seed` picks how the family is presented: a
function-preserving relabelling of every network and the instance order.

With `--trace 0` the run sets up the workload several times, then makes
whole passes of `verify` (icl and hsrv) and `check` calls through
`relucert.cli.main` and reports the end-to-end metrics.  The number of
passes is `--seconds` over the workload's nominal pass length, at least
one.  Times are reported at a reference host speed (`measure.timed`).
With `--trace 1` it makes one untraced and one traced pass and reports the
per-module metrics, the tracing overhead, and whether the traced LP and
split counts equal the ones `verify` printed from its Budget.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
report with sample counts, tail percentiles and every failure's reason.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--family-seed", type=int, default=None)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relucert" / "__init__.py").is_file():
        print(f"error: no relucert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import families
    import measure
    from spans import Tracer

    if args.workload not in families.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(families.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = families.WORKLOADS[args.workload]
    family_seed = families.MIXED_SEED if args.family_seed is None else args.family_seed

    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        probes, setup_s = [], []
        for _ in range(1 if args.trace else SETUP_REPS):
            instances, seconds = measure.timed(
                lambda: families.setup(workload, family_seed, args.seed, str(work)), probes)
            setup_s.append(seconds)

        report = {"workload": args.workload, "seed": args.seed, "family_seed": family_seed,
                  "instances": len(instances)}
        if args.trace:
            untraced = measure.run_passes(instances, workload.flags, 1, probes)
            with Tracer() as tracer:
                traced = measure.run_passes(instances, workload.flags, 1, probes, tracer)
            passes = untraced + traced
            runs = traced[0]
            verdicts = [{"status": r.status, "counters": r.counters} for r in runs if r.counters]
            metrics = tracer.per_layer(verdicts)
            budget = {key: sum(v["counters"][key] for v in verdicts)
                      for key in ("lp_calls", "splits")}
            consistent = (metrics["lp.calls"] == budget["lp_calls"]
                          and metrics["search.splits"] == budget["splits"])
            report["budget"] = budget
            report["counters_consistent"] = consistent
            plain, _ = measure.end_to_end(untraced)
            with_spans, _ = measure.end_to_end(traced)
            for s in measure.STRATEGIES:
                key = f"{s}.verdicts_per_s"
                metrics[f"trace.{s}.overhead_per_s"] = plain[key] - with_spans[key]
            tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            count = max(1, round(args.seconds / workload.pass_s))
            passes = measure.run_passes(instances, workload.flags, count, probes)
            consistent = True
            metrics, detail = measure.end_to_end(passes)
            metrics["setup_s"] = statistics.median(setup_s)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report.update(detail)
            report["setup_s"] = [round(t, 4) for t in setup_s]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics["host.fraction_probe_ms"] = statistics.median(probes)
    report["host.fraction_probe_ms"] = {"samples": len(probes), "quartiles": [
        round(q, 4) for q in statistics.quantiles(probes, n=4)]}
    runs = [r for p in passes for r in p]
    failures = [{"instance": r.instance, "strategy": r.strategy, "reason": r.failure}
                for r in runs if r.failure]
    report["passes"] = len(passes)
    report["failed_share"] = len(failures) / len(runs)
    report["failures"] = failures
    # BENCHMARK.json names the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    report["other_metrics"] = {k: v for k, v in metrics.items()
                               if k not in {m["name"] for m in declared}}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": consistent and not any(r.wrong for r in runs),
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
