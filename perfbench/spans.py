"""Span tracing of relucert's modules, from outside the program.

`Tracer.install()` replaces the public functions of each module (and the
bindings other relucert modules imported by name) with wrappers that record
a span: name, start, end, parent span and instance id.  A few private
checker helpers get counting-only wrappers.  `uninstall()` restores every
original, so untraced runs execute the program exactly as shipped.

Spans stay in memory; `per_layer()` turns them into the per-module metrics
and `write()` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# cli is imported so that its by-name bindings are loaded, and patched too
from relucert import certs, cli, gate, lp, model, prooflog, propagate, search, store  # noqa: F401

MAX_LAYERS = 3  # the families have at most three hidden layers


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    instance: int = -1
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _den_bits(out) -> int:
    values = [v for v in (out.value,) if v is not None]
    for part in (out.primal, out.dual, out.ray):
        if part:
            values.extend(part.values())
    return max((v.denominator.bit_length() for v in values), default=0)


def _layer_stats(st) -> dict:
    """Unstable units and mean pre-activation width per hidden layer."""
    stats = {}
    for (i, _), (lo, hi) in st.bounds.pre.items():
        if st.net.layers[i - 1].activation != model.RELU:
            continue
        n, unstable, width = stats.get(i, (0, 0, 0.0))
        stats[i] = (n + 1, unstable, width + float(hi - lo))
    for (i, _) in st.unstable:
        n, unstable, width = stats[i]
        stats[i] = (n, unstable + 1, width)
    return {i: (unstable, width / n) for i, (n, unstable, width) in stats.items()}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self.stack[-1] if self.stack else -1,
                    instance=self.instance)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]].name if self.stack else ""

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, after=None, before=None, nested=True):
        """Wrap `fn` in a span; `before(args)` returns context handed to
        `after(span, result, args, context)`.  With nested=False a call made
        while the innermost open span has the same name is not recorded
        again (lp_min calls lp_max, check_guarded calls check_farkas)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not nested and tracer.parent_name() == name:
                return fn(*args, **kwargs)
            ctx = before(args) if before else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                after(span, result, args, ctx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        """Replace `owner.attr` and every relucert binding of the same object."""
        orig = getattr(owner, attr)
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for k, m in sys.modules.items()
                       if k == "relucert" or k.startswith("relucert.")]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is orig:
                    self._patched.append((target, name, value))
                    setattr(target, name, wrapper)

    def install(self) -> None:
        def lp_after(span, out, args, _):
            sys_ = args[0]
            span.info = {
                "rows": len(sys_.rows),
                "cols": sys_.n_vars + len(sys_.rows) + sum(1 for r in sys_.rows if r.rhs < 0),
                "pivots": out.iterations,
                "status": out.status,
                "bits": _den_bits(out),
            }

        for name in ("lp_max", "lp_min", "lp_feasible"):
            self._patch(lp, name, self._spanned("lp", getattr(lp, name), lp_after, nested=False))

        def normalize_after(span, out, args, _):
            span.info = {"rows": len(out.rows)}

        self._patch(store.Store, "normalize",
                    self._spanned("store.normalize", store.Store.normalize, normalize_after))
        self._patch(store, "build_initial_store",
                    self._spanned("store.build", store.build_initial_store))

        def propagate_before(args):
            return _layer_stats(args[0])

        def propagate_after(span, res, args, before):
            span.info = {"before": before, "after": _layer_stats(args[0]),
                         "passes": res.iterations, "prune": res.status == "prune",
                         "stabilized": len(res.stability_certs)}

        self._patch(propagate, "propagate_node",
                    self._spanned("propagate", propagate.propagate_node,
                                  propagate_after, propagate_before))

        def tgct_after(span, res, args, _):
            span.info = {"rows_added": res.rows_added}

        self._patch(propagate, "tgct", self._spanned("propagate.tgct", propagate.tgct, tgct_after))

        for name in ("check_dual", "check_farkas", "check_guarded"):
            self._patch(certs, name, self._spanned("certs", getattr(certs, name), nested=False))

        def gate_after(span, res, args, _):
            span.info = {"refinements": res.refinements, "outcome": res.status,
                         "cover": len(res.certificates)}

        def exact_after(span, res, args, _):
            span.info = {"outcome": {gate.UNSAT: gate.PRUNE, gate.SAT: gate.SAT}.get(
                res.status, gate.DEFER), "cover": len(res.cover)}

        self._patch(gate, "exactness_gate", self._spanned("gate", gate.exactness_gate, gate_after))
        self._patch(gate, "exact_solve", self._spanned("gate.exact", gate.exact_solve, exact_after))

        for name in ("icl_verify", "hsrv_verify"):
            self._patch(search, name, self._spanned("search", getattr(search, name)))
        self._patch(search, "refine", self._counted("search.splits", search.refine))
        self._patch(search, "merge_lemma", self._counted("search.lemmas", search.merge_lemma))
        self._patch(search.ClauseDB, "blocking",
                    self._counted("search.nodes", search.ClauseDB.blocking))

        def emit_after(span, data, args, _):
            span.info = {"bytes": len(data)}

        self._patch(prooflog, "emit", self._spanned("prooflog.emit", prooflog.emit, emit_after))
        self._patch(prooflog, "check_proof",
                    self._spanned("prooflog.check", prooflog.check_proof))
        self._patch(prooflog, "_check_snapshot",
                    self._counted("prooflog.check.snapshots", prooflog._check_snapshot))
        self._patch(prooflog, "_check_snapshot_row",
                    self._counted("prooflog.check.rows", prooflog._check_snapshot_row))

        self._patch(model, "parse_problem", self._spanned("model.parse", model.parse_problem))
        self._patch(model, "validate_witness",
                    self._spanned("model.witness", model.validate_witness))

    def uninstall(self) -> None:
        for target, name, value in reversed(self._patched):
            setattr(target, name, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "instance": s.instance,
                                     **{k2: v for k2, v in s.info.items()
                                        if k2 not in ("before", "after")}}) + "\n")

    def per_layer(self, verdicts) -> dict[str, float]:
        """Per-module metrics.  `verdicts` holds, per traced verify call, the
        verdict and the Budget counters that `verify` printed."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        self_s: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        by_name: dict[str, list[int]] = defaultdict(list)
        for k, s in enumerate(spans):
            self_s[s.name] += s.seconds - child[k]
            total[s.name] += s.seconds
            calls[s.name] += 1
            by_name[s.name].append(k)

        def parent_of(k):
            p = spans[k].parent
            return spans[p].name if p >= 0 else ""

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        def in_verify(k):
            while k >= 0:
                if spans[k].name == "search":
                    return True
                k = spans[k].parent
            return False

        m: dict[str, float] = {}
        lps = [spans[k] for k in by_name["lp"]]
        m["lp.calls"] = len(lps)
        m["lp.self_s"] = self_s["lp"]
        m["lp.pivots"] = sum(s.info["pivots"] for s in lps)
        m["lp.pivots_per_call"] = m["lp.pivots"] / len(lps) if lps else 0.0
        m["lp.rows_mean"] = mean(s.info["rows"] for s in lps)
        m["lp.cols_mean"] = mean(s.info["cols"] for s in lps)
        m["lp.den_bits_max"] = max((s.info["bits"] for s in lps), default=0)
        m["lp.infeasible_share"] = mean(s.info["status"] == lp.INFEASIBLE for s in lps)
        groups = {"tgct": ("propagate.tgct",), "feas": ("propagate",), "margin": ("search",),
                  "gate": ("gate", "gate.exact")}
        for key, parents in groups.items():
            ks = [k for k in by_name["lp"] if parent_of(k) in parents]
            m[f"lp.{key}.calls"] = len(ks)
            m[f"lp.{key}.s"] = sum(spans[k].seconds for k in ks)

        m["store.build.calls"] = calls["store.build"]
        m["store.build.s"] = total["store.build"]
        m["store.normalize.calls"] = calls["store.normalize"]
        m["store.normalize.s"] = total["store.normalize"]
        m["store.rows_mean"] = mean(spans[k].info["rows"] for k in by_name["store.normalize"])

        props = [spans[k] for k in by_name["propagate"]]
        m["propagate.calls"] = len(props)
        m["propagate.self_s"] = self_s["propagate"]
        m["propagate.passes_mean"] = mean(s.info["passes"] for s in props)
        m["propagate.prune_share"] = mean(s.info["prune"] for s in props)
        m["propagate.stabilized"] = sum(s.info["stabilized"] for s in props)
        rows_added = sum(spans[k].info["rows_added"] for k in by_name["propagate.tgct"])
        m["propagate.tgct.useful_share"] = (rows_added / m["lp.tgct.calls"]
                                            if m["lp.tgct.calls"] else 0.0)
        for i in range(1, MAX_LAYERS + 1):
            for when in ("before", "after"):
                stats = [s.info[when][i] for s in props if i in s.info[when]]
                m[f"propagate.L{i}.unstable_{when}"] = mean(u for u, _ in stats)
                m[f"propagate.L{i}.width_{when}"] = mean(w for _, w in stats)

        ks = [k for k in by_name["certs"] if in_verify(k)]
        m["certs.verify.checks"] = len(ks)
        m["certs.verify.s"] = sum(spans[k].seconds for k in ks)
        m["certs.verify.mults"] = self.counts["certs.verify.mults"]

        gates = [spans[k] for k in by_name["gate"]]
        gates += [spans[k] for k in by_name["gate.exact"] if parent_of(k) == "search"]
        m["gate.calls"] = len(gates)
        m["gate.s"] = sum(s.seconds for s in gates)
        m["gate.refinements"] = sum(s.info.get("refinements", 0) for s in gates)
        m["gate.prune_share"] = mean(s.info["outcome"] == gate.PRUNE for s in gates)
        m["gate.defer_share"] = mean(s.info["outcome"] == gate.DEFER for s in gates)
        m["gate.cover_mean"] = mean(s.info["cover"] for s in gates
                                    if s.info["outcome"] == gate.PRUNE)

        m["search.nodes"] = self.counts["search.nodes"]
        m["search.self_s"] = self_s["search"]
        m["search.splits"] = self.counts["search.splits"]
        m["search.lemmas"] = self.counts["search.lemmas"]
        m["search.clauses"] = sum(v["counters"]["clauses_learned"] for v in verdicts)
        for status in ("sat", "unsat"):
            lp_calls = [v["counters"]["lp_calls"] for v in verdicts if v["status"] == status]
            m[f"search.lp_per_{status}"] = mean(lp_calls)

        m["prooflog.emit.s"] = total["prooflog.emit"]
        m["prooflog.proof_bytes"] = sum(spans[k].info["bytes"] for k in by_name["prooflog.emit"])
        m["prooflog.check.s"] = total["prooflog.check"]
        m["prooflog.check.snapshots"] = self.counts["prooflog.check.snapshots"]
        m["prooflog.check.rows"] = self.counts["prooflog.check.rows"]
        m["prooflog.check.mults"] = self.counts["prooflog.check.mults"]

        m["model.parse.s"] = total["model.parse"]
        m["model.witness.calls"] = calls["model.witness"]
        m["model.witness.s"] = total["model.witness"]
        m["cli.self_s"] = self_s["cli"]
        return m
