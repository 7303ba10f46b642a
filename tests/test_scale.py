"""The scale sets of `scale_nets`, wider than any benchmark family, under
icl with an LP budget of 300, as their baseline runs were made.  No test
here bounds a time: each pins verdicts, LP counts and the bit length of
the LP engine's numbers, which do not depend on the host."""

from collections import Counter

from conftest import dump_problem, file_digest
from relucert import lp, prooflog
from relucert.search import Config, icl_verify
from scale_nets import scale_set

CONFIG = Config(lp_budget=300)


def _den_bits(out) -> int:
    """The longest denominator, in bits, of an LP outcome's value, point
    and multipliers."""
    values = [] if out.value is None else [out.value]
    for part in (out.primal, out.dual):
        if part:
            values.extend(part.values())
    return max((v.denominator.bit_length() for v in values), default=0)


def test_s4_net_5_keeps_its_lp_numbers_short(monkeypatch):
    """S4 net 5 is SAT in 33 LPs.  With each TGCT optimum copied exactly
    into its derived row, the hull slopes and LPs after it inherited its
    bit length pass by pass, up to 10,144-bit denominators; rounded
    outward to the simplest nearby rational, none passes 256 bits."""
    bits = []
    for name in ("lp_max", "lp_feasible"):
        solve = getattr(lp, name)

        def recording(*args, _solve=solve, **kwargs):
            out = _solve(*args, **kwargs)
            bits.append(_den_bits(out))
            return out

        monkeypatch.setattr(lp, name, recording)
    res = icl_verify(*scale_set("S4")[5], CONFIG)
    assert res.status == "sat" and res.budget.lp_calls == 33 == len(bits), res
    assert max(bits) <= 256, max(bits)


def test_s2_verdicts_and_proofs(tmp_path):
    """S2 gives 79 SAT and 21 UNSAT verdicts, and `check` accepts each
    UNSAT proof."""
    verdicts = Counter()
    for idx, problem in enumerate(scale_set("S2")):
        res = icl_verify(*problem, CONFIG)
        verdicts[res.status] += 1
        if res.status == "unsat":
            path = tmp_path / f"s2-{idx}.json"
            dump_problem(*problem, path)
            digest = file_digest(path)
            out = prooflog.check_proof(problem, prooflog.emit(res.tree, digest), digest)
            assert out.accepted, (idx, out)
    assert verdicts == {"sat": 79, "unsat": 21}, verdicts
