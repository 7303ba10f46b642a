import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (
    WORKED,
    WORKED_SAT,
    dump_problem,
    worked_network,
    worked_prop,
    worked_region,
)
from relucert import cli, gate, lp, prooflog, search
from relucert.cli import (
    EXIT_CAP,
    EXIT_FAULT,
    EXIT_SAT,
    EXIT_UNKNOWN,
    EXIT_UNSAT,
    EXIT_USAGE,
    build_parser,
    main,
)
from relucert.model import IDENTITY, Layer, Network, Region, SafetyProperty, validate_witness
from test_search import tightened

ROOT = Path(__file__).resolve().parent.parent

COUNTERS = ("splits", "lp_calls", "gate_invocations", "stabilized_units",
            "lemmas_learned", "clauses_learned")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_o(*argv):
    """The command line under `python -O`, which strips assert statements."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-O", "-m", "relucert.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True)


class TestVerify:
    def test_unsat_exits_zero_under_both_strategies(self, capsys):
        for strategy in ("icl", "hsrv"):
            code, out, _ = _run(capsys, "verify", WORKED, "--strategy", strategy)
            assert code == EXIT_UNSAT
            assert "UNSAT" in out

    def test_counters_printed_as_key_value_lines(self, capsys):
        _, out, _ = _run(capsys, "verify", WORKED)
        for key in COUNTERS:
            assert re.search(rf"^{key}=\d+$", out, re.M), f"missing counter {key}"

    def test_sat_prints_validating_witness(self, capsys):
        code, out, _ = _run(capsys, "verify", WORKED_SAT)
        assert code == EXIT_SAT
        m = re.search(r"SAT witness=\[([^\]]*)\]", out)
        assert m
        x = tuple(F(v.strip()) for v in m.group(1).split(","))
        assert validate_witness(worked_network(), worked_region(), worked_prop("1/2"), x).accepted

    def test_witness_file_written(self, capsys, tmp_path):
        target = tmp_path / "w.txt"
        code, _, _ = _run(capsys, "verify", WORKED_SAT, "--witness", str(target))
        assert code == EXIT_SAT
        x = tuple(F(line) for line in target.read_text().splitlines())
        assert validate_witness(worked_network(), worked_region(), worked_prop("1/2"), x).accepted

    def test_midpoint_counterexample_needs_no_lp(self, capsys, tmp_path):
        problem = tmp_path / "mid.json"
        dump_problem(worked_network(), worked_region(), worked_prop("-1/2"), problem)
        for strategy in ("icl", "hsrv"):
            code, out, _ = _run(capsys, "verify", str(problem), "--strategy", strategy)
            assert code == EXIT_SAT
            assert re.search(r"^lp_calls=0$", out, re.M)
            assert "SAT witness=[1/2]" in out

    def test_unwritable_proof_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "x.proof"
        code, out, err = _run(capsys, "verify", WORKED, "--emit-proof", str(target))
        assert code == EXIT_USAGE
        assert "UNSAT" in out and err.startswith("error: ")

    def test_unwritable_witness_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "x.witness"
        code, out, err = _run(capsys, "verify", WORKED_SAT, "--witness", str(target))
        assert code == EXIT_USAGE
        assert "SAT witness=" in out and err.startswith("error: ")

    def test_missing_problem_file_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "problems/nope.json")
        assert code == EXIT_USAGE and "error" in err

    def test_malformed_problem_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"weights": "x"}')
        code, _, _ = _run(capsys, "verify", str(bad))
        assert code == EXIT_USAGE

    def test_deeply_nested_problem_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        for argv in (("verify", str(bad)), ("check", str(bad), "nope.proof"),
                     ("oracle", str(bad))):
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_USAGE and err.startswith("error: "), argv

    def test_non_list_input_bounds_are_usage_errors(self, capsys, tmp_path):
        doc = json.loads(Path(WORKED).read_text())
        for key in ("input_lower", "input_upper"):
            for value in (5, None):
                bad = tmp_path / "bad.json"
                bad.write_text(json.dumps({**doc, key: value}))
                for argv in (("verify", str(bad)), ("check", str(bad), "nope.proof"),
                             ("oracle", str(bad))):
                    code, _, err = _run(capsys, *argv)
                    assert code == EXIT_USAGE and err.startswith("error: "), (key, value, argv)

    @pytest.mark.parametrize("key", ["00", " 0", "+0", "0_0", "\u0660", "-0", "0 "])
    def test_non_canonical_margin_key_is_usage_error(self, capsys, tmp_path, key):
        # int() reads each of these as output 0; only "0" names it
        doc = json.loads(Path(WORKED).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "margin": {key: "1"}}))
        for argv in (("verify", str(bad)), ("check", str(bad), "nope.proof"),
                     ("oracle", str(bad))):
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_USAGE and "canonical decimal key" in err, (key, argv)

    def test_duplicated_key_is_usage_error(self, capsys, tmp_path):
        # JSON keeps the last of two equal keys: read so, this margin would
        # be -y, and the worked problem would verify UNSAT
        text = Path(WORKED).read_text()
        assert text.count('"margin": {"0": "1"}') == 1
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"margin": {"0": "1"}', '"margin": {"0": "1", "0": "-1"}'))
        for argv in (("verify", str(bad)), ("check", str(bad), "nope.proof"),
                     ("oracle", str(bad))):
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_USAGE and "duplicated key '0'" in err, argv

    @pytest.mark.parametrize("coeff", ["0", "0/3", "-0"])
    def test_all_zero_margin_is_usage_error(self, capsys, tmp_path, coeff):
        # the negated property of a zero margin would be an empty row
        doc = json.loads(Path(WORKED).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "margin": {"0": coeff}}))
        for argv in (("verify", str(bad)), ("check", str(bad), "nope.proof"),
                     ("oracle", str(bad))):
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_USAGE and "nonzero coefficient" in err, (coeff, argv)

    def test_exhausted_budget_reports_unknown(self, capsys):
        code, out, _ = _run(capsys, "verify", WORKED_SAT, "--lp-budget", "1")
        assert code == EXIT_UNKNOWN
        assert "UNKNOWN" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "verify", WORKED, "--no-such-flag")
        assert code == EXIT_USAGE

    def test_parser_is_built_once_and_keeps_no_flags(self, capsys, monkeypatch):
        # the budget of the first call must not carry over to the second,
        # which reuses the parser the first one built.  The SAT variant
        # needs an LP (the worked query is refuted with none)
        code, out, _ = _run(capsys, "verify", WORKED_SAT, "--lp-budget", "0")
        assert code == EXIT_UNKNOWN and "UNKNOWN" in out

        def rebuilt():
            raise AssertionError("parser built twice")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        code, out, _ = _run(capsys, "verify", WORKED_SAT)
        assert code == EXIT_SAT and "SAT witness=" in out

    @pytest.mark.parametrize("flag", ("--lp-budget", "--gate-budget", "--max-depth", "--cap"))
    def test_negative_count_is_usage_error(self, capsys, flag):
        command = "oracle" if flag == "--cap" else "verify"
        code, out, err = _run(capsys, command, WORKED, flag, "-1")
        assert code == EXIT_USAGE and out == ""
        assert f"argument {flag}: -1 is negative" in err
        # zero is a limit, not a usage error: the worked problem has two
        # unstable units, more than an oracle cap of 0
        code, out, _ = _run(capsys, command, WORKED, flag, "0")
        if command == "oracle":
            assert code == EXIT_CAP
        else:
            assert code == EXIT_UNSAT and "UNSAT" in out

    def test_margin_past_the_int_digit_limit_verifies_unsat(self, capsys, tmp_path):
        """y = sum_i (1 + 1/(10^1500 + 7 + i)) x_i on [0, 1]^3 never reaches
        10 + 1/10.  The midpoint's margin has about 4,500 digits, past the
        limit of `str` on an int; it is no counterexample, and the run says
        UNSAT, in process and under `python -O`."""
        big = 10**1500 + 7
        net = Network((Layer(((F(1) + F(1, big), F(1) + F(1, big + 1), F(1) + F(1, big + 2)),),
                             (F(0),), IDENTITY),), 3, 1)
        problem = tmp_path / "big.json"
        dump_problem(net, Region((F(0),) * 3, (F(1),) * 3),
                     SafetyProperty(((0, F(1)),), F(10), F(1, 10)), problem)
        for strategy in ("icl", "hsrv"):
            code, out, err = _run(capsys, "verify", str(problem), "--strategy", strategy)
            assert (code, out.splitlines()[-1], err) == (EXIT_UNSAT, "UNSAT", ""), strategy
            run = _cli_o("verify", str(problem), "--strategy", strategy)
            assert run.returncode == EXIT_UNSAT and run.stdout.splitlines()[-1] == "UNSAT", run


def _long_digits(idx):
    """Acceptance-suite instance `idx` of the `tight-unsat` construction
    (threshold + epsilon 1/1000 above its maximum margin) with each weight
    w scaled by 1 + 1/(10^1500 + 7 + i), i the weight's running index, and
    the threshold raised by 1/2000: UNSAT still, with 1,500-digit weights."""
    net, region, prop = tightened(idx)
    big = 10**1500 + 7
    scale = (F(1) + F(1, big + i) for i in itertools.count())
    layers = tuple(Layer(tuple(tuple(w * next(scale) for w in row) for row in layer.weights),
                         layer.bias, layer.activation) for layer in net.layers)
    return (Network(layers, net.input_dim, net.output_dim), region,
            SafetyProperty(prop.margin, prop.threshold + F(1, 2000), prop.epsilon))


class TestLongNumbers:
    """A command's numbers have no length limit: `main` lifts CPython's
    4,300-digit limit on int <-> str conversion while the command runs, and
    gives the caller its own limit back."""

    def test_proofs_past_the_digit_limit_are_written_and_accepted(self, capsys, tmp_path):
        # before the limit was lifted, `verify --emit-proof` exited 5 on each
        # of these in `prooflog.emit`, after the search had proved it UNSAT
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            for idx in (3, 12, 18):
                problem, proof = tmp_path / f"p{idx}.json", tmp_path / f"p{idx}.proof"
                dump_problem(*_long_digits(idx), problem)
                code, out, err = _run(capsys, "verify", str(problem), "--emit-proof", str(proof))
                assert (code, out.splitlines()[-1], err) == (EXIT_UNSAT, "UNSAT", ""), idx
                assert sys.get_int_max_str_digits() == 5000
                assert max(map(len, re.findall(rb"\d+", proof.read_bytes()))) > 5000, idx
                code, out, _ = _run(capsys, "check", str(problem), str(proof))
                assert (code, out) == (0, "ACCEPT\n"), idx
                assert sys.get_int_max_str_digits() == 5000
                run = _cli_o("verify", str(problem), "--emit-proof", str(proof))
                assert run.returncode == EXIT_UNSAT and run.stdout.splitlines()[-1] == "UNSAT", run
                run = _cli_o("check", str(problem), str(proof))
                assert (run.returncode, run.stdout) == (0, "ACCEPT\n"), run
        finally:
            sys.set_int_max_str_digits(before)

    def test_the_limit_is_restored_after_a_usage_error(self, capsys):
        before = sys.get_int_max_str_digits()
        code, _, _ = _run(capsys, "verify", WORKED, "--lp-budget", "-1")
        assert code == EXIT_USAGE and sys.get_int_max_str_digits() == before


def _raising(exc):
    def fault(*args, **kwargs):
        raise exc
    return fault


#: where a fault is injected on a branching instance, with the exception
#: it raises: an LP's point check, the gate's refutation of a spurious
#: model, the search's choice of a split, and the proof's emission, which
#: comes before the verdict line
FAULTS = {
    "emit": (prooflog, "emit", _raising(ValueError("Exceeds the limit (4300 digits)")),
             "ValueError"),
    "lp": (lp, "_check_holds", _raising(lp.SelfCheckFailed("primal point violates row")),
           "SelfCheckFailed"),
    "gate": (gate, "_model_violates_exactness", lambda *args: False, "RefinementFailed"),
    "search": (search, "pick_split", _raising(search.NothingToSplit()), "NothingToSplit"),
}


class TestFaults:
    """A fault is no verdict: an exception that escapes a command exits
    EXIT_FAULT, with one error line on stderr and no verdict line."""

    @pytest.mark.parametrize("where", sorted(FAULTS))
    def test_injected_fault_exits_with_the_fault_code(self, capsys, tmp_path, monkeypatch,
                                                      where):
        problem = tmp_path / "branching.json"
        dump_problem(*tightened(57), problem)
        argv = ("verify", str(problem), "--templates", "margin-only", "--gate-budget", "1",
                "--emit-proof", str(tmp_path / "branching.proof"))
        code, out, _ = _run(capsys, *argv)  # reaches every injection point
        assert code == EXIT_UNSAT and re.search(r"^splits=[1-9]", out, re.M), out
        module, name, fault, kind = FAULTS[where]
        monkeypatch.setattr(module, name, fault)
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_FAULT == 5
        assert not re.search(r"^(UNSAT|SAT|UNKNOWN)\b", out, re.M), out
        assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err


class TestCheck:
    def test_emitted_proof_round_trips(self, capsys, tmp_path):
        proof = tmp_path / "out.proof"
        code, _, _ = _run(capsys, "verify", WORKED, "--emit-proof", str(proof))
        assert code == EXIT_UNSAT
        code, out, _ = _run(capsys, "check", WORKED, str(proof))
        assert code == 0 and "ACCEPT" in out

    def test_proof_for_a_different_problem_rejected(self, capsys, tmp_path):
        proof = tmp_path / "out.proof"
        _run(capsys, "verify", WORKED, "--emit-proof", str(proof))
        code, out, _ = _run(capsys, "check", WORKED_SAT, str(proof))
        assert code == 1 and "REJECT" in out

    def test_tampered_proof_rejected_with_path(self, capsys, tmp_path):
        proof = tmp_path / "out.proof"
        _run(capsys, "verify", WORKED, "--emit-proof", str(proof))
        doc = json.loads(proof.read_text())
        # the hull chord the cover cites retagged as hull row 3, z <= hi:
        # the cover's multipliers no longer cancel over the rows rebuilt
        chords = [row for row in doc["tree"]["rows"] if row["derivation"][0] == "hull"
                  and row["derivation"][2] == 2]
        assert chords
        for row in chords:
            row["derivation"][2] = 3
        proof.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        code, out, _ = _run(capsys, "check", WORKED, str(proof))
        assert code == 1 and "REJECT path=tree " in out, out

    def test_general_margin_proof_round_trips(self, capsys, tmp_path):
        # outputs y0 = relu(2x-1) - relu(1/2-x) and y1 = relu(1/2-x); the
        # margin y0 - y1 is at most 1 on [0, 1], below 1 + 1/10
        net = worked_network()
        two = Network(net.layers[:1] + (Layer(((F(1), F(-1)), (F(0), F(1))), (F(0), F(0)),
                                              IDENTITY),), 1, 2)
        problem, proof = tmp_path / "two.json", tmp_path / "two.proof"
        dump_problem(two, worked_region(),
                     SafetyProperty(((0, F(1)), (1, F(-1))), F(1), F(1, 10)), problem)
        for strategy in ("icl", "hsrv"):
            code, out, _ = _run(capsys, "verify", str(problem), "--strategy", strategy,
                                "--emit-proof", str(proof))
            assert code == EXIT_UNSAT and "UNSAT" in out, strategy
            assert b'["negp"]' in proof.read_bytes()
            code, out, _ = _run(capsys, "check", str(problem), str(proof))
            assert code == 0 and out.strip() == "ACCEPT", strategy

    def test_missing_proof_file_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "check", WORKED, "nope.proof")
        assert code == EXIT_USAGE

    def test_round_trip_and_tampered_multiplier_under_python_o(self, tmp_path):
        """`python -O` strips assert statements: the checker must still
        accept the proof and reject it with one multiplier changed."""
        proof = tmp_path / "out.proof"
        run = _cli_o("verify", WORKED, "--emit-proof", str(proof))
        assert run.returncode == EXIT_UNSAT and "UNSAT" in run.stdout, run
        run = _cli_o("check", WORKED, str(proof))
        assert run.returncode == 0 and run.stdout.strip() == "ACCEPT", run
        doc = json.loads(proof.read_text())
        mult = doc["tree"]["cover"][0]["farkas"]["multipliers"][0]
        mult[1] = str(2 * F(mult[1]))
        proof.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        run = _cli_o("check", WORKED, str(proof))
        assert run.returncode == 1 and run.stdout.startswith("REJECT path=tree "), run

    def test_proof_8_document_and_interval_row_rejected_under_python_o(self, tmp_path):
        """`relucert-proof-8` wrote each unit's interval as two `interval`
        rows.  Under `python -O` a document of that format is a REJECT at
        `document`, and an `interval` row in a current document a REJECT of
        that row at its leaf, as an unknown derivation kind; neither
        raises."""
        proof = tmp_path / "out.proof"
        run = _cli_o("verify", WORKED, "--emit-proof", str(proof))
        assert run.returncode == EXIT_UNSAT, run
        doc = json.loads(proof.read_text())
        assert doc["format"] == "relucert-proof-9"
        old = tmp_path / "old.proof"
        old.write_text(json.dumps({**doc, "format": "relucert-proof-8"}))
        run = _cli_o("check", WORKED, str(old))
        assert run.returncode == 1 and run.stdout.startswith("REJECT path=document "), run
        assert not run.stderr, run
        ids = {row["id"] for row in doc["tree"]["rows"]}
        free = min(set(range(max(ids))) - ids)
        doc["tree"]["rows"].append({"id": free, "derivation": ["interval", [1, 0], "up"]})
        proof.write_text(json.dumps(doc))
        run = _cli_o("check", WORKED, str(proof))
        assert run.returncode == 1 and run.stdout.strip() == (
            f"REJECT path=tree reason=rows: row {free}: unknown derivation kind interval"), run
        assert not run.stderr, run

    def test_witness_at_the_violation_threshold_under_python_o(self, tmp_path):
        """The witness check is exact under `python -O` too.  On the box of
        the one point x = 3/4, where y = 1/2, a margin equal to threshold +
        epsilon = 1/2 is a counterexample; with threshold + epsilon 10^-9
        above it the run is UNSAT, with a proof that `check` accepts."""
        point = Region((F(3, 4),), (F(3, 4),))
        at, above = tmp_path / "at.json", tmp_path / "above.json"
        for path, threshold in ((at, F(2, 5)), (above, F(2, 5) + F(1, 10**9))):
            dump_problem(worked_network(), point,
                         SafetyProperty(((0, F(1)),), threshold, F(1, 10)), path)
        witness, proof = tmp_path / "at.witness", tmp_path / "above.proof"
        run = _cli_o("verify", str(at), "--witness", str(witness))
        assert run.returncode == EXIT_SAT and "SAT witness=[3/4]" in run.stdout, run
        assert re.search(r"^lp_calls=0$", run.stdout, re.M), run
        assert witness.read_text().split() == ["3/4"]
        run = _cli_o("verify", str(above), "--emit-proof", str(proof))
        assert run.returncode == EXIT_UNSAT and "UNSAT" in run.stdout, run
        run = _cli_o("check", str(above), str(proof))
        assert run.returncode == 0 and run.stdout.strip() == "ACCEPT", run


class TestOneRead:
    """`verify` and `check` read the problem file once: a proof's digest is
    taken of, and checked against, the bytes that were parsed."""

    def _problem(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_bytes(Path(WORKED).read_bytes())
        return problem, tmp_path / "p.proof"

    def test_verify_and_check_open_the_problem_file_once(self, capsys, tmp_path, monkeypatch):
        problem, proof = self._problem(tmp_path)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == str(problem):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, _, _ = _run(capsys, "verify", str(problem), "--emit-proof", str(proof))
        assert code == EXIT_UNSAT and len(opened) == 1, opened
        code, out, _ = _run(capsys, "check", str(problem), str(proof))
        assert code == 0 and out.strip() == "ACCEPT" and len(opened) == 2, opened

    def test_digest_is_of_the_bytes_parsed(self, capsys, tmp_path, monkeypatch):
        # the file is replaced by other bytes right after each parse: the
        # proof still carries the digest of the bytes `verify` parsed, and
        # `check` compares it with the digest of the bytes it parsed
        problem, proof = self._problem(tmp_path)
        original = problem.read_bytes()
        parse = cli.parse_problem

        def parse_then_replace(raw):
            parsed = parse(raw)
            problem.write_bytes(original + b"\n")
            return parsed

        monkeypatch.setattr(cli, "parse_problem", parse_then_replace)
        code, _, _ = _run(capsys, "verify", str(problem), "--emit-proof", str(proof))
        assert code == EXIT_UNSAT
        assert json.loads(proof.read_bytes())["digest"] == hashlib.sha256(original).hexdigest()
        problem.write_bytes(original)
        code, out, _ = _run(capsys, "check", str(problem), str(proof))
        assert code == 0 and out.strip() == "ACCEPT", out


class TestOracle:
    def test_ground_truth_verdicts(self, capsys):
        assert _run(capsys, "oracle", WORKED)[0] == EXIT_UNSAT
        code, out, _ = _run(capsys, "oracle", WORKED_SAT)
        assert code == EXIT_SAT and "SAT" in out

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = _run(capsys, "oracle", WORKED, "--cap", "1")
        assert code == EXIT_CAP and "cap" in err


class TestDeterminism:
    def test_identical_runs_emit_byte_identical_proofs(self, capsys, tmp_path):
        a, b = tmp_path / "a.proof", tmp_path / "b.proof"
        _run(capsys, "verify", WORKED, "--emit-proof", str(a))
        _run(capsys, "verify", WORKED, "--emit-proof", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_verify_and_oracle_agree_on_the_worked_pair(self, capsys):
        for problem in (WORKED, WORKED_SAT):
            v = _run(capsys, "verify", problem)[0]
            o = _run(capsys, "oracle", problem)[0]
            assert v == o


class TestDocumentedFlags:
    def test_readme_lists_exactly_the_verify_flags(self):
        readme = ROOT / "README.md"
        section = readme.read_text().split("Flags for `verify`:", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[a-z-]+)", section))
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        defined = {opt for action in sub.choices["verify"]._actions
                   for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        assert documented == defined
