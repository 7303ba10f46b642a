import ast
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import WORKED

MODULES = sorted(Path("src/relucert").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips assert statements, so no check may rest on one."""
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path}: assert statements at lines {lines}"


def _imported_names(tree):
    """(name, line) for each name an import statement binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path}: imported but never used: {unused}"


#: the trust base, the modules a proof check runs, and the solver modules
#: they may not import
TRUSTED = ("model", "rows", "certs", "prooflog")
SOLVER = {"store", "lp", "propagate", "gate", "search", "budget", "cli"}


def _relucert_imports(path):
    """The relucert modules the import statements of a source file name."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("relucert")):
            parts = [p for p in (node.module or "").split(".") if p and p != "relucert"]
            yield from parts[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("relucert."))


def _other_imports(path):
    """The top-level packages that the absolute imports of a source file
    name, relucert aside."""
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from (name.split(".")[0] for name in names if name.split(".")[0] != "relucert")


def test_import_scan_sees_the_solver_importing_certs():
    assert {"certs", "rows"} <= set(_relucert_imports("src/relucert/lp.py"))
    assert {"fractions", "math", "dataclasses"} <= set(_other_imports("src/relucert/lp.py"))


@pytest.mark.parametrize("name", TRUSTED)
def test_trusted_modules_import_no_solver_module(name):
    """The checker's trust base never reaches the solver: a trusted module
    imports only the standard library and the other trusted modules, and
    imports go only from the solver to them."""
    path = f"src/relucert/{name}.py"
    reached = set(_relucert_imports(path))
    assert not reached & SOLVER, f"{name}.py imports {sorted(reached & SOLVER)}"
    assert reached <= set(TRUSTED), f"{name}.py imports {sorted(reached - set(TRUSTED))}"
    foreign = set(_other_imports(path)) - sys.stdlib_module_names
    assert not foreign, f"{name}.py imports {sorted(foreign)}"


#: run in a fresh interpreter: check the proofs named on the command line
#: against the problem, and report what of relucert that loaded
_CHECK_ALONE = textwrap.dedent("""\
    import json, sys
    import relucert.prooflog
    from relucert.model import parse_problem

    raw = open(sys.argv[1], "rb").read()
    digest = relucert.prooflog.problem_digest(raw)
    accepted = [relucert.prooflog.check_proof(parse_problem(raw), open(p, "rb").read(),
                                              digest).accepted for p in sys.argv[2:]]
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "relucert")
    print(json.dumps({"accepted": accepted, "loaded": loaded}))
""")


def test_check_proof_loads_the_trust_base_alone(tmp_path):
    """What the import rule cannot see: a proof check, which ACCEPTs the
    worked proof and REJECTs a tampered copy, loads no relucert module but
    the package and the trust base, so neither `__init__` nor an import
    further down pulls in a solver module."""
    from relucert import prooflog
    from relucert.model import parse_problem
    from relucert.search import icl_verify

    raw = Path(WORKED).read_bytes()
    proof = prooflog.emit(icl_verify(*parse_problem(raw)).tree, prooflog.problem_digest(raw))
    doc = json.loads(proof)
    mult = doc["tree"]["cover"][0]["farkas"]["multipliers"][0]
    mult[1] = str(2 * Fraction(mult[1]))
    good, bad = tmp_path / "good.proof", tmp_path / "bad.proof"
    good.write_bytes(proof)
    bad.write_text(json.dumps(doc))
    run = subprocess.run([sys.executable, "-c", _CHECK_ALONE, WORKED, str(good), str(bad)],
                         env={**os.environ, "PYTHONPATH": str(Path("src").resolve())},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "accepted": [True, False],
        "loaded": sorted(["relucert"] + [f"relucert.{name}" for name in TRUSTED])}


def _dataclass_fields(tree):
    """(class, field, line) for each annotated field of a @dataclass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


#: methods that only write into the container they are called on
MUTATORS = {"append", "extend", "add", "update", "insert", "discard", "remove", "clear"}


def _read_attributes(tree):
    """Names of the attributes the tree reads.  Writing into a field's
    container is no read of the field: neither the receiver of a mutator
    call (`x.f.append(...)`) nor the target of a subscript assignment
    (`x.f[k] = ...`)."""
    written = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            written.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            written.add(id(node.value))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in written}


def test_read_attributes_skip_writes_into_a_container():
    tree = ast.parse("r.a.append(1)\nr.b[0] = 1\nr.c[0] += 1\nn = len(r.d)\nr.e.pop()\n"
                     "x = r.f[0]\n")
    assert _read_attributes(tree) == {"append", "d", "e", "pop", "f"}


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state kept for nobody.  The readers are
    the package and the benchmark harness, which reads run results too."""
    readers = MODULES + sorted(Path("perfbench").glob("*.py"))
    read = set().union(*(_read_attributes(ast.parse(path.read_text())) for path in readers))
    unread = [f"{path.name}:{line} {cls}.{name}" for path in MODULES
              for cls, name, line in _dataclass_fields(ast.parse(path.read_text()))
              if name not in read]
    assert not unread, f"dataclass fields never read: {unread}"


def test_exhausted_is_caught_once_by_the_search_driver():
    """A spent LP budget leaves the run through one handler in `search`; no
    other module turns it back into a flag or a reason code."""
    handlers = [f"{path.name}:{node.lineno}" for path in MODULES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "Exhausted" in {getattr(n, "id", None) or getattr(n, "attr", None)
                                    for n in ast.walk(node.type)}]
    assert len(handlers) == 1 and handlers[0].startswith("search.py:"), handlers


def test_no_dataclass_has_an_exhausted_field():
    flags = [f"{path.name}:{line} {cls}" for path in MODULES
             for cls, name, line in _dataclass_fields(ast.parse(path.read_text()))
             if name == "exhausted"]
    assert not flags, f"exhaustion kept as a flag: {flags}"


def test_only_the_layout_reads_margin_index():
    """The margin is a row over the outputs, `layout.margin`; the solver and
    the checker read that row alone.  `margin_index` names the output that a
    one-output, coefficient-1 margin equals, for the benchmark's families."""
    readers = [path.name for path in MODULES if path.name != "model.py"
               and "margin_index" in _read_attributes(ast.parse(path.read_text()))]
    assert not readers, f"modules reading margin_index: {readers}"


def _named(tree) -> set[str]:
    """Every name the tree uses, reads, imports or defines as a function or
    class."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {name for name, _ in _imported_names(tree)}
    return names | {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_the_checker_builds_rows_in_integers_alone():
    """The solver and `check` build each row straight into its integer
    form; no module defines or names `LinearConstraint` or
    `normalize_constraint`, which built rows in `Fraction`s, so no such
    second path may come back beside it.  A unit's affine row has one
    definition, `rows.affine_row`: `prooflog` builds its affine rows from
    it and keeps no copy of its own."""
    for path in MODULES:
        names = _named(ast.parse(path.read_text()))
        assert not names & {"LinearConstraint", "normalize_constraint"}, (path.name, names)
    tree = ast.parse(Path("src/relucert/prooflog.py").read_text())
    assert ("affine_row", "rows") in {(alias.name, node.module) for node in ast.walk(tree)
                                      if isinstance(node, ast.ImportFrom)
                                      for alias in node.names}
    problem = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == "_Problem")
    affine = next(node for node in problem.body
                  if isinstance(node, ast.FunctionDef) and node.name == "affine")
    named = {node.id for node in ast.walk(affine) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(affine) if isinstance(node, ast.Attribute)}
    assert "affine_row" in named and not named & {"input_index", "post_index"}, named


def test_the_simplex_has_one_outcome_path_for_bounded_systems():
    """The LP engine solves bounded systems only, and an unbounded direction
    is a fault (`lp.SelfCheckFailed`), not a verdict: no module defines or
    names an `UNBOUNDED` status, and `lp` defines no `ray` method, so no
    second outcome path may come back beside it."""
    for path in MODULES:
        assert "UNBOUNDED" not in _named(ast.parse(path.read_text())), path.name
    tree = ast.parse(Path("src/relucert/lp.py").read_text())
    methods = {stmt.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
    assert "ray" not in methods and "lift" in methods, methods
