"""Every name a rootsplit module imports is used in that module, only
rootcore and weights_from_set choose an integer scale, the pair checks
import no rational metric product or typing, every function the bench
traces exists, every top-level function and class of src/ is reached,
and the test oracles use no private rootsplit code."""
import ast
import importlib
from pathlib import Path

import pytest

import rootsplit

PACKAGE = Path(rootsplit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent

#: public input helpers that nothing in src/ calls: vec builds a rational
#: vector, weights_from_set the weights of a set given from outside
INPUT_HELPERS = {"linalg.vec", "subalgebra.weights_from_set"}


def traced_names():
    """TRACED of bench/tracing.py, read from the source: bench/ is a script
    directory, not a package."""
    tracing = TESTS.parent / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), str(tracing))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


#: the helpers that turn Fraction vectors into integers
SCALING_HELPERS = {"int_copy", "scale_to_int"}

#: per module, the top-level definitions that may call one
SCALING_CALLERS = {
    "catalog": set(),
    "pipeline": set(),
    "subalgebra": {"weights_from_set"},  # a weight set given from outside
    "splitting": {"_scaled"},  # a certificate, onto a copy's existing scale
}


@pytest.mark.parametrize("module", sorted(SCALING_CALLERS))
def test_scale_chosen_only_in_rootcore_and_weights_from_set(module):
    # A root system's integer copy is made once, in rootcore, and every
    # layer reads it; none scales a system's roots again.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    callers = {
        getattr(node, "name", "<module>") for node in tree.body
        if any(isinstance(n, ast.Name) and n.id in SCALING_HELPERS for n in ast.walk(node))
    }
    allowed = SCALING_CALLERS[module]
    assert callers <= allowed, f"{module}: {sorted(callers - allowed)} scale vectors"
    assert allowed or not imported & SCALING_HELPERS


@pytest.mark.parametrize("module", ["splitting", "pipeline"])
def test_pair_checks_stay_on_the_integer_copy(module):
    # Certificates, constraints and subsystem types are checked on the
    # parent's integer copy, not by rational matrix products or by typing
    # rational roots again.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert not imported & {"mat_vec", "identify_type"}


def test_bench_trace_names_resolve():
    traced = traced_names()
    missing = [
        f"{m}.{f}" for m, f in traced
        if not callable(getattr(importlib.import_module(f"rootsplit.{m}"), f, None))
    ]
    assert traced and not missing, f"traced names missing: {missing}"


def test_every_src_definition_is_reached():
    # A top-level function or class that no other code of src/ names (the
    # __init__ exports aside) is either traced by the bench or a public
    # input helper; anything else only the tests use, and belongs in
    # tests/oracles.py, or nothing uses it.
    defined, named = {}, set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[own] = f"{path.stem}.{own}"
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name != own:
                    named.add(name)
    allowed = {f"{m}.{f}" for m, f in traced_names()} | INPUT_HELPERS
    unreached = {q for name, q in defined.items() if name not in named}
    assert unreached <= allowed, f"reached by nothing in src/: {sorted(unreached - allowed)}"


def test_oracles_use_no_private_rootsplit_name():
    # An oracle that shared a private helper with the code it checks would
    # not check it.
    tree = ast.parse((TESTS / "oracles.py").read_text())
    private = [
        f"{node.module}.{a.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "rootsplit"
        for a in node.names if a.name.startswith("_")
    ]
    assert not private, f"oracles import private names {private}"
