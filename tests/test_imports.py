"""Every name a rootsplit module imports is used in that module, only
subalgebra and catalog choose an integer scale, the pair checks import no
rational metric product or typing, and every function the bench traces
exists."""
import ast
import importlib
from pathlib import Path

import pytest

import rootsplit

PACKAGE = Path(rootsplit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", ["splitting", "pipeline"])
def test_scale_chosen_only_in_subalgebra_and_catalog(module):
    # A pair's steps read the integer copy its weights carry; they never
    # pick a scale of their own.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert not imported & {"common_scale", "int_scaled"}


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
    # Read TRACED from the source: bench/ is a script directory, not a package.
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), str(tracing))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )
    missing = [
        f"{m}.{f}" for m, f in traced
        if not callable(getattr(importlib.import_module(f"rootsplit.{m}"), f, None))
    ]
    assert traced and not missing, f"traced names missing: {missing}"
