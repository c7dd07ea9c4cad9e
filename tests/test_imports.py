"""Every import of a rootsplit module is at module level and reads only
modules below it, every name it imports is used in that module, only
rootcore and weights_from_set choose an integer scale and no step between
parse and emit makes a rational, the pair checks
import no metric matrix, rational product or typing, every function the
bench traces exists, every top-level function and class of src/ and every
member of a src/ class is reached, only the records that cache facts are dataclasses, and the test oracles
use no private rootsplit code."""
import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import rootsplit

PACKAGE = Path(rootsplit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent

#: public input helpers that nothing in src/ calls: vec builds a rational
#: vector, make_root_system the root system and weights_from_set the
#: weights of a set of rational vectors given from outside
INPUT_HELPERS = {"linalg.vec", "rootcore.make_root_system", "subalgebra.weights_from_set"}


def traced_names():
    """TRACED of bench/tracing.py, read from the source: bench/ is a script
    directory, not a package."""
    tracing = TESTS.parent / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), str(tracing))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    )


#: the modules of src/ in import order: each imports only modules before it
LAYERS = ("linalg", "rootcore", "catalog", "subalgebra", "splitting", "pipeline", "report", "cli")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_module_level_and_layered(path):
    # An import inside a function or under TYPE_CHECKING hides a cycle;
    # with every module importing only the layers below it, there is none.
    assert {p.stem for p in MODULES} == set(LAYERS)
    tree = ast.parse(path.read_text(), str(path))
    top = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    nested = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in top
    ]
    assert not nested, f"{path.name}: imports below module level at lines {nested}"
    assert "TYPE_CHECKING" not in named_in(tree), f"{path.name} names TYPE_CHECKING"
    below = set(LAYERS[:LAYERS.index(path.stem)])
    for node in top:
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module] if node.module else [a.name for a in node.names]
            assert set(modules) <= below, f"{path.name}:{node.lineno} imports {modules}"
        else:
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(n.split(".")[0] == "rootsplit" for n in names), (
                f"{path.name}:{node.lineno} imports rootsplit by its absolute name"
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


#: the helpers that turn rational vectors into integers, and where each may
#: be named: a module, or one definition of a module
SCALING_HELPERS = {
    "int_copy": {"rootcore", "subalgebra.weights_from_set"},  # input picks its scale
    "scale_to_int": {"subalgebra.closed_subsystem"},  # a JSON h, onto its parent's
}

#: the definitions between parse and emit, which hold integers only
INTEGER_ONLY = {
    "catalog": {"_bcd_roots", "_e8_roots", "_g2_roots", "_f4_roots", "build",
                "build_sum", "direct_sum"},
    "rootcore": {"_subsystem"},
    "subalgebra": {"isotropy_weights"},
    "splitting": {"_given_table", "_int_table", "_certify", "_plus_half", "find_splittings",
                  "case_analysis", "wolf_certificate"},
}

#: the names that make or convert rationals
RATIONAL_NAMES = {"Fraction", "int_copy", "scale_to_int", "unscale"}


def names_under(node) -> list:
    """The Name and Attribute names in node, with repeats."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    ]


def named_in(node) -> set:
    return set(names_under(node))


@pytest.mark.parametrize("module", [p.stem for p in MODULES])
def test_scale_chosen_only_in_rootcore_and_weights_from_set(module):
    # Rational input is converted once, where it comes in: rootcore picks
    # the scale of a root system, weights_from_set that of a weight set
    # given from outside, and closed_subsystem puts a JSON h onto its
    # parent's scale. Between parse and emit, no step makes a rational.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        own = getattr(node, "name", "<module>")
        names = named_in(node)
        for helper, allowed in SCALING_HELPERS.items():
            if helper in names:
                assert module in allowed or f"{module}.{own}" in allowed, (
                    f"{module}.{own} names {helper}"
                )
        if own in INTEGER_ONLY.get(module, ()):
            assert not names & RATIONAL_NAMES, (
                f"{module}.{own} names {sorted(names & RATIONAL_NAMES)}"
            )
    assert INTEGER_ONLY.get(module, set()) <= {getattr(n, "name", None) for n in tree.body}


def imported_names(module) -> set:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


@pytest.mark.parametrize("module", ["splitting", "pipeline", "subalgebra"])
def test_pair_checks_stay_on_the_integer_copy(module):
    # Certificates, constraints, Wolf recognition and subsystem types are
    # checked on the parent's integer copy, not by rational matrix
    # products, by a metric matrix (the constraint values read the
    # parent's long-root norm) or by typing rational roots again.
    imported = imported_names(module)
    assert not imported & {"mat_vec", "identify_type", "int_normalize", "normalize"}


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


#: the members of src/ classes that only the bench reads (bench/workloads.py)
BENCH_READS = {"rootcore.RootSystem.root_set"}


def test_every_src_member_is_reached():
    # The member-level guard: a method or property of a src/ class whose
    # name no other code of src/ reads is read by the bench (which traces
    # only module-level functions), or only the tests use it (it belongs
    # in tests/oracles.py), or nothing.
    members, named = {}, Counter()
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        named.update(names_under(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members.update(
                    (f"{path.stem}.{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                )
    unreached = {
        qualified for qualified, f in members.items()
        if named[f.name] == names_under(f).count(f.name) and qualified not in BENCH_READS
    }
    assert members and not unreached, f"members reached by nothing in src/: {sorted(unreached)}"


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


#: the records whose instances cache derived facts (functools.cached_property)
CACHING_RECORDS = {"RootSystem", "IsotropyWeights"}


def test_only_records_that_cache_facts_are_dataclasses():
    # Each dataclass generates its methods as source text and execs them
    # when its module is imported: a frozen one costs about 1 ms of every
    # import, so of every CLI run. A record of plain values is a NamedTuple,
    # which is built without generating code; a dataclass is kept only
    # where cached_property needs an instance __dict__.
    found = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in named_in(d) for d in node.decorator_list
            ):
                found[node.name] = {
                    ast.unparse(d) for f in node.body if isinstance(f, ast.FunctionDef)
                    for d in f.decorator_list
                }
    assert set(found) == CACHING_RECORDS, sorted(found)
    for name, decorators in found.items():
        assert "cached_property" in decorators, f"{name} caches nothing"
