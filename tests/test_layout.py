"""Layout rules for the package source, checked on its syntax trees, and
the names the benchmark relies on."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import hamsurf

TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(Path(hamsurf.__file__).parent.glob("*.py"))}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_imports_sit_at_module_level():
    inside = [
        (name, fn.name, node.lineno)
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_no_private_names_imported_from_sibling_modules():
    private = [
        (name, node.module, alias.name)
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_census_imports_nothing_from_the_package():
    # the census is the oracle that propagation is checked against, so it
    # must not share code with the library it checks
    imports = [
        node.module or "." for node in ast.walk(TREES["census.py"])
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "hamsurf")]
    imports += [
        alias.name for node in ast.walk(TREES["census.py"])
        if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] == "hamsurf"]
    assert imports == []


def _outermost_functions(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outermost_functions(child)


def test_no_write_only_locals():
    # a local that is assigned, directly or through a subscript, and never
    # read is dead code; a name that starts with "_" is unused on purpose.
    # Nested functions are read with the function that holds them, since a
    # closure may read what its parent writes.
    dead = []
    for name, tree in TREES.items():
        for fn in _outermost_functions(tree):
            written, read, store_bases = set(), set(), set()
            for node in ast.walk(fn):
                if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)):
                    written.add(node.value.id)
                    store_bases.add(node.value)
                elif isinstance(node, ast.Name) and node not in store_bases:
                    (written if isinstance(node.ctx, ast.Store) else read).add(node.id)
            dead += [f"{name[:-3]}.{fn.name}:{local}"
                     for local in sorted(written - read) if not local.startswith("_")]
    assert dead == []


# Every parameter of src/ with a default, as module.function:parameter.  A
# default is an option: a new one needs two callers outside the tests that
# pass it different values (the CLI, the benchmark or other src/ code);
# otherwise it is a constant, and tests reach the other behaviour from
# outside.  Add an entry here only with such callers.
DEFAULTED_PARAMETERS = [
    "cli.main:argv",
    "hamgraph.add_edge:tag",
]


def test_defaulted_parameters():
    found = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found += [f"{name[:-3]}.{fn.name}:{a.arg}" for a in defaulted]
    assert sorted(found) == DEFAULTED_PARAMETERS


def test_traced_functions_exist():
    # the benchmark's tracer wraps these by name; a renamed or deleted one
    # would otherwise show only in a traced benchmark run
    tracer = _tracer()
    missing = []
    for module, attribute, _span, _note in tracer.TARGETS:
        obj = importlib.import_module(f"hamsurf.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((module, attribute))
    assert tracer.TARGETS and missing == []


def _names_read(tree):
    """How often each name is read in tree, as a variable or an attribute;
    strings, docstrings among them, are not reads."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def test_every_src_name_has_a_caller():
    # a function, method or class of src/ that neither src/ nor the
    # benchmark reads outside its own definition backs nothing, and tests
    # reach behaviour through the names that do.  Dunder methods are called
    # by the language; the tracer names what it wraps in TARGETS strings.
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    read = Counter()
    for tree in [*TREES.values(), *bench]:
        read += _names_read(tree)
    read.update(part for _module, attribute, _span, _note in _tracer().TARGETS
                for part in attribute.split("."))
    uncalled = [
        f"{name[:-3]}.{node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and read[node.name] == _names_read(node)[node.name]]
    assert uncalled == []
