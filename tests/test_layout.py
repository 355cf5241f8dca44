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


def test_no_module_imports_dataclasses():
    # a @dataclass generates its methods with exec when its module is
    # imported, about 0.4-0.6 ms a class, and dataclasses loads inspect,
    # ast, dis and tokenize, about 5-6 ms of import hamsurf.cli even with a
    # bytecode cache; records are plain classes or namedtuples instead
    found = [
        (name, node.lineno)
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))]
    assert found == []


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


def _src_definitions():
    """(module.name, times its own definition reads the name) for each
    function, method and class of src/ but dunder methods, which the
    language calls."""
    return [(f"{name[:-3]}.{node.name}", _names_read(node)[node.name])
            for name, tree in TREES.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _bench_reads():
    """The names the benchmark reads; the tracer names what it wraps in
    TARGETS strings."""
    read = Counter()
    for path in sorted(PERFBENCH.glob("*.py")):
        read += _names_read(ast.parse(path.read_text()))
    read.update(part for _module, attribute, _span, _note in _tracer().TARGETS
                for part in attribute.split("."))
    return read


def _src_reads():
    read = Counter()
    for tree in TREES.values():
        read += _names_read(tree)
    return read


def test_every_src_name_has_a_caller():
    # a function, method or class of src/ that neither src/ nor the
    # benchmark reads outside its own definition backs nothing, and tests
    # reach behaviour through the names that do
    read = _src_reads() + _bench_reads()
    uncalled = [name for name, own in _src_definitions()
                if read[name.rpartition(".")[2]] == own]
    assert uncalled == []


# The src/ names that no src/ module reads outside their own definition and
# only the benchmark names: they back no certificate.  They leave with the
# benchmark's TARGETS entries that wrap them; a certificate path that calls
# one again, or a new name only the benchmark reads, changes this list.
BENCHMARK_ONLY = ["cover.expand_ball", "surfaces.vertex_trace_types"]


def test_benchmark_only_names():
    src, bench = _src_reads(), _bench_reads()
    found = [name for name, own in _src_definitions()
             if src[name.rpartition(".")[2]] == own and bench[name.rpartition(".")[2]]]
    assert sorted(found) == BENCHMARK_ONLY
