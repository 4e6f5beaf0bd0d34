import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import ramsys

BENCH = Path(__file__).resolve().parents[1] / "bench"
LIBRARY = Path(ramsys.__file__).resolve().parent


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_exported_name_resolves_and_is_public():
    assert len(ramsys.__all__) == len(set(ramsys.__all__))
    for name in ramsys.__all__:
        assert not name.startswith("_"), name
        assert getattr(ramsys, name) is not None


def test_every_name_the_benchmark_traces_resolves():
    # bench/tracing.py looks each (module, attribute) up by name when it
    # installs its spans, as its install step does: a method on its class,
    # anything else on the module
    tracing = _tracing()
    assert tracing.TRACED
    for module_name, path, _ in tracing.TRACED:
        module = importlib.import_module(f"ramsys.{module_name}")
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner) if owner else module
        assert attr in vars(holder), f"ramsys.{module_name}.{path}"


def _dotted(node):
    """('a', ['b', 'c']) for the expression a.b.c, else (None, [])."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, names[::-1]) if isinstance(node, ast.Name) else (None, [])


def test_every_name_the_benchmark_worker_imports_exists():
    # the names bench/worker.py imports from ramsys, and the attributes it
    # reads off an imported ramsys module (oracle.orbit_count_class)
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ramsys":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "ramsys"] = module if alias.asname else ramsys
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ramsys":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                value = getattr(module, alias.name)
                if isinstance(value, type(ramsys)):
                    bound[alias.asname or alias.name] = value
    assert {"ramsys", "oracle"} <= set(bound)
    read = 0
    for node in ast.walk(tree):
        root, names = _dotted(node)
        if root in bound and names and isinstance(node.ctx, ast.Load):
            value = bound[root]
            for name in names:
                assert hasattr(value, name), f"{root}.{'.'.join(names)}"
                value = getattr(value, name)
            read += 1
    assert read


def _library_names():
    """Every name the library's own modules read, bare or as an attribute;
    __init__.py only re-exports, so it does not count."""
    names = set()
    for path in LIBRARY.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _benchmark_names():
    """The names bench/worker.py imports from ramsys or reads off what it
    imported, and every part of the paths bench/tracing.py traces."""
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    roots, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ramsys":
                    roots.add(alias.asname or "ramsys")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ramsys":
            for alias in node.names:
                names.add(alias.name)
                roots.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        root, dotted = _dotted(node)
        if root in roots:
            names.update(dotted)
    for _, path, _ in _tracing().TRACED:
        names.update(path.split("."))
    return names


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    # a name that only the tests use belongs in tests/reference.py, not in
    # the public API
    unused = set(ramsys.__all__) - _library_names() - _benchmark_names()
    assert not unused, sorted(unused)


def test_every_exported_name_is_read_by_the_library():
    # the package exports what it runs; a name that only the tests and the
    # benchmark read stays in its module, where they import it from, so the
    # guard above, which also counts the benchmark's reads, misses it
    unread = set(ramsys.__all__) - _library_names()
    assert not unread, sorted(unread)


def test_every_public_method_of_an_exported_class_is_used_by_the_library_or_the_benchmark():
    # the same rule one level down: a method only the tests call belongs in
    # tests/reference.py.  Dataclass fields are data, and an exception class
    # only carries its message.
    used = _library_names() | _benchmark_names()
    unused = []
    for name in ramsys.__all__:
        cls = getattr(ramsys, name)
        if not isinstance(cls, type) or issubclass(cls, BaseException):
            continue
        fields = {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        unused += sorted(f"{name}.{attr}" for attr in vars(cls).keys() - fields - used if attr[0] != "_")
    assert not unused, unused


def test_every_module_level_name_is_read_by_the_library_or_the_benchmark():
    # the same rule for every top-level function, class and constant of the
    # library's modules: one that only the tests read belongs in
    # tests/reference.py.  __init__.py only re-exports.
    used = _library_names() | _benchmark_names()
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in names if name != "__all__" and name not in used]
    assert not unread, unread


def test_oracle_stays_within_its_line_cap():
    # the brute-force oracle grows (the joint orbit count, larger n) within
    # 559 lines, so it stays small enough to read as evidence
    lines = (LIBRARY / "oracle.py").read_text(encoding="utf-8").count("\n")
    assert lines <= 559
