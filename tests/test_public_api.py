import ast
import importlib
import importlib.util
from pathlib import Path

import ramsys

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_exported_name_resolves_and_is_public():
    assert len(ramsys.__all__) == len(set(ramsys.__all__))
    for name in ramsys.__all__:
        assert not name.startswith("_"), name
        assert getattr(ramsys, name) is not None


def test_every_name_the_benchmark_traces_resolves():
    # bench/tracing.py looks each (module, attribute) up by name when it
    # installs its spans, as its install step does: a method on its class,
    # anything else on the module
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
