import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import ramibound

SRC = Path(ramibound.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_no_assert_statements_in_library():
    """Invariant checks raise explicitly, so they still run under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps is still defined where
    the tracer looks for it (in the module, or in the class for a method),
    so a rename fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for mod_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"ramibound.{mod_name}")
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(fn_name) if owner is not None else None):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"tracer targets missing from src: {missing}"


def test_bench_library_contract(monkeypatch):
    """The benchmark's ``import_library`` still finds what its calls use:
    the symbolic workload clears the cache of ``universal_polys`` before
    each call, so dropping the ``lru_cache`` fails here and not only as a
    failed benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name; import_library may
    # put the checkout's src on sys.path
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(workloads)
    lib = workloads.import_library()
    assert callable(getattr(lib["universal_polys_cache"], "cache_clear", None))


def test_no_private_names_imported_across_library_modules():
    """A library module uses only the public names of another: an
    underscore-prefixed helper, such as the format of a modulus's low
    terms, stays behind the module that defines it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            local = node.level > 0 or (node.module or "").startswith("ramibound")
            if not local:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "ramibound"):  # a module: from . import x
                    aliases.add(alias.asname or alias.name)
        found += [
            f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ]
    assert not found, f"private names used across library modules: {found}"
