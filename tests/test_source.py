import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import ramibound

SRC = Path(ramibound.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
TRACER = BENCH / "tracer.py"


def imported_modules(path: Path):
    """(line, top-level module name) for every import in the file; a
    relative import gives the name None."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.partition(".")[0]
            yield node.lineno, top


def foreign_imports(paths, allowed):
    return [
        f"{path.name}:{line} imports {name or 'a relative module'}"
        for path in paths
        for line, name in imported_modules(path)
        if name not in allowed and name not in sys.stdlib_module_names
    ]


def test_library_imports_only_the_standard_library():
    """The package installs with no dependencies: a library module imports
    the standard library and the package itself, nothing else."""
    found = foreign_imports(sorted(SRC.glob("*.py")), {None, "ramibound"})
    assert not found, f"imports outside the standard library: {found}"


def test_tests_import_only_what_ci_installs():
    """CI installs pytest and nothing else, so a test that imports a
    package that merely happens to be installed locally fails here too."""
    paths = sorted(TESTS.glob("*.py"))
    allowed = {"pytest", "ramibound"} | {path.stem for path in paths}
    found = foreign_imports(paths, allowed)
    assert not found, f"imports CI does not install: {found}"


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
