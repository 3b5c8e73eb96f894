import ast
from pathlib import Path

import ramibound

SRC = Path(ramibound.__file__).resolve().parent


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
