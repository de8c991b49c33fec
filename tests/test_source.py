"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import tanglekit


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so invariant checks must raise explicitly
    found = []
    for path in sorted(Path(tanglekit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
