"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "locrel"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so checks must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            raises_assertion = (
                isinstance(node, ast.Raise)
                and node.exc is not None
                and "AssertionError" in ast.unparse(node.exc)
            )
            if isinstance(node, ast.Assert) or raises_assertion:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or AssertionError in the package: {found}"
