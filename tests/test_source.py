"""Source-level rules for the package."""

import ast
import importlib
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


def test_package_draws_no_random_numbers():
    # a verdict that rests on random samples depends on where they fall;
    # every check in the package is decided from its realization instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
            if any(name and name.split(".")[-1] in ("random", "default_rng") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"random number use in the package: {found}"


def test_traced_benchmark_names_resolve():
    # the benchmark's traced run wraps these functions by name, so renaming
    # or removing one breaks it; read the list without running the script
    run = SRC.parents[1] / "perfbench" / "run.py"
    tree = ast.parse(run.read_text(), filename=str(run))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    missing = []
    for name in traced:
        module, _, attr = name.partition(".")
        owner = importlib.import_module(f"locrel.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert traced and not missing, f"traced names missing from locrel: {missing}"
