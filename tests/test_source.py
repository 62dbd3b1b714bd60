"""Source-level rules for the package."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "locrel"
PERFBENCH = SRC.parents[1] / "perfbench"

# Imports locrel and its CLI in a fresh interpreter, runs every recorded
# README command through cli.main, and prints the scipy modules loaded.
NUMPY_ONLY_SCRIPT = """
import contextlib, io, json, sys
import locrel, locrel.cli
perfbench = sys.argv[1]
with open(perfbench + "/cli_expected.json") as handle:
    corpus = json.load(handle)
for case in corpus:
    argv = [arg.replace("{data}", perfbench + "/data") for arg in case["argv"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = locrel.cli.main(argv)
    if code != case["exit"]:
        raise SystemExit(f"{argv} exited {code}, not {case['exit']}")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

# Counts the argparse parsers alive in a fresh interpreter after
# ``import locrel, locrel.cli``, then after one cli.main call.
PARSER_COUNT_SCRIPT = """
import argparse, contextlib, gc, io, json
import locrel, locrel.cli


def parsers():
    return sum(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())


at_import = parsers()
with contextlib.redirect_stdout(io.StringIO()):
    locrel.cli.main(["consensus", "h2", "--n", "4"])
print(json.dumps([at_import, parsers()]))
"""


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
        owner_name, _, leaf = attr.rpartition(".")
        owner = importlib.import_module(f"locrel.{module}")
        # found as the tracer's install finds it: a method in its own class's
        # __dict__, not inherited; a function as an attribute of its module
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if leaf not in getattr(owner, "__dict__", {}):
            missing.append(name)
    assert traced and not missing, f"traced names missing from locrel: {missing}"


def test_package_imports_no_scipy():
    # the package imports numpy and the standard library only; scipy,
    # sympy, networkx and hypothesis serve the tests' oracles only
    allowed = set(sys.stdlib_module_names) | {"numpy", "locrel"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] not in allowed
            ]
    assert not found, f"the package imports more than numpy and the standard library: {found}"


def test_package_and_cli_run_on_numpy_alone():
    # no module imports scipy (see above), and nothing the package imports
    # loads it either, so the CLI starts without scipy.linalg, which would
    # take most of its start-up time
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(PERFBENCH)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_cli_import_builds_no_parser():
    # the start-up time of the CLI includes its import, so main builds its
    # parser at the first call, not when the module loads
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    at_import, after_main = json.loads(done.stdout)
    assert at_import == 0
    assert after_main > 0


# Prints the modules loaded in a fresh interpreter after the statement in argv[1].
MODULES_SCRIPT = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(sys.modules)))
"""

# The standard-library modules the package imports; each may load further modules.
STARTUP_STDLIB = (
    "__future__ argparse csv dataclasses functools io itertools json math numbers sys typing"
)


def test_cli_import_loads_only_what_numpy_and_the_named_stdlib_load():
    # setup_s times `import locrel, locrel.cli` in a fresh interpreter: it
    # may load locrel itself and nothing beyond numpy and STARTUP_STDLIB
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def loaded(statement):
        done = subprocess.run(
            [sys.executable, "-c", MODULES_SCRIPT, statement],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    baseline = loaded(f"import numpy, {', '.join(STARTUP_STDLIB.split())}")
    extra = {
        name
        for name in loaded("import locrel, locrel.cli") - baseline
        if name.split(".")[0] != "locrel"
    }
    assert not extra, f"import locrel, locrel.cli also loads {sorted(extra)}"


def test_readme_cli_block_is_the_recorded_corpus():
    # the README's commands are the ones whose outputs the benchmark records
    readme = (SRC.parents[1] / "README.md").read_text()
    block = re.search(r"## CLI examples\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [
        [arg.replace("tests/data/", "{data}/") for arg in shlex.split(line)[1:]]
        for line in block.splitlines()
        if line.startswith("locrel ")
    ]
    corpus = json.loads((PERFBENCH / "cli_expected.json").read_text())
    assert commands == [case["argv"] for case in corpus]


def test_readme_tolerance_table_is_the_policy():
    # the README's "Tolerances" table lists every constant of
    # locrel.tolerances, in order, with its value, and nothing else
    readme = (SRC.parents[1] / "README.md").read_text()
    section = re.search(r"## Tolerances\n(.*?)\n## ", readme, re.S).group(1)
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.M)
    tolerances = importlib.import_module("locrel.tolerances")
    policy = [(name, value) for name, value in vars(tolerances).items() if name.isupper()]
    assert [(name, float(value)) for name, value in rows] == policy


def test_thresholds_are_named_in_the_tolerance_policy():
    # every threshold below 1e-5 or above 1e5 is a name of locrel.tolerances,
    # so one place says what each value decides
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
                continue
            if 0.0 < node.value < 1e-5 or node.value > 1e5:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, f"unnamed thresholds in the package: {found}"


def test_no_tolerance_parameters():
    # a threshold comes from the policy, not from a knob no caller sets;
    # try_exact_divide keeps its own, whose callers pass two values
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg in ("tol", "rtol", "rel_tol") and getattr(node, "name", "") != "try_exact_divide":
                    found.append(f"{path.name}:{arg.lineno}: {arg.arg}")
    assert not found, f"tolerance parameters in the package: {found}"


def test_cli_main_catches_no_reading_slip():
    # every document value is read by a rule that raises DocumentError, so
    # main need not catch the errors of an unchecked read; catching one would
    # hide a reader that skips the rules
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {
        ast.unparse(name)
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in (handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type])
    }
    assert caught and not caught & {"KeyError", "TypeError", "AttributeError", "IndexError"}, caught


# Routines that take every column, row or item of a realization in one pass.
BATCHED = ("transfer_support", "_invariant_subspaces")


def _repeated_parts(node):
    """The parts of a loop or a comprehension that run once per item; [] for other nodes."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
        return node.body
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        heads = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        # the first iterable is evaluated once, every later one once per item
        later = [gen.iter for gen in node.generators[1:]]
        return heads + later + [cond for gen in node.generators for cond in gen.ifs]
    return []


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_batched_passes_are_not_called_per_item():
    # transfer_support decides every entry of a realization at once, and
    # _invariant_subspaces grows every item of its stacks at once; a call
    # per item from a loop or a comprehension would undo the batching
    found, called = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                called.add(_called_name(node))
            for part in _repeated_parts(node):
                found |= {
                    f"{path.name}:{call.lineno}: {_called_name(call)}"
                    for call in ast.walk(part)
                    if isinstance(call, ast.Call) and _called_name(call) in BATCHED
                }
    assert called >= set(BATCHED)
    assert not found, f"batched passes called once per item: {sorted(found)}"
