"""The document-reading rules of ``locrel.graphs`` and the CLI's contract on any document."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locrel.cli import main
from locrel.errors import DocumentError, LocrelError
from locrel.graphs import (
    Partition,
    array,
    count,
    graph_from_json,
    items,
    member,
    number,
    partition,
    pattern_from_json,
)
from locrel.rational import RationalEntry, RationalMatrix
from locrel.spatial import ConvKernelArray
from locrel.statespace import StateSpace

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: member({"a": 1}, "$.x", "b"), "$.x.b is missing"),
        (lambda: member({"b": None}, "$.x", "b"), "$.x.b is missing"),
        (lambda: member([1], "$.x", "b"), "$.x must be an object, not [1]"),
        (lambda: member({}, "$", "matrix", "gain"), "$ needs one of: matrix, gain"),
        (lambda: count(True, "$.n"), "$.n must be an integer"),
        (lambda: count(3.5, "$.n"), "$.n must be an integer"),
        (lambda: count("3", "$.n"), "$.n must be an integer"),
        (lambda: count(1e308, "$.n"), "$.n must be an integer, not 1e+308"),
        (lambda: count(2.0**53 + 2.0, "$.n"), "$.n must be an integer, not 9007199254740994.0"),
        (lambda: number(False, "$.gamma"), "$.gamma must be a number, not False"),
        (lambda: number("1", "$.gamma"), "$.gamma must be a number, not '1'"),
        (lambda: number([1.0], "$.gamma"), "$.gamma must be a number, not [1.0]"),
        (lambda: array([[1, 2], [3]], "$.a", 2), "$.a must be a rectangular array"),
        (lambda: array([[1, True]], "$.a", 2), "$.a[0][1] must be a number, not True"),
        (lambda: array([[[1.0]]], "$.a", 2), "$.a[0][0] must be a number, not [1.0]"),
        (lambda: array({"x": 1}, "$.a", 1), "$.a must be a number"),
        (lambda: items({}, "$.edges"), "$.edges must be a list, not {}"),
        (lambda: partition({"p": True}, "$.x", "p"), "$.x.p must be a list, not True"),
        (lambda: partition({"p": [1, 1.5]}, "$.x", "p"), "$.x.p[1] must be an integer"),
        (lambda: partition({"p": []}, "$.x", "p"), "$.x.p must list at least one block size, not []"),
        (lambda: graph_from_json({"n": 0}), "$.graph.n must be at least 1, not 0"),
        (lambda: graph_from_json({"n": 2, "edges": [[0, -1]]}), "$.graph.edges[0] must join nodes 0 to 1, not [0, -1]"),
        (lambda: RationalMatrix.from_json({"entries": [[]]}), "$.matrix.entries must be a nonempty rectangular"),
    ],
)
def test_each_rule_refuses_a_wrong_value_by_its_path(read, message):
    with pytest.raises(DocumentError) as exc:
        read()
    assert str(exc.value).startswith(message)
    # a document error is both the package's error and a ValueError
    assert isinstance(exc.value, LocrelError) and isinstance(exc.value, ValueError)


def test_the_rules_read_valid_values():
    assert member({"a": 1, "b": 2}, "$", "a") == (1, "$.a")
    assert member({"b": 2}, "$", "a", "b") == (2, "$.b")
    # null is unset: the default stands in for the last key
    assert member({"a": None}, "$", "c", "a", default="ave") == ("ave", "$.a")
    assert count(4.0, "$.n") == 4 and type(count(4.0, "$.n")) is int
    assert count(np.int64(3), "$.n") == 3 and count(-(2.0**53), "$.n") == -(2**53)
    assert count(2**60 + 1, "$.n") == 2**60 + 1  # an int is exact at any size
    assert number(3, "$.gamma") == 3.0 and number(np.float64(0.5), "$.gamma") == 0.5
    assert array(2, "$.a", 2).shape == () and array([], "$.a", 2).shape == (0,)
    assert array([[], []], "$.a", 2).shape == (2, 0)
    assert np.array_equal(array([[1, 2.5], [3, 4]], "$.a", 2), [[1.0, 2.5], [3.0, 4.0]])
    assert items([7, 8], "$.e") == [(7, "$.e[0]"), (8, "$.e[1]")]
    assert partition({}, "$", "p") is None and partition({"p": None}, "$", "p") is None
    assert partition({"p": [2, 1.0]}, "$", "p") == Partition((2, 1))


def test_the_readers_name_the_paths_they_were_given():
    with pytest.raises(DocumentError, match=r"^\$\.system\.B is missing"):
        StateSpace.from_json({"A": [[0.0]]})
    with pytest.raises(DocumentError, match=r"^\$\.plant\.K\.partitions\.in must be a list"):
        StateSpace.from_json(
            {"A": [], "B": [], "C": [], "D": [[1.0]], "partitions": {"in": 1}}, "$.plant.K"
        )
    with pytest.raises(DocumentError, match=r"^\$\.matrix\.entries is missing"):
        RationalMatrix.from_json({})
    with pytest.raises(DocumentError, match=r"^\$\.matrix\.entries\[0\]\[1\]\.num\[0\] must"):
        RationalMatrix.from_json({"entries": [[{"num": [1], "den": [1]}, {"num": ["x"], "den": [1]}]]})
    with pytest.raises(DocumentError, match=r"^\$\.den is missing"):
        RationalEntry.from_json({"num": [1.0]})
    with pytest.raises(DocumentError, match=r"^\$\.kernel\.taps\[0\]\.offset\[0\] must be an integer"):
        ConvKernelArray.from_json({"d": 1, "n": 8, "taps": [{"offset": [0.5], "num": [1], "den": [1]}]})
    with pytest.raises(DocumentError, match=r"^\$\.graph\.n is missing"):
        graph_from_json({})
    with pytest.raises(DocumentError, match=r"^\$\.graph\.edges\[1\] must be a pair of nodes"):
        graph_from_json({"n": 3, "edges": [[0, 1], [2]]})
    with pytest.raises(DocumentError, match=r"^\$\.pattern\.colPartition\[0\] must be an integer"):
        pattern_from_json({"graph": {"n": 1}, "colPartition": [True]})


def test_a_negative_block_size_is_refused_by_its_path():
    with pytest.raises(DocumentError, match=r"^\$\.p\[1\] must be a nonnegative integer, not -1$"):
        partition({"p": [1, -1, 3]}, "$", "p")
    with pytest.raises(DocumentError, match=r"^\$\.pattern\.rowPartition\[0\] must be a nonnegative integer, not -2\.0$"):
        pattern_from_json({"graph": {"n": 1}, "rowPartition": [-2.0]})
    with pytest.raises(DocumentError, match=r"^\$\.system\.partitions\.state\[2\] must be a nonnegative"):
        StateSpace.from_json(
            {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]], "partitions": {"state": [1, 0, -1]}}
        )
    assert partition({"p": [0, 2, 0]}, "$", "p") == Partition((0, 2, 0))


def test_a_pattern_reads_unset_partitions_as_one_node_a_block():
    pattern = pattern_from_json({"graph": {"n": 3, "edges": [[0, 1]]}, "rowPartition": None})
    assert pattern.row_partition == pattern.col_partition == Partition.scalar(3)


def run_on(words, doc):
    """(exit code, stdout, stderr) of ``locrel <words> --input -`` on a document."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*words, "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_a_negative_block_size_is_refused_by_its_path_in_the_cli():
    doc = json.loads((DATA / "tridiag3.json").read_text())
    doc["system"]["partitions"]["state"] = [1, -1, 3]
    # this used to print "error: block sizes must be nonnegative", with no path
    assert run_on(["structure", "check"], doc) == (
        1,
        "",
        "error: $.system.partitions.state[1] must be a nonnegative integer, not -1\n",
    )


@pytest.mark.parametrize(
    "words, data, mutate, message",
    [
        # these printed "a partition needs at least one block", "a graph needs
        # at least 1 node, not n=-1", "edge (0, 5) out of range for n=3" and
        # "ragged rational matrix", with no path
        (
            ["structure", "check"],
            "tridiag3.json",
            lambda doc: doc["system"]["partitions"].update(state=[]),
            "$.system.partitions.state must list at least one block size, not []",
        ),
        (
            ["structure", "check"],
            "tridiag3.json",
            lambda doc: doc["pattern"]["graph"].update(n=-1),
            "$.pattern.graph.n must be at least 1, not -1",
        ),
        (
            ["structure", "check"],
            "tridiag3.json",
            lambda doc: doc["pattern"]["graph"]["edges"].append([0, 5]),
            "$.pattern.graph.edges[2] must join nodes 0 to 2, not [0, 5]",
        ),
        (
            ["relative", "check"],
            "ring4_relative_row.json",
            lambda doc: doc.update(gain=None, matrix={"entries": [[{"num": [1], "den": [1]}] * 2, []]}),
            "$.matrix.entries must be a nonempty rectangular array of entries",
        ),
    ],
)
def test_a_value_no_analysis_can_take_is_refused_by_its_path_in_the_cli(words, data, mutate, message):
    doc = json.loads((DATA / data).read_text())
    mutate(doc)
    assert run_on(words, doc) == (1, "", f"error: {message}\n")


def test_a_wrong_value_is_refused_by_its_path():
    doc = json.loads((DATA / "tridiag3.json").read_text())
    doc["system"]["partitions"] = {"state": [1, 1, 1], "out": True}
    # this used to end in TypeError: 'bool' object is not iterable
    assert run_on(["structure", "check"], doc) == (
        1,
        "",
        "error: $.system.partitions.out must be a list, not True\n",
    )


def _readme_documents():
    """(command words, document) of each README command; flags become document fields."""
    corpus = json.loads((PERFBENCH / "cli_expected.json").read_text())
    out = []
    for case in corpus:
        words, rest = case["argv"][:2], case["argv"][2:]
        if rest[0] == "--input":
            doc = json.loads((DATA / Path(rest[1]).name).read_text())
        else:
            doc = {flag[2:]: json.loads(v) if v[-1].isdigit() else v for flag, v in zip(rest[::2], rest[1::2])}
        out.append((words, doc))
    return out


README = _readme_documents()
DELETE = "<deleted>"
# every value a mutation writes: never a large finite count, which asks numpy for
# arrays of any size (1e308 is no integer a float holds exactly, so it is refused)
REPLACEMENTS = [None, True, "x", [], {}, 1e308, -1, 0, [[1.0, 2.0], [3.0]], DELETE]


def _paths(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_documents(draw):
    """A README command with one value of its document replaced or deleted."""
    words, doc = draw(st.sampled_from(README))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from(REPLACEMENTS if path else REPLACEMENTS[:-1]))
    if not path:
        return words, value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return words, doc


def _refuse_constant(token):
    raise ValueError(f"{token} is not standard JSON")


def run_and_check_the_contract(words, doc):
    """Run a command; it succeeds with finite standard JSON or fails with one error line."""
    code, out, err = run_on(words, doc)
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert code in (0, 2), err
        json.loads(out, parse_constant=_refuse_constant)
    return code, err


SWEEP = settings(max_examples=250, deadline=None, database=None, derandomize=True)


@SWEEP
@given(mutated_documents())
def test_no_document_makes_the_cli_print_a_traceback(case):
    # an exception escaping main is a traceback at the command line
    run_and_check_the_contract(*case)


OUTCOMES = {
    "success": lambda code, err: code != 1,
    "missing": lambda code, err: " is missing" in err or " needs one of:" in err,
    "object": lambda code, err: "must be an object" in err,
    "list": lambda code, err: "must be a list" in err,
    "number": lambda code, err: "must be a number" in err,
    "count": lambda code, err: "must be an integer" in err,
    "non-finite": lambda code, err: "finite" in err,
}


def test_the_mutations_reach_every_outcome():
    seen = set()

    @SWEEP
    @given(mutated_documents())
    def record(case):
        code, err = run_and_check_the_contract(*case)
        seen.update(name for name, reached in OUTCOMES.items() if reached(code, err))

    record()
    assert seen == set(OUTCOMES)
