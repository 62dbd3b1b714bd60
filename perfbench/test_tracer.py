"""Self-test of the tracer's span bookkeeping; run with

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

from tracer import Tracer, _covered

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package():
    """``fakepkg.mod`` defines the functions; ``fakepkg.user`` rebinds one by import."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 4.0
        mod.leaf()
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        user.inner()
        clock.now += 2.0
        mod.inner()
        clock.now += 3.0

    class Box:
        def method(self):
            clock.now += 0.25
            mod.leaf()

    mod.leaf, mod.inner, mod.outer, mod.Box = leaf, inner, outer, Box
    user.inner = inner  # as ``from .mod import inner`` would bind it
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    yield clock, mod, user
    for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
        del sys.modules[name]


def test_self_time_of_nested_calls(fake_package):
    clock, mod, user = fake_package
    tracer = Tracer(clock=clock)
    tracer.install("fakepkg", ["mod.outer", "mod.inner", "mod.leaf", "mod.Box.method"])
    try:
        mod.outer()
        mod.Box().method()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # inner lasts 4 + 0.5 + 1 = 5.5, of which its leaf child covers 0.5
    assert summary["mod.leaf"] == (3, 1.5, 1.5)
    assert summary["mod.inner"] == (2, 10.0, 11.0)
    # outer lasts 1 + 5.5 + 2 + 5.5 + 3 = 17; its two inner children cover 11
    assert summary["mod.outer"] == (1, 6.0, 17.0)
    assert summary["mod.Box.method"] == (1, 0.25, 0.75)
    # the rebound name in the other module was traced too, and everything is restored
    assert user.inner is mod.inner and not hasattr(mod.inner, "__wrapped__")


def test_spans_record_parents(fake_package):
    clock, mod, _ = fake_package
    tracer = Tracer(clock=clock)
    tracer.install("fakepkg", ["mod.outer", "mod.inner"])
    try:
        with tracer.span("bench"):
            mod.outer()
    finally:
        tracer.uninstall()
    ids = {sid: (parent, tracer.names[name]) for sid, parent, name, _, _ in tracer.spans}
    root = next(sid for sid, (_, name) in ids.items() if name == "bench")
    outer = next(sid for sid, (_, name) in ids.items() if name == "mod.outer")
    assert ids[root][0] == 0 and ids[outer][0] == root
    assert [p for p, name in ids.values() if name == "mod.inner"] == [outer, outer]
    assert tracer.summary()["bench"][:2] == (1, 0.0)


def test_return_hook_adds_counters(fake_package):
    clock, mod, _ = fake_package
    tracer = Tracer(clock=clock)
    tracer.install("fakepkg", ["mod.leaf"], hooks={"mod.leaf": lambda args, kwargs, result: {"bytes": 8}})
    try:
        mod.leaf()
        mod.leaf()
    finally:
        tracer.uninstall()
    assert tracer.counters["bytes"] == 16


def test_covered_clips_and_merges_overlaps():
    assert _covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert _covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert _covered([], 0.0, 10.0) == 0.0


def test_per_layer_names_match_the_benchmark_file():
    sys.path.insert(0, str(HERE))
    import run

    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    emitted = {f"{t}.{kind}" for t in run.TRACED for kind in ("calls", "self_share")}
    emitted |= {run.SYSTEM_BYTES, "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"}
    assert names == emitted
