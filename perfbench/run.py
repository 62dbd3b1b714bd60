"""Run one benchmark workload against the locrel source tree beside this directory.

    python3 perfbench/run.py --workload ring_gap --seed 1 --seconds 34 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs untraced
and traced passes in turn and reports the per-layer metrics. The last line
of standard output is the result object; the line before it holds the
details behind it (samples, quartiles, failures, environment).

The workload is a closed loop with one caller: each call starts when the
previous one returns. Every answer is checked by an oracle that does not
use locrel; timings exclude those checks.

``pass_s``, ``largest_s`` and ``scaling_exponent`` are reported at a fixed
reference speed where the workload's ``scaled`` is set. The speed of a
shared machine switches between states up to 1.8x apart that last from
under a second to minutes, so raw seconds from one run mostly tell which
states the run met. A timer signal times a frozen numpy kernel
(``reference_seconds``) every ``PROBE_INTERVAL_S`` of wall time while the
workload runs; each operation's time is its raw seconds, less the time
spent in the kernel, times ``REFERENCE_NOMINAL_S`` over the kernel's median
during that operation (or the sample nearest to it, for an operation too
short to hold one). The raw seconds are in the detail line.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so timings measure locrel rather
# than the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_SNIPPET = "import locrel, locrel.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"

# Functions and methods timed by the traced run, by layer (module).
TRACED = (
    "statespace.tf_of",
    "statespace.char_poly",
    "statespace.StateSpace.evaluate",
    "statespace.scalar_h2_squared",
    "statespace.realize_rational",
    "rational.RationalEntry.__init__",
    "rational.cancel_common_factors",
    "rational.RationalEntry.evaluate",
    "rational.RationalMatrix.inverse",
    "rational.RationalMatrix.matmul",
    "structure.is_tf_structured",
    "structure.check_realization_structure",
    "structure.tridiag_counterexample",
    "structure.build_structured_realization",
    "relative.is_relative",
    "relative.relative_decompose",
    "relative.relative_decompose_rational",
    "sls.closed_loops_of",
    "sls.check_affine_constraint",
    "sls.recover_controller_sf",
    "sls.implementation_realization_sf",
    "sls.check_relative_equivalence",
    "consensus.sls_relative_feasibility",
    "consensus.h2_deflated",
    "consensus.gap_demonstration",
    "spatial.dft_symbol",
    "spatial.si_closed_loops",
    "spatial.SIClosedLoops.h2_squared",
    "spatial.si_h2_squared",
    "spatial.si_h2_squared_parseval",
    "spatial.spatial_feasibility",
    "cli.main",
)
SYSTEM_BYTES = "consensus.sls_relative_feasibility.system_bytes"


def _system_bytes(args, kwargs, cert):
    """Bytes of the dense (n^2 + n) x n(2b + 1) system, built only on the low-rank branch."""
    prob = args[0] if args else kwargs["prob"]
    if cert.rank is None or cert.rank > cert.threshold:
        return {}
    return {SYSTEM_BYTES: 8 * (prob.n**2 + prob.n) * prob.n * (2 * prob.b + 1)}


# The reference kernel's time at the speed the reported times are scaled to.
REFERENCE_NOMINAL_S = 0.004


@functools.lru_cache(maxsize=None)
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.standard_normal(9) for _ in range(40)], rng.standard_normal((12, 12))


def reference_seconds():
    """Time one run of a fixed kernel that does the same kind of work as most
    of locrel: small polynomial roots and products, and a small QR, driven
    from Python."""
    import numpy as np

    polys, square = _reference_inputs()
    start = time.perf_counter()
    for p in polys:
        sorted(np.roots(p), key=abs)
        np.convolve(p, p)
        np.linalg.qr(square)
    return time.perf_counter() - start


PROBE_INTERVAL_S = 0.2


class SpeedProbe:
    """Times the reference kernel every ``PROBE_INTERVAL_S`` of wall time.

    The samples come from a ``SIGALRM`` handler, so they are spread over the
    run in proportion to wall time, long operations included. ``held`` is the
    total time spent in the handler, which callers subtract from the
    operation they were timing.
    """

    def __init__(self):
        self.samples = []  # (start, seconds)
        self.held = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, reference_seconds()))
        self.held += time.perf_counter() - start

    def __enter__(self):
        reference_seconds()  # build the inputs outside the handler
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def local(self, start, end):
        """Median reference time between ``start`` and ``end``, else the sample nearest to them."""
        inside = [ref for at, ref in self.samples if start <= at <= end]
        if inside:
            return statistics.median(inside)
        middle = (start + end) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]

    def seconds(self, op_spans):
        """Reference-speed seconds of timed operations given as (start, end, raw seconds)."""
        return sum(raw * REFERENCE_NOMINAL_S / self.local(start, end) for start, end, raw in op_spans)


def raw_seconds(op_spans):
    return sum(raw for _, _, raw in op_spans)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    """Median, quartiles, sample count and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    q1, q3 = quartiles(values)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values), "p_high": None}
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out["p_high"] = {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}
            break
    return out


def measure_setup(repeats):
    """Seconds from starting a fresh interpreter to ``import locrel, locrel.cli`` returning.

    One untimed start first fills the bytecode and file caches, which users
    pay once, not on every start.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env, stdout=subprocess.PIPE
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait() != 0 or line.strip() != b"ready":
                raise RuntimeError("a fresh interpreter could not import locrel")
        if i:
            samples.append(elapsed)
    return samples


def environment(seed):
    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


class Recorder:
    """Counts operations and failures across the measured passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}


def run_pass(instances, recorder, tracer=None, probe=None):
    """One pass: {instance name: [(start, end, raw seconds) of each locrel call]}.

    With a ``probe``, time spent in its handler is left out of the raw seconds.
    """
    from locrel.errors import LocrelError

    held = (lambda: probe.held) if probe is not None else (lambda: 0.0)
    spans = {}
    for inst in instances:
        ctx = {}
        spans[inst.name] = timed = []
        for op in inst.ops:
            recorder.attempted += 1
            before = held()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call(ctx)
                else:
                    with tracer.span(f"bench:{inst.name}: {op.label}"):
                        out = op.call(ctx)
            except LocrelError as exc:
                end = time.perf_counter()
                timed.append((start, end, end - start - (held() - before)))
                recorder.failed += 1
                recorder.failures[f"{inst.name}: {op.label}"] = type(exc).__name__
                break
            end = time.perf_counter()
            timed.append((start, end, end - start - (held() - before)))
            op.check(out, ctx)
    return spans


def pass_seconds(instances, recorder, tracer=None):
    """Raw seconds of one pass."""
    return sum(raw_seconds(timed) for timed in run_pass(instances, recorder, tracer).values())


def scaling_exponent(sizes, seconds):
    """Least-squares slope of log(time) against log(size)."""
    x = [math.log(s) for s in sizes]
    y = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def end_to_end(workload, seconds, detail):
    """Passes over every instance, then repeats of the sweep instances while time remains.

    ``pass_s`` and the operation counts come from the passes alone; the
    repeats add samples to the per-size medians behind ``largest_s`` and
    ``scaling_exponent``.
    """
    run_pass([inst for inst in workload.instances if inst.warm], Recorder())
    recorder = Recorder()
    sweep = sorted((inst for inst in workload.instances if inst.size), key=lambda inst: inst.size)
    repeats = {inst.name: [] for inst in sweep}
    passes, walls = [], []
    probe = SpeedProbe() if workload.scaled else None
    with probe if probe is not None else contextlib.nullcontext():
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            began = time.perf_counter()
            passes.append(run_pass(workload.instances, recorder, probe=probe))
            walls.append(time.perf_counter() - began)
        raw = {inst.name: [raw_seconds(p[inst.name]) for p in passes] for inst in sweep}
        repeated = True
        while repeated:
            repeated = False
            for inst in reversed(sweep):  # largest first: it has the fewest samples
                if time.perf_counter() - start + statistics.median(raw[inst.name]) <= seconds:
                    timed = run_pass([inst], Recorder(), probe=probe)[inst.name]
                    repeats[inst.name].append(timed)
                    raw[inst.name].append(raw_seconds(timed))
                    repeated = True
    to_seconds = probe.seconds if probe is not None else raw_seconds
    samples = {inst.name: [to_seconds(t) for t in [p[inst.name] for p in passes] + repeats[inst.name]] for inst in sweep}
    by_size = {inst.size: statistics.median(samples[inst.name]) for inst in sweep}
    pass_s = summarize([sum(to_seconds(t) for t in p.values()) for p in passes])
    largest = summarize(samples[workload.largest])
    detail.update(
        pass_s=pass_s,
        largest_s=largest,
        raw_pass_s=summarize([sum(raw_seconds(t) for t in p.values()) for p in passes]),
        raw_largest_s=summarize(raw[workload.largest]),
        reference_s=summarize([ref for _, ref in probe.samples]) if probe is not None else None,
        sweep_median_s={str(size): t for size, t in by_size.items()},
        sweep_samples={name: len(v) for name, v in samples.items()},
        instance_median_s={name: statistics.median(raw_seconds(p[name]) for p in passes) for name in passes[0]},
        attempted=recorder.attempted,
        failed=recorder.failed,
        failures=recorder.failures,
    )
    metrics = {
        "pass_s": (pass_s["median"], "s"),
        "largest_s": (largest["median"], "s"),
        "scaling_exponent": (scaling_exponent(list(by_size), list(by_size.values())), "1"),
        "success_ratio": ((recorder.attempted - recorder.failed) / recorder.attempted, "1"),
    }
    return recorder, metrics


def per_layer(workload, seconds, detail, spans_path):
    import locrel
    from tracer import Tracer

    run_pass([inst for inst in workload.instances if inst.warm], Recorder())
    tracer = Tracer()
    recorder = Recorder()
    plain, traced, summaries, bytes_per_pass = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) <= seconds:
        plain.append(pass_seconds(workload.instances, Recorder()))
        first, counted = len(tracer.spans), tracer.counters[SYSTEM_BYTES]
        tracer.install("locrel", TRACED, hooks={"consensus.sls_relative_feasibility": _system_bytes})
        try:
            traced.append(pass_seconds(workload.instances, recorder, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(first))
        bytes_per_pass.append(tracer.counters[SYSTEM_BYTES] - counted)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
    metrics = {}
    self_s, total_s = {}, {}
    for target in TRACED:
        calls = summaries[0].get(target, (0, 0.0, 0.0))[0]
        self_each = [s.get(target, (0, 0.0, 0.0))[1] for s in summaries]
        self_s[target] = statistics.median(self_each)
        total_s[target] = statistics.median(s.get(target, (0, 0.0, 0.0))[2] for s in summaries)
        metrics[f"{target}.calls"] = (calls, "count")
        metrics[f"{target}.self_share"] = (statistics.median(t / p for t, p in zip(self_each, traced)), "1")
    metrics[SYSTEM_BYTES] = (bytes_per_pass[0], "B")
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    detail.update(
        self_s=self_s,
        total_s=total_s,
        traced_pass_s=summarize(traced),
        untraced_pass_s=summarize(plain),
        spans=len(tracer.spans),
        spans_file=None if spans_path is None else str(spans_path.relative_to(ROOT)),
        locrel=str(Path(locrel.__file__).parent.relative_to(ROOT)),
    )
    return recorder, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locrel" / "__init__.py").is_file():
        print(f"error: no locrel source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oracles import OracleMismatch
    from workloads import WORKLOADS

    import locrel

    if Path(locrel.__file__).resolve().parent != (SRC / "locrel").resolve():
        print(f"error: imported locrel from {locrel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    detail["env"] = environment(args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    correct = True
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            recorder, metrics = per_layer(workload, args.seconds, detail, spans)
        else:
            setup = measure_setup(SETUP_REPEATS)
            recorder, metrics = end_to_end(workload, args.seconds, detail)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            detail["setup_s"] = summarize(setup)
    except OracleMismatch as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        correct = False
        recorder, metrics = Recorder(), {}
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": max(recorder.attempted, 1),
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
