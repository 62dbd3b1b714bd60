"""The three workloads: fixed instance lists built from a seed.

An instance is a short sequence of operations on inputs made here with
numpy. Each operation is one call into a public locrel function; its answer
is checked by an oracle from ``oracles`` before the next operation runs. A
call that raises ``LocrelError`` counts as a failed operation and ends its
instance; a wrong answer raises ``OracleMismatch`` and fails the run.

Calls go through module attributes (``consensus.gap_demonstration``) so
that the tracer's wrappers are the functions called.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from locrel import cli, consensus, relative, sls, spatial, statespace, structure
from locrel.graphs import StructurePattern, path_graph, ring_graph
from locrel.rational import RationalEntry, RationalMatrix

import oracles as orc
from oracles import require, require_close

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    call: Callable[[dict], object]  # receives the instance's scratch dict
    check: Callable[[object, dict], None]


@dataclass
class Instance:
    name: str
    ops: list
    size: int = 0  # problem size on the workload's main sweep; 0 when off it
    warm: bool = False  # run in the warm-up pass


@dataclass
class Workload:
    name: str
    instances: list
    largest: str
    # Report times at the reference speed (see run.py).  Off where the
    # reference kernel does not track the work: the large dense solves of
    # ring_feasibility slow down far less than it on a busy machine.
    scaled: bool = False


def _op(label, call, check):
    """An operation whose answer is also stored under its label."""

    def run(ctx):
        ctx[label] = call(ctx)
        return ctx[label]

    return Op(label, run, check)


# -- ring_gap -------------------------------------------------------------------

GAP_SIZES = (8, 16, 24, 32)
TRIDIAG_SIZES = (8, 16, 26)
GAP_POLES = (-10.0, -100.0, -1000.0)
# Static ring gain: no states, so structured, but its feedthrough couples
# neighbours (not network realizable).  Its proper approximation keeps one
# state per node.  Both closed-loop resolvents of the ring fill in, so neither
# closed loop is 1-local.
GAP_STRUCTURE = {
    "ksRealizationStructured": True,
    "ksNetworkRealizable": False,
    "ksTFStructured": True,
    "kaRealizationStructured": True,
    "kaNetworkRealizable": True,
    "kaTFStructured": True,
    "ksClosedLoopTFStructured": False,
    "kaClosedLoopTFStructured": False,
}


def _check_gap(n):
    C = orc.measure(n, "ave")
    Ks = -orc.ring_laplacian(n)

    def check(report, ctx):
        cert = report.certificate
        require(cert.verdict == "Infeasible", f"gap n={n}: verdict {cert.verdict}")
        require_close(cert.witness.sum(axis=1), np.ones(n), 1e-8, f"gap n={n} witness row sums")
        require_close(report.ks_h2_squared, orc.static_h2(C, Ks, 1.0), 1e-9, f"gap n={n} ks H2")
        require(sorted(report.ka_h2_squared) == sorted(GAP_POLES), f"gap n={n}: ka poles")
        for a, value in report.ka_h2_squared.items():
            require_close(value, orc.approximation_h2(C, Ks, a, 1.0), 1e-7, f"gap n={n} ka H2 a={a}")
        require(report.structure == GAP_STRUCTURE, f"gap n={n}: structure {report.structure}")

    return check


def _check_tridiag(result, ctx):
    # the resolvent of a tridiagonal matrix is dense, so the chain pattern fails
    require(result.tf_structured is False, "tridiag transfer reported as structured")


def ring_gap(seed):
    rng = np.random.default_rng(seed)
    instances = [
        Instance(
            f"gap n={n}",
            [_op("gap_demonstration", lambda ctx, n=n: consensus.gap_demonstration(n, b=1, gamma=1.0), _check_gap(n))],
            size=n,
            warm=n == GAP_SIZES[0],
        )
        for n in GAP_SIZES
    ] + [
        Instance(
            f"tridiag n={n}",
            [_op("tridiag_counterexample", lambda ctx, n=n: structure.tridiag_counterexample(n), _check_tridiag)],
            warm=n == TRIDIAG_SIZES[0],
        )
        for n in TRIDIAG_SIZES
    ]
    instances += small_round_trips(rng)
    rng.shuffle(instances)
    return Workload("ring_gap", instances, largest=f"gap n={GAP_SIZES[-1]}", scaled=True)


# -- ring_feasibility -----------------------------------------------------------

FEAS_SIZES = (32, 64, 96, 128, 160)
KA_POLE = -10.0


def _feasibility_instance(n):
    b, gamma = 1, 1.0
    ave = orc.measure(n, "ave")
    Ks = -orc.ring_laplacian(n)
    ka = consensus.proper_approximation(n, KA_POLE)
    ops = []
    for kind in ("rank2", "le", "ave", "lr"):
        C = orc.rank2_measure(n) if kind == "rank2" else orc.measure(n, kind)
        prob = consensus.ConsensusProblem(n=n, b=b, gamma=gamma, c=C)
        low_rank = orc.circulant_rank(C) <= 2 * b + 1

        def check(cert, ctx, C=C, low_rank=low_rank, kind=kind):
            want = "PotentiallyFeasible" if low_rank else "Infeasible"
            require(cert.verdict == want, f"feasibility {kind} n={n}: {cert.verdict}")
            require(cert.rank == orc.circulant_rank(C), f"feasibility {kind} n={n}: rank {cert.rank}")
            orc.check_witness(C, cert.witness, b, relative=low_rank)

        ops.append(_op(f"feasibility {kind}", lambda ctx, prob=prob: consensus.sls_relative_feasibility(prob), check))
    prob = consensus.ConsensusProblem(n=n, b=b, gamma=gamma, c=ave)
    ops.append(
        _op(
            "h2 ks",
            lambda ctx: consensus.h2_deflated(prob, Ks),
            lambda v, ctx: require_close(v, orc.static_h2(ave, Ks, gamma), 1e-9, f"h2 ks n={n}"),
        )
    )
    ops.append(
        _op(
            "h2 ka",
            lambda ctx: consensus.h2_deflated(prob, ka),
            lambda v, ctx: require_close(v, orc.approximation_h2(ave, Ks, KA_POLE, gamma), 1e-8, f"h2 ka n={n}"),
        )
    )
    return Instance(f"ring n={n}", ops, size=n, warm=n == FEAS_SIZES[0])


def ring_feasibility(seed):
    rng = np.random.default_rng(seed)
    instances = [_feasibility_instance(n) for n in FEAS_SIZES]
    rng.shuffle(instances)
    return Workload("ring_feasibility", instances, largest=f"ring n={FEAS_SIZES[-1]}")


# -- torus_spatial --------------------------------------------------------------

TORI = ((1, 1025), (2, 33), (3, 17))


def _torus_instance(d, n, rng):
    """Relative diffusive kernel: taps w p/(s + p) at +-e_axis, the negated sum at 0."""
    pole = float(rng.uniform(1.0, 3.0))
    weights = rng.uniform(0.5, 1.5, size=d)
    gamma = float(rng.uniform(0.5, 2.0))
    den = np.array([pole, 1.0])
    taps = {}
    for axis in range(d):
        for step in (1, -1):
            offset = [0] * d
            offset[axis] = step
            taps[tuple(offset)] = RationalEntry([weights[axis] * pole], den)
    taps[(0,) * d] = RationalEntry([-2.0 * weights.sum() * pole], den)
    kernel = spatial.ConvKernelArray(d, n, taps)
    sigma = orc.torus_symbol(n, d, weights)
    kernel_h2 = orc.torus_kernel_h2(weights, pole)
    s0, s1 = 0.9 + 0.4j, 1.7 - 0.8j

    def check_feasibility(cert, ctx):
        want = orc.torus_excluded_offsets(n, d, 1)
        require(cert.verdict == "Infeasible", f"torus {d},{n}: {cert.verdict}")
        require(len(cert.excluded_offsets) == n**d - 3**d == len(want), f"torus {d},{n}: excluded count")
        got = np.array(cert.excluded_offsets).reshape(-1, d)
        require(np.array_equal(got[np.lexsort(got.T[::-1])], want), f"torus {d},{n}: excluded offsets")

    def check_symbols(symbols, ctx):
        got = np.vectorize(lambda e: orc.rational_value(e.num, e.den, s0), otypes=[complex])(symbols)
        require_close(got, pole * sigma / (s0 + pole), 1e-9, f"torus {d},{n} symbols")

    def check_loops(loops, ctx):
        denom = s0 * s0 + pole * s0 - pole * sigma
        px = np.vectorize(lambda e: orc.rational_value(e.num, e.den, s0), otypes=[complex])(loops.phi_x_symbols)
        pu = np.vectorize(lambda e: orc.rational_value(e.num, e.den, s0), otypes=[complex])(loops.phi_u_symbols)
        require_close(px, (s0 + pole) / denom, 1e-9, f"torus {d},{n} phi_x")
        require_close(pu, pole * sigma / denom, 1e-9, f"torus {d},{n} phi_u")

    want_cl = orc.torus_closed_loop_h2(n, d, weights, pole, gamma)
    ops = [
        _op("spatial_feasibility", lambda ctx: spatial.spatial_feasibility(d, n, 1), check_feasibility),
        _op("dft_symbol", lambda ctx: spatial.dft_symbol(kernel), check_symbols),
        _op("si_closed_loops", lambda ctx: spatial.si_closed_loops(kernel), check_loops),
        _op(
            "closed-loop h2",
            lambda ctx: ctx["si_closed_loops"].h2_squared(gamma),
            lambda v, ctx: require_close(v, want_cl, 1e-9, f"torus {d},{n} closed-loop H2"),
        ),
        _op(
            "affine residual",
            lambda ctx: ctx["si_closed_loops"].affine_residual(s1),
            lambda v, ctx: require(v <= 1e-8, f"torus {d},{n} affine residual {v:.2e}"),
        ),
        _op(
            "si_h2_squared",
            lambda ctx: spatial.si_h2_squared(kernel),
            lambda v, ctx: require_close(v, kernel_h2, 1e-9, f"torus {d},{n} kernel H2"),
        ),
        _op(
            "si_h2_squared_parseval",
            lambda ctx: spatial.si_h2_squared_parseval(kernel),
            lambda v, ctx: require_close(v, ctx["si_h2_squared"], 1e-8, f"torus {d},{n} Parseval H2"),
        ),
        _op(
            "is_relative_si",
            lambda ctx: spatial.is_relative_si(kernel),
            lambda v, ctx: require(v is True, f"torus {d},{n}: kernel not relative"),
        ),
    ]
    return Instance(f"torus d={d} n={n}", ops, size=n**d, warm=d == 1)


def torus_spatial(seed):
    rng = np.random.default_rng(seed)
    instances = [_torus_instance(d, n, rng) for d, n in TORI]
    rng.shuffle(instances)
    d, n = TORI[-1]
    return Workload("torus_spatial", instances, largest=f"torus d={d} n={n}", scaled=True)


# -- small round trips, part of ring_gap -----------------------------------------
#
# The README CLI commands and SLS, relative and realization round trips at
# small sizes: the only calls into cli, sls, relative and the structure
# builders.  They ride along in ring_gap rather than forming a workload of
# their own, because their short passes swing with the machine's speed by
# more than any bound allows; inside ring_gap's long pass they average out.

SLS_RING_SIZES = (4, 6, 8)
CHAIN_SIZES = (3, 4, 5)
SLS_POLE = -10.0
CLI_EXPECTED = HERE / "cli_expected.json"


def _cli_instance(case):
    argv = [arg.replace("{data}", str(HERE / "data")) for arg in case["argv"]]

    def call(ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result, ctx):
        code, text = result
        label = " ".join(case["argv"][:2])
        require(code == case["exit"], f"cli {label}: exit {code}")
        orc.same_document(json.loads(text), case["stdout"], f"cli {label}")

    return Instance("cli " + " ".join(case["argv"]).replace("{data}/", ""), [_op("cli.main", call, check)])


def _check_transfer(get_value, want, points, rtol, what):
    for s in points:
        require_close(get_value(s), want(s), rtol, f"{what} at s={s:.3f}")


def _sls_ops(plant, K_of, K_input, pattern, name, rng, relative_drift):
    """The state-feedback round trip on one plant and controller.

    ``K_of(s)`` is the controller's value computed with numpy; ``K_input`` is
    the same controller as locrel receives it.
    """
    n = plant.n
    eye = np.eye(n)
    points = orc.sample_points(rng, 5)

    def phi(s):
        px = np.linalg.inv(s * eye - plant.A - K_of(s))
        return px, K_of(s) @ px

    def check_loops(cl, ctx):
        for s in points:
            px, pu = phi(s)
            require_close(orc.ss_value(cl.phi_x.A, cl.phi_x.B, cl.phi_x.C, cl.phi_x.D, s), px, 1e-8, f"{name} phi_x")
            require_close(orc.ss_value(cl.phi_u.A, cl.phi_u.B, cl.phi_u.C, cl.phi_u.D, s), pu, 1e-8, f"{name} phi_u")

    def check_recovered(K, ctx):
        # fixed point: the recovered controller reproduces the closed loops
        value = (lambda s: orc.matrix_value(K, s)) if isinstance(K, RationalMatrix) else K.evaluate
        for s in points:
            px, pu = phi(s)
            Kr = value(s)
            px_r = np.linalg.inv(s * eye - plant.A - Kr)
            require_close(px_r, px, 1e-6, f"{name} recovered phi_x")
            require_close(Kr @ px_r, pu, 1e-6, f"{name} recovered phi_u")

    def check_impl(result, ctx):
        impl, _ = result
        _check_transfer(lambda s: orc.ss_value(impl.A, impl.B, impl.C, impl.D, s), K_of, points, 1e-6, f"{name} implementation")

    ops = [
        _op("closed_loops_of", lambda ctx: sls.closed_loops_of(plant, K_input), check_loops),
        _op(
            "check_affine_constraint",
            lambda ctx: sls.check_affine_constraint(ctx["closed_loops_of"], plant),
            lambda v, ctx: require(v <= 1e-8, f"{name} affine residual {v:.2e}"),
        ),
        _op("recover_controller_sf", lambda ctx: sls.recover_controller_sf(ctx["closed_loops_of"]), check_recovered),
        _op(
            "implementation_realization_sf",
            lambda ctx: sls.implementation_realization_sf(ctx["closed_loops_of"], pattern),
            check_impl,
        ),
    ]
    if relative_drift:
        ops.append(
            _op(
                "check_relative_equivalence",
                lambda ctx: sls.check_relative_equivalence(plant, K_input),
                lambda v, ctx: require(v.k_relative and v.phi_u_relative, f"{name}: relative flags {v}"),
            )
        )
    return ops


def _sls_ring_instance(n, rng):
    """Integrators on a ring under the proper approximation -a/(s - a) Ks."""
    Ks = -orc.ring_laplacian(n)
    plant = sls.Plant(np.zeros((n, n)), np.eye(n), np.eye(n))
    K = consensus.proper_approximation(n, SLS_POLE)
    ops = _sls_ops(
        plant,
        lambda s: -SLS_POLE / (s - SLS_POLE) * Ks,
        K,
        StructurePattern.scalar(ring_graph(n)),
        f"sls ring n={n}",
        rng,
        relative_drift=True,
    )
    return Instance(f"sls ring n={n}", ops, warm=n == SLS_RING_SIZES[0])


def _chain_instance(n, rng):
    """Stable chain A = -(L_w + diag(delta)) under a static relative chain gain."""
    A = -(orc.path_laplacian(n, rng.uniform(0.5, 2.0, n - 1)) + np.diag(rng.uniform(0.2, 1.0, n)))
    K = -orc.path_laplacian(n, rng.uniform(0.5, 2.0, n - 1))
    plant = sls.Plant(A, np.eye(n), np.eye(n))
    ops = _sls_ops(
        plant,
        lambda s: K.astype(complex),
        K,
        StructurePattern.scalar(path_graph(n)),
        f"chain n={n}",
        rng,
        relative_drift=False,
    )
    return Instance(f"chain n={n}", ops, warm=n == CHAIN_SIZES[0])


def _random_entry(rng):
    """Proper entry with one or two stable real poles."""
    degree = int(rng.integers(1, 3))
    den = np.ones(1)
    for _ in range(degree):
        den = np.convolve(den, [rng.uniform(0.5, 3.0), 1.0])
    return RationalEntry(rng.standard_normal(int(rng.integers(0, degree + 1)) + 1), den)


def _realization_instance(graph, label, rng):
    """Structured transfer matrix on a graph, realized and converted back."""
    n = graph.n
    pattern = StructurePattern.scalar(graph)
    H = RationalMatrix(
        [[_random_entry(rng) if graph.adjacency[i, j] else RationalEntry.zero() for j in range(n)] for i in range(n)],
        pattern.row_partition,
        pattern.col_partition,
    )
    points = orc.sample_points(rng, 4)
    want = lambda s: orc.matrix_value(H, s)  # noqa: E731
    ops = [
        _op(
            "build_structured_realization",
            lambda ctx: structure.build_structured_realization(H, pattern),
            lambda sys_, ctx: _check_transfer(
                lambda s: orc.ss_value(sys_.A, sys_.B, sys_.C, sys_.D, s), want, points, 1e-7, f"{label} realization"
            ),
        ),
        _op(
            "tf_of",
            lambda ctx: statespace.tf_of(ctx["build_structured_realization"]),
            lambda Hr, ctx: _check_transfer(lambda s: orc.matrix_value(Hr, s), want, points, 1e-7, f"{label} tf_of"),
        ),
    ]
    return Instance(label, ops)


def _relative_instance(n, rng):
    """Relative rational gain -p/(s + p) L_w on a ring and its edge kernels."""
    pole = float(rng.uniform(0.5, 3.0))
    L = orc.ring_laplacian(n, rng.uniform(0.5, 2.0, n))
    den = np.array([pole, 1.0])
    K = RationalMatrix([[RationalEntry([-pole * L[i, j]], den) for j in range(n)] for i in range(n)])
    graph = ring_graph(n)
    points = orc.sample_points(rng, 3)

    def check(form, ctx):
        off_graph = ~graph.adjacency
        for r, grid in enumerate(form.kernels):
            for s in points:
                M = np.array([[orc.rational_value(e.num, e.den, s) for e in row] for row in grid])
                require_close(M, -M.T, 1e-12, f"relative n={n} kernel {r} skew")
                require(np.all(M[off_graph] == 0), f"relative n={n} kernel {r} leaves the graph")
                require_close(M.sum(axis=1), -pole / (s + pole) * L[r], 1e-8, f"relative n={n} row {r}")

    ops = [
        _op("is_relative", lambda ctx: relative.is_relative(K), lambda v, ctx: require(v is True, f"relative n={n}")),
        _op("relative_decompose_rational", lambda ctx: relative.relative_decompose_rational(K, graph), check),
    ]
    return Instance(f"relative n={n}", ops)


def small_round_trips(rng):
    cases = json.loads(CLI_EXPECTED.read_text())
    instances = [_cli_instance(case) for case in cases]
    instances[0].warm = True
    instances += [_sls_ring_instance(n, rng) for n in SLS_RING_SIZES]
    instances += [_chain_instance(n, rng) for n in CHAIN_SIZES]
    instances += [_realization_instance(path_graph(4), "realize path n=4", rng)]
    instances += [_realization_instance(ring_graph(n), f"realize ring n={n}", rng) for n in (5, 6)]
    instances += [_relative_instance(n, rng) for n in (4, 6, 8)]
    return instances


WORKLOADS = {
    "ring_gap": ring_gap,
    "ring_feasibility": ring_feasibility,
    "torus_spatial": torus_spatial,
}
