"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion; under -v the test
names themselves serve as the per-criterion report.
"""

import time

import numpy as np
import pytest
import scipy.integrate
from conftest import (
    chain3_controller,
    chain3_phi_u,
    chain3_phi_x,
    chain_pattern,
    random_connected_graph,
    random_tf_structured,
    verify_adjoint_identity,
)
from test_consensus import ave_problem, circulant_from_symbol, dense_deflated_h2_static
from test_spatial import random_stable_kernel

from locrel import (
    ClosedLoopPair,
    ConsensusProblem,
    DisconnectedGraph,
    Graph,
    Plant,
    StateSpace,
    StructurePattern,
    build_structured_realization,
    check_realization_structure,
    check_relative_equivalence,
    closed_loops_of,
    consensus_measures,
    h2_deflated,
    implementation_realization_sf,
    laplacian,
    proper_approximation,
    recover_controller_sf,
    relative_decompose,
    scalar_h2_squared,
    si_h2_squared,
    sls_relative_feasibility,
    spatial_feasibility,
    static_consensus_gain,
    tf_of,
    tridiag_counterexample,
)
from locrel.spatial import si_h2_squared_parseval


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def band_measures(n):
    kinds = ("le", "ave", "lr") if n % 2 == 0 else ("le", "ave")
    return consensus_measures(n, kinds=kinds)


def test_criterion_01_infeasibility_sweep():
    checked = 0
    worst_time = 0.0
    ok = True
    for n in (6, 8, 10, 12):
        for b in range(1, (n - 1) // 2 + 1):
            for kind, c in band_measures(n).items():
                t0 = time.perf_counter()
                cert = sls_relative_feasibility(ConsensusProblem(n=n, b=b, gamma=1.0, c=c))
                worst_time = max(worst_time, time.perf_counter() - t0)
                if cert.rank <= 2 * b + 1:
                    continue
                checked += 1
                if cert.verdict != "Infeasible" or cert.witness is None:
                    ok = False
                    continue
                W = cert.witness
                if not np.allclose(W.sum(axis=1), 1.0, atol=1e-8):
                    ok = False
                if not np.all((np.abs(W) < 1e-8) | (np.abs(W - 1.0) < 1e-8)):
                    ok = False
    ok = ok and checked >= 20 and worst_time < 1.0
    report(
        1,
        ok,
        f"{checked} high-rank instances all Infeasible with unit-row-sum 0/1 "
        f"witnesses, slowest call {worst_time:.3f}s",
    )


def test_criterion_02_low_rank_solvable():
    checked = 0
    worst = 0.0
    ok = True
    for n in (6, 8, 10, 12):
        for b in (1, 2):
            # symbol supported on b conjugate frequency pairs: rank 2b <= 2b+1
            sym = np.zeros(n)
            for f in range(1, b + 1):
                sym[f] = sym[n - f] = 1.0
            c = circulant_from_symbol(sym)
            cert = sls_relative_feasibility(ConsensusProblem(n=n, b=b, gamma=1.0, c=c))
            if cert.rank > 2 * b + 1 or cert.verdict != "PotentiallyFeasible":
                ok = False
                continue
            checked += 1
            W = cert.witness
            worst = max(worst, float(np.max(np.abs(c @ (np.eye(n) - W)))))
            worst = max(worst, float(np.max(np.abs(W @ np.ones(n)))))
    ok = ok and checked == 8 and worst < 1e-8
    report(2, ok, f"{checked} low-rank instances solvable, max residual {worst:.2e}")


def test_criterion_03_gap_demonstration():
    from locrel import gap_demonstration

    rep = gap_demonstration(8, 1, 1.0)
    prob8 = ave_problem(8, 1, 1.0)
    dense8 = dense_deflated_h2_static(prob8, static_consensus_gain(8))
    ok = rep.certificate.verdict == "Infeasible"
    ok = ok and np.isfinite(rep.ks_h2_squared)
    ok = ok and abs(rep.ks_h2_squared - dense8) < 1e-8
    val4 = h2_deflated(ave_problem(4, 1, 1.0), static_consensus_gain(4))
    ok = ok and abs(val4 - 4.625) < 1e-9
    for n in (4, 8):
        formula = 0.25 * sum(
            1.0 / (1.0 - np.cos(2.0 * np.pi * k / n)) for k in range(1, n)
        )
        val0 = h2_deflated(ave_problem(n, 1, 0.0), static_consensus_gain(n))
        ok = ok and abs(val0 - formula) < 1e-9
    report(
        3,
        ok,
        f"n=8 Infeasible with finite deflated H2 {rep.ks_h2_squared:.6f} "
        f"(dense oracle gap {abs(rep.ks_h2_squared - dense8):.1e}), "
        f"n=4 value 4.625, gamma=0 sums match",
    )


def test_criterion_04_approximation_convergence():
    ok = True
    gaps = {}
    for n in (4, 8):
        prob = ave_problem(n, 1, 1.0)
        ks = h2_deflated(prob, static_consensus_gain(n))
        seq = [
            abs(h2_deflated(prob, proper_approximation(n, a)) - ks)
            for a in (-10.0, -100.0, -1000.0)
        ]
        gaps[n] = seq
        ok = ok and seq[0] > seq[1] > seq[2]
    report(4, ok, f"H2 gaps shrink monotonically: {gaps}")


def test_criterion_05_builder_round_trips():
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True
    for i in range(50):
        n = 2 + i % 5
        g = random_connected_graph(n, rng)
        pattern = StructurePattern.scalar(g)
        H = random_tf_structured(pattern, rng, max_deg=2)
        sys = build_structured_realization(H, pattern)
        if not check_realization_structure(sys, pattern).structured:
            ok = False
            continue
        for _ in range(10):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0))
            want = H.evaluate(s)
            scale = max(float(np.max(np.abs(want))), 1.0)
            worst = max(
                worst, float(np.max(np.abs(sys.evaluate(s) - want))) / scale
            )
    ok = ok and worst < 1e-7
    tridiag_ok = all(not tridiag_counterexample(n).tf_structured for n in range(3, 9))
    ok = ok and tridiag_ok
    report(
        5,
        ok,
        f"50 structured realizations match to {worst:.2e}; tridiag example "
        f"never TF-structured",
    )


def test_criterion_06_adjoint_and_decomposition():
    rng = np.random.default_rng(6)
    worst_adj = 0.0
    worst_rt = 0.0
    for i in range(100):
        n = 2 + i % 11
        g = random_connected_graph(n, rng)
        worst_adj = max(worst_adj, verify_adjoint_identity(g))
        k = rng.standard_normal(n)
        k -= k.mean()
        M = relative_decompose(k, g)
        worst_rt = max(worst_rt, float(np.max(np.abs(M @ np.ones(n) - k))))
    ok = worst_adj < 1e-12 and worst_rt < 1e-10
    two = Graph(np.zeros((2, 2), dtype=bool))
    try:
        relative_decompose(np.array([1.0, -1.0]), two)
        ok = False
    except DisconnectedGraph:
        pass
    report(
        6,
        ok,
        f"adjoint identity {worst_adj:.2e} over 100 graphs, decomposition "
        f"round trip {worst_rt:.2e}, disconnected graph rejected",
    )


# fixed right-half-plane points; every closed loop below is Hurwitz
ROUND_TRIP_POINTS = (1.0, 0.5 + 2.0j, 3.0 - 1.0j, 0.2 - 0.7j, 2.5 + 0.3j)


def test_criterion_07_sls_round_trips():
    rng = np.random.default_rng(7)
    worst_fp = 0.0
    for i in range(30):
        n = 2 + i % 4
        A = rng.standard_normal((n, n))
        X = rng.standard_normal((n, n))
        Acl = X - (np.max(np.linalg.eigvals(X).real) + rng.uniform(0.5, 2.0)) * np.eye(n)
        plant = Plant(A, np.eye(n), np.eye(n))
        cl1 = closed_loops_of(plant, Acl - A)
        cl2 = closed_loops_of(plant, recover_controller_sf(cl1))
        for s in ROUND_TRIP_POINTS:
            px1, pu1 = cl1.phi_x.evaluate(s), cl1.phi_u.evaluate(s)
            px2, pu2 = cl2.phi_x.evaluate(s), cl2.phi_u.evaluate(s)
            worst_fp = max(worst_fp, float(np.max(np.abs(px1 - px2))))
            worst_fp = max(worst_fp, float(np.max(np.abs(pu1 - pu2))))
    ok = worst_fp < 1e-6

    plant = Plant(np.zeros((3, 3)), np.eye(3), np.eye(3))
    cl = closed_loops_of(plant, chain3_controller())
    worst_chain = 0.0
    for s in (1.0, 2.0 + 1.0j):
        px, pu = cl.phi_x.evaluate(s), cl.phi_u.evaluate(s)
        worst_chain = max(
            worst_chain, float(np.max(np.abs(px - chain3_phi_x().evaluate(s))))
        )
        worst_chain = max(
            worst_chain, float(np.max(np.abs(pu - chain3_phi_u().evaluate(s))))
        )
    ok = ok and worst_chain < 1e-8

    design = ClosedLoopPair(chain3_phi_x(), chain3_phi_u())
    _, witness = implementation_realization_sf(design, chain_pattern(3))
    ok = ok and witness.structured
    report(
        7,
        ok,
        f"30 closed-loop fixed points to {worst_fp:.2e}, chain loops to "
        f"{worst_chain:.2e}, implementation passes tridiagonal witness",
    )


def test_criterion_08_relative_equivalence():
    rng = np.random.default_rng(8)
    checked = 0
    ok = True
    for i in range(50):
        n = 3 + i % 4
        A = -rng.uniform(0.5, 2.0) * laplacian(random_connected_graph(n, rng))
        if i % 2 == 0:
            K = -rng.uniform(0.5, 2.0) * laplacian(random_connected_graph(n, rng))
        else:
            K = rng.standard_normal((n, n)) + np.ones((n, n)) / n
        res = check_relative_equivalence(Plant(A, np.eye(n), np.eye(n)), K)
        if res.k_relative != res.phi_u_relative:
            ok = False
        if res.k_relative == (i % 2 == 0):
            checked += 1
    ok = ok and checked == 50
    report(8, ok, "50 plants: controller relativity always matches phi_u relativity")


def test_criterion_09_spatial_sweep():
    checked = 0
    agree = 0
    ok = True
    for d in (1, 2, 3):
        for n in range(4, 9):
            for b in range(1, (n - 1) // 2 + 1):
                if 2 * b + 1 == n:
                    continue  # locality ball covers the torus, precondition void
                cert = spatial_feasibility(d, n, b)
                checked += 1
                if cert.verdict != "Infeasible":
                    ok = False
                if len(cert.excluded_offsets) != n**d - (2 * b + 1) ** d:
                    ok = False
                if d == 1:
                    ring = sls_relative_feasibility(ave_problem(n, b, 0.0))
                    if ring.verdict == cert.verdict:
                        agree += 1
    ok = ok and checked == 27 and agree == 9
    report(
        9,
        ok,
        f"{checked} torus instances Infeasible with exact excluded-offset "
        f"counts; all {agree} d=1 verdicts agree with the ring certificates",
    )


def test_criterion_10_numerical_cross_checks():
    rng = np.random.default_rng(10)
    worst_sys = 0.0
    for i in range(20):
        n = 2 + i % 4
        m = 1 + i % 2
        X = rng.standard_normal((n, n))
        A = X - (np.max(np.linalg.eigvals(X).real) + rng.uniform(0.5, 1.5)) * np.eye(n)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((m, n))
        sys = StateSpace(A, B, C, np.zeros((m, m)))
        # the squared H2 norm is the sum of its entries' squared H2 norms
        h2 = sum(scalar_h2_squared(e) for row in tf_of(sys).entries for e in row)

        def density(w):
            G = sys.evaluate(1j * w)
            return float(np.sum(np.abs(G) ** 2))

        quad, _ = scipy.integrate.quad(density, 0.0, np.inf, limit=400)
        quad /= np.pi
        worst_sys = max(worst_sys, abs(h2 - quad) / max(h2, 1.0))
    ok = worst_sys < 1e-5

    worst_kernel = 0.0
    for i in range(20):
        d = 1 + i % 2
        n = 4 + i % 3
        k = random_stable_kernel(d, n, rng)
        worst_kernel = max(
            worst_kernel, abs(si_h2_squared(k) - si_h2_squared_parseval(k))
        )
    ok = ok and worst_kernel < 1e-8
    report(
        10,
        ok,
        f"per-entry H2 vs quadrature {worst_sys:.2e} on 20 systems, kernel sum vs "
        f"Parseval {worst_kernel:.2e} on 20 kernels",
    )
