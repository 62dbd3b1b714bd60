"""Ring consensus: measures, feasibility certificates, deflated H2."""

import math
import warnings
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import approximation_transfer, h2_norm_squared

from locrel.consensus import (
    DENSE_WITNESS_MAX_N,
    ConsensusProblem,
    FeasibilityCertificate,
    circulant_rank,
    consensus_measures,
    gap_demonstration,
    h2_deflated,
    proper_approximation,
    sls_relative_feasibility,
    static_consensus_gain,
    static_gain_realization,
)
from locrel.errors import (
    ConsistencyCheckFailed,
    ModeZeroDetectable,
    NonNegativeA,
    NotCirculant,
    OddNForLongRange,
    UnstableNonzeroMode,
)
from locrel.graphs import StructurePattern, ring_graph
from locrel.statespace import StateSpace, tf_of
from locrel.structure import check_realization_structure


def ave_problem(n, b, gamma):
    return ConsensusProblem(
        n=n, b=b, gamma=gamma, c=consensus_measures(n, kinds=("ave",))["ave"]
    )


def circulant_from_symbol(sym):
    """Circulant matrix with a prescribed DFT symbol (first row ifft)."""
    c = np.fft.ifft(np.asarray(sym, dtype=complex)).real
    n = c.size
    return np.array([[c[(j - i) % n] for j in range(n)] for i in range(n)])


def ones_complement(n):
    """Orthonormal basis of the subspace orthogonal to the ones vector."""
    return scipy.linalg.null_space(np.ones((1, n)))


def dense_deflated_h2_static(prob, K):
    """Independent H2 oracle: one real Lyapunov solve on the 1-complement."""
    V = ones_complement(prob.n)
    A = V.T @ K @ V
    B = V.T
    C = np.vstack([prob.c @ V, prob.gamma * K @ V])
    return h2_norm_squared(StateSpace(A, B, C, np.zeros((C.shape[0], B.shape[1]))))


def dense_deflated_h2_dynamic(prob, K_ss):
    """Same oracle for a one-state-per-node controller realization."""
    n = prob.n
    V = ones_complement(n)
    m = n - 1
    Ak = V.T @ K_ss.A @ V
    Bk = V.T @ K_ss.B @ V
    Ck = V.T @ K_ss.C @ V
    A = np.block([[np.zeros((m, m)), Ck], [Bk, Ak]])
    B = np.vstack([V.T, np.zeros((m, n))])
    C = np.block(
        [
            [prob.c @ V, np.zeros((prob.c.shape[0], m))],
            [np.zeros((m, m)), prob.gamma * Ck],
        ]
    )
    return h2_norm_squared(StateSpace(A, B, C, np.zeros((C.shape[0], n))))


def test_measures_local_error():
    C = consensus_measures(4)["le"]
    assert np.allclose(C[0], [1.0, 0.0, 0.0, -1.0])
    assert np.allclose(C[2], [0.0, -1.0, 1.0, 0.0])
    assert np.allclose(C @ np.ones(4), 0.0)


def test_measures_average_deviation():
    C = consensus_measures(5)["ave"]
    assert np.allclose(C, np.eye(5) - np.ones((5, 5)) / 5)


def test_measures_long_range():
    C = consensus_measures(6)["lr"]
    assert np.allclose(C[1], [0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
    assert np.allclose(C @ np.ones(6), 0.0)


def test_difference_measures_match_scipy_circulant_bitwise():
    for n in range(3, 17):
        kinds = ("le", "lr") if n % 2 == 0 else ("le",)
        got = consensus_measures(n, kinds=kinds)
        for kind in kinds:
            first = np.zeros(n)
            first[0] = 1.0
            first[-1 if kind == "le" else n // 2] = -1.0
            want = scipy.linalg.circulant(first).T
            assert got[kind].dtype == want.dtype and got[kind].shape == want.shape
            assert got[kind].tobytes() == want.tobytes(), (n, kind)


def test_measures_default_kinds():
    assert set(consensus_measures(6)) == {"le", "ave", "lr"}
    assert set(consensus_measures(5)) == {"le", "ave"}
    with pytest.raises(OddNForLongRange):
        consensus_measures(5, kinds=("lr",))
    with pytest.raises(ValueError):
        consensus_measures(4, kinds=("bogus",))


def test_circulant_rank_of_measures():
    for n in (6, 8):
        m = consensus_measures(n)
        assert circulant_rank(m["le"]) == n - 1
        assert circulant_rank(m["ave"]) == n - 1
        # the long-range symbol 1 - (-1)^k vanishes on all even modes
        assert circulant_rank(m["lr"]) == n // 2
    assert circulant_rank(np.eye(5)) == 5
    assert circulant_rank(np.ones((4, 4)) / 4) == 1


def test_circulant_rank_rejects_noncirculant():
    with pytest.raises(NotCirculant):
        circulant_rank(np.diag([1.0, 2.0, 3.0]))
    # two rows off the cyclic pattern: the first is named
    C = scipy.linalg.circulant([2.0, -1.0, 0.0, 0.0, -1.0]).T
    C[2, 0] += 0.5
    C[4, 3] -= 0.5
    with pytest.raises(NotCirculant, match="^row 2 is not"):
        circulant_rank(C)


def test_problem_validation():
    C = consensus_measures(6, kinds=("ave",))["ave"]
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=3, gamma=1.0, c=C)  # b must stay below n/2
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=0, gamma=1.0, c=C)
    for gamma in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="control weight"):
            ConsensusProblem(n=6, b=1, gamma=gamma, c=C)
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=1, gamma=1.0, c=np.eye(6))  # row sums not zero
    with pytest.raises(NotCirculant):
        ConsensusProblem(n=3, b=1, gamma=1.0, c=np.array(
            [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]
        ))


def test_feasibility_infeasible_when_rank_large():
    for kind in ("le", "ave", "lr"):
        C = consensus_measures(8)[kind]
        if circulant_rank(C) <= 3:
            continue
        cert = sls_relative_feasibility(ConsensusProblem(n=8, b=1, gamma=1.0, c=C))
        assert cert.infeasible
        assert cert.rank > cert.threshold == 3
        # the pinned static value is the identity: 0/1 entries, unit row sums
        assert np.allclose(cert.witness, np.eye(8), atol=1e-8)
        assert np.allclose(cert.witness.sum(axis=1), 1.0, atol=1e-8)


def test_feasibility_long_range_fits_in_band():
    # the long-range symbol lives on the n/2 odd modes, which fit inside
    # the 2b+1 banded degrees of freedom once b >= 2 on eight agents
    for b in (2, 3):
        cert = sls_relative_feasibility(
            ConsensusProblem(n=8, b=b, gamma=1.0, c=consensus_measures(8)["lr"])
        )
        assert cert.verdict == "PotentiallyFeasible"
        assert cert.rank == 4
        W = cert.witness
        C = consensus_measures(8)["lr"]
        assert np.max(np.abs(C @ (np.eye(8) - W))) < 1e-8
        assert np.max(np.abs(W @ np.ones(8))) < 1e-8
        assert np.max(np.abs(W[~np.array(
            [[min((i - j) % 8, (j - i) % 8) <= b for j in range(8)] for i in range(8)]
        )])) == 0.0


def test_feasibility_small_symbol_support_is_solvable():
    sym = np.zeros(8)
    sym[[1, 7]] = 1.0
    C = circulant_from_symbol(sym)
    cert = sls_relative_feasibility(ConsensusProblem(n=8, b=1, gamma=1.0, c=C))
    assert cert.verdict == "PotentiallyFeasible"
    assert cert.rank == 2


def test_feasibility_full_band_support_is_unsolvable():
    # three active modes equal the banded freedom 2b+1 = 3 but include the
    # antipodal mode, which the one-hop band cannot reproduce
    sym = np.zeros(8)
    sym[[1, 4, 7]] = 1.0
    C = circulant_from_symbol(sym)
    cert = sls_relative_feasibility(ConsensusProblem(n=8, b=1, gamma=1.0, c=C))
    assert cert.infeasible
    assert cert.rank == 3
    assert cert.witness is None
    assert "unsolvable" in cert.proof_note


def test_static_gain_examples():
    Ks = static_consensus_gain(4)
    want = np.array(
        [
            [-2.0, 1.0, 0.0, 1.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [1.0, 0.0, 1.0, -2.0],
        ]
    )
    assert np.array_equal(Ks, want)
    Ks_real = static_gain_realization(4)
    assert Ks_real.n_states == 0
    assert np.array_equal(Ks_real.evaluate(2.0), Ks)
    # one empty state block per node: structured, and not network realizable
    # since the gain couples neighbours on both sides
    witness = check_realization_structure(Ks_real, StructurePattern.scalar(ring_graph(4)))
    assert witness.structured and not witness.network


def test_proper_approximation_examples():
    with pytest.raises(NonNegativeA):
        proper_approximation(4, 0.0)
    Ka = proper_approximation(4, -10.0)
    Ks = static_consensus_gain(4)
    assert np.allclose(Ka.evaluate(0.0), Ks, atol=1e-12)
    H = approximation_transfer(4, -10.0)
    for s in (0.0, 1.0, 2.0 + 1.0j):
        factor = 10.0 / (s + 10.0)
        assert np.allclose(Ka.evaluate(s), factor * Ks, atol=1e-12)
        assert np.allclose(H.evaluate(s), factor * Ks, atol=1e-12)


def test_h2_static_frozen_values():
    assert h2_deflated(ave_problem(4, 1, 1.0), static_consensus_gain(4)) == pytest.approx(
        4.625, abs=1e-12
    )
    assert h2_deflated(ave_problem(4, 1, 0.0), static_consensus_gain(4)) == pytest.approx(
        0.625, abs=1e-12
    )
    assert h2_deflated(ave_problem(3, 1, 0.0), static_consensus_gain(3)) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_h2_static_matches_quarter_sum_formula():
    # with gamma = 0 the per-mode cost reduces to 1/(4 (1 - cos))
    for n in (5, 6, 8):
        want = 0.25 * sum(
            1.0 / (1.0 - np.cos(2.0 * np.pi * k / n)) for k in range(1, n)
        )
        got = h2_deflated(ave_problem(n, 1, 0.0), static_consensus_gain(n))
        assert got == pytest.approx(want, abs=1e-9)


def test_h2_static_matches_dense_lyapunov():
    for n in (4, 6, 8):
        for gamma in (0.0, 1.0, 2.5):
            prob = ave_problem(n, 1, gamma)
            got = h2_deflated(prob, static_consensus_gain(n))
            want = dense_deflated_h2_static(prob, static_consensus_gain(n))
            assert got == pytest.approx(want, abs=1e-8)


def per_mode_static_h2(prob, K):
    """Deflated H2 of a static circulant gain, summed one mode at a time."""
    c, lam = np.fft.fft(prob.c[0]), np.fft.fft(K[0])
    total = 0.0
    for k in range(1, prob.n):
        total += (abs(c[k]) ** 2 + prob.gamma**2 * abs(lam[k]) ** 2) / (2.0 * abs(lam[k].real))
    return total


def test_h2_static_matches_per_mode_sum():
    # the array sum adds in another order than the loop: allow n rounding steps
    for n in (5, 8, 33, 200):
        K = static_consensus_gain(n) - 0.3 * np.eye(n) + 0.3 * np.ones((n, n)) / n
        for C in consensus_measures(n, kinds=("le", "ave")).values():
            prob = ConsensusProblem(n=n, b=1, gamma=1.7, c=C)
            want = per_mode_static_h2(prob, K)
            assert h2_deflated(prob, K) == pytest.approx(want, rel=n * np.finfo(float).eps)


def test_h2_of_realization_with_no_states_is_its_static_gain():
    for n in (3, 4, 8):
        K = static_consensus_gain(n)
        for C in consensus_measures(n, kinds=("le", "ave")).values():
            prob = ConsensusProblem(n=n, b=1, gamma=1.3, c=C)
            assert h2_deflated(prob, StateSpace.static(K)) == h2_deflated(prob, K)


def test_h2_static_local_error_measure():
    prob = ConsensusProblem(n=6, b=1, gamma=1.0, c=consensus_measures(6)["le"])
    got = h2_deflated(prob, static_consensus_gain(6))
    want = dense_deflated_h2_static(prob, static_consensus_gain(6))
    assert got == pytest.approx(want, abs=1e-8)


def test_h2_dynamic_frozen_values():
    prob = ave_problem(4, 1, 1.0)
    assert h2_deflated(prob, proper_approximation(4, -10.0)) == pytest.approx(
        4.775, abs=1e-9
    )
    assert h2_deflated(prob, proper_approximation(4, -100.0)) == pytest.approx(
        4.64, abs=1e-9
    )
    assert h2_deflated(prob, proper_approximation(4, -1000.0)) == pytest.approx(
        4.6265, abs=1e-9
    )


def test_h2_dynamic_matches_dense_lyapunov():
    for n in (4, 8):
        for a in (-10.0, -100.0):
            prob = ave_problem(n, 1, 1.0)
            K = proper_approximation(n, a)
            assert h2_deflated(prob, K) == pytest.approx(
                dense_deflated_h2_dynamic(prob, K), abs=1e-8
            )


def test_h2_rejects_nonrelative_controller():
    prob = ave_problem(4, 1, 1.0)
    with pytest.raises(ModeZeroDetectable):
        h2_deflated(prob, -np.eye(4))
    ctrl = StateSpace(-np.eye(4), np.eye(4), np.eye(4), np.zeros((4, 4)))
    with pytest.raises(ModeZeroDetectable):
        h2_deflated(prob, ctrl)


def test_h2_rejects_unstable_modes():
    prob = ave_problem(4, 1, 1.0)
    with pytest.raises(UnstableNonzeroMode):
        h2_deflated(prob, -static_consensus_gain(4))  # positive feedback
    with pytest.raises(UnstableNonzeroMode):
        h2_deflated(prob, np.zeros((4, 4)))  # no consensus drive at all


def test_h2_rejects_a_controller_of_the_wrong_size():
    # numpy used to broadcast a 2-agent gain against the 4-agent measure
    prob = ave_problem(4, 1, 1.0)
    Ka = proper_approximation(4, -10.0)
    pair = np.array([[-1.0, 1.0], [1.0, -1.0]])
    wrong = [
        pair,
        static_consensus_gain(3),
        StateSpace.static(pair),
        StateSpace(Ka.A[:2, :2], Ka.B[:2], Ka.C[:, :2], Ka.D),  # 2 states for 4 agents
    ]
    for K in wrong:
        with pytest.raises(ValueError, match="4 x 4"):
            h2_deflated(prob, K)
    for K in (static_consensus_gain(4).tolist(), tf_of(Ka)):
        with pytest.raises(ValueError, match="gain array or a StateSpace"):
            h2_deflated(prob, K)


def test_gap_demonstration_report():
    report = gap_demonstration(4, 1, 1.0)
    assert report.certificate.infeasible
    assert report.ks_h2_squared == pytest.approx(4.625, abs=1e-9)
    gaps = [
        abs(report.ka_h2_squared[a] - report.ks_h2_squared)
        for a in (-10.0, -100.0, -1000.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_gap_demonstration_stays_in_bounded_memory():
    # the closed loop of K_a has 2n states; nothing else of that size is
    # held beside it, and no pass grows with the square of the states per
    # input column
    n = 1024
    tracemalloc.start()
    try:
        report = gap_demonstration(n, 1, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.structure == gap_demonstration(8, 1, 1.0).structure
    assert peak <= 7 * 8 * (2 * n) ** 2


def test_gap_demonstration_structure_flags():
    flags = gap_demonstration(4, 1, 1.0).structure
    # n = 64 used to fail in rational conversion; the flags do not depend on n
    for n in (8, 64):
        assert gap_demonstration(n, 1, 1.0).structure == flags
    assert flags == {
        "ksRealizationStructured": True,
        "ksNetworkRealizable": False,
        "ksTFStructured": True,
        "kaRealizationStructured": True,
        "kaNetworkRealizable": True,
        "kaTFStructured": True,
        "ksClosedLoopTFStructured": False,
        "kaClosedLoopTFStructured": False,
    }


def test_gap_report_json_schema():
    doc = gap_demonstration(8, 1, 1.0).to_json()
    assert set(doc) == {
        "verdict",
        "rank",
        "threshold",
        "witnessRowSums",
        "h2Values",
        "structureWitnesses",
    }
    assert doc["verdict"] == "Infeasible"
    assert doc["rank"] == 7
    assert doc["threshold"] == 3
    assert np.allclose(doc["witnessRowSums"], 1.0)
    assert set(doc["h2Values"]) == {"ks", "ka"}
    assert set(doc["h2Values"]["ka"]) == {"-10.0", "-100.0", "-1000.0"}


def test_gap_small_ring_infeasible_without_unique_witness():
    # on four agents the average measure's rank equals the band freedom,
    # so infeasibility comes from the unsolvable joint static system
    doc = gap_demonstration(4, 1, 1.0).to_json()
    assert doc["verdict"] == "Infeasible"
    assert doc["rank"] == 3
    assert doc["threshold"] == 3
    assert doc["witnessRowSums"] is None


def test_certificate_json_round_values():
    cert = sls_relative_feasibility(ave_problem(8, 1, 1.0))
    doc = cert.to_json()
    assert doc["verdict"] == "Infeasible"
    assert doc["rank"] == 7
    assert doc["threshold"] == 3
    assert np.allclose(doc["witnessRowSums"], 1.0)


def test_certificate_json_writes_taps_for_large_rings():
    # up to DENSE_WITNESS_MAX_N agents the witness is written densely
    doc = sls_relative_feasibility(ave_problem(DENSE_WITNESS_MAX_N, 1, 1.0)).to_json()
    assert "witnessTaps" not in doc and len(doc["witness"]) == DENSE_WITNESS_MAX_N
    n, b = 1024, 1
    for cert in (
        sls_relative_feasibility(ave_problem(n, b, 1.0)),
        sls_relative_feasibility(
            ConsensusProblem(n=n, b=b, gamma=1.0, c=consensus_measures(n, kinds=("le",))["le"])
        ),
    ):
        doc = cert.to_json()
        assert "witness" not in doc
        taps = doc["witnessTaps"]
        assert len(taps) == 2 * b + 1
        # W[(i + k) % n, i] = w_k for k = -b ... b
        W = np.zeros((n, n))
        for k, w in zip(range(-b, b + 1), taps):
            W += w * np.roll(np.eye(n), k, axis=0)
        assert np.array_equal(W, cert.witness)
        assert doc["witnessRowSums"] == [float(v) for v in cert.witness.sum(axis=1)]


def per_mode_lyapunov_h2(prob, K):
    """Deflated H2 of a one-state-per-node circulant controller, one mode at a time.

    Mode k has state (x, xi) with A = [[d, k], [b, a]], input (1, 0) and
    outputs (c x, gamma (d x + k xi)); each mode is one scipy Lyapunov solve.
    """
    a, b, k, d, c = (np.fft.fft(M[0]) for M in (K.A, K.B, K.C, K.D, prob.c))
    total = 0.0
    for m in range(1, prob.n):
        A = np.array([[d[m], k[m]], [b[m], a[m]]])
        C = np.array([[c[m], 0.0], [prob.gamma * d[m], prob.gamma * k[m]]])
        Q = scipy.linalg.solve_continuous_lyapunov(A.conj().T, -C.conj().T @ C)
        total += Q[0, 0].real
    return total


def test_h2_dynamic_with_feedthrough_matches_per_mode_lyapunov():
    # a circulant controller with complex symbols and a relative feedthrough
    n = 7
    rng = np.random.default_rng(31)
    shift = np.roll(np.eye(n), 1, axis=1)
    A = -2.0 * np.eye(n) + 0.4 * shift - 0.1 * shift.T
    Ks = static_consensus_gain(n)
    K = StateSpace(A, Ks @ shift, np.eye(n) + 0.3 * shift, 0.5 * Ks)
    for kind in ("ave", "le"):
        prob = ConsensusProblem(
            n=n, b=1, gamma=float(rng.uniform(0.5, 2.0)), c=consensus_measures(n)[kind]
        )
        want = per_mode_lyapunov_h2(prob, K)
        assert h2_deflated(prob, K) == pytest.approx(want, rel=1e-11)


def test_h2_unstable_mode_is_named():
    # feedthrough (or static gain) symbol -1 on every mode but 2 and 4,
    # where it is +1
    n = 6
    d = -np.ones(n)
    d[0] = 0.0
    d[2] = d[4] = 1.0
    K = StateSpace(-np.eye(n), np.zeros((n, n)), np.zeros((n, n)), circulant_from_symbol(d))
    for gain in (K, circulant_from_symbol(d)):
        with pytest.raises(UnstableNonzeroMode, match="mode 2 "):
            h2_deflated(ave_problem(n, 1, 1.0), gain)


def ring_column_support(n, b, col):
    """Indices within ring distance b of a column, in cyclic order."""
    return [(col + off) % n for off in range(-b, b + 1)]


def dense_feasibility(prob):
    """Reference certificate from dense systems over every banded entry.

    Above the rank threshold each column is solved on its own; otherwise
    one joint least-squares system holds C phi = C for every column and a
    zero sum for every row, in n (2b + 1) unknowns.
    """
    n, b = prob.n, prob.b
    C = prob.c
    r = circulant_rank(C)
    threshold = 2 * b + 1
    if r > threshold:
        witness = np.zeros((n, n))
        for col in range(n):
            support = ring_column_support(n, b, col)
            sol, _, rank_t, _ = np.linalg.lstsq(C[:, support], C[:, col], rcond=None)
            if rank_t < threshold:
                raise ConsistencyCheckFailed("banded columns rank deficient")
            witness[support, col] = sol
        note = (
            f"rank(C) = {r} exceeds the {threshold} banded degrees of freedom per "
            "column, so the static constraint C(I - phi_u(0)) = 0 pins phi_u(0) to "
            "the identity; its unit row sums contradict the zero row sums required "
            "of a relative controller."
        )
        return FeasibilityCertificate("Infeasible", threshold, r, witness, note)
    unknowns = [(j, i) for i in range(n) for j in ring_column_support(n, b, i)]
    index = {pair: k for k, pair in enumerate(unknowns)}
    rows, rhs = [], []
    for i in range(n):
        for row in range(n):
            coeffs = np.zeros(len(unknowns))
            for j in ring_column_support(n, b, i):
                coeffs[index[(j, i)]] = C[row, j]
            rows.append(coeffs)
            rhs.append(C[row, i])
    for row in range(n):
        coeffs = np.zeros(len(unknowns))
        for (j, i), k in index.items():
            if j == row:
                coeffs[k] = 1.0
        rows.append(coeffs)
        rhs.append(0.0)
    A, y = np.array(rows), np.array(rhs)
    sol = np.linalg.lstsq(A, y, rcond=None)[0]
    residual = float(np.max(np.abs(A @ sol - y)))
    if residual <= 1e-8 * max(np.max(np.abs(C)), 1.0):
        witness = np.zeros((n, n))
        for (j, i), k in index.items():
            witness[j, i] = sol[k]
        note = (
            f"rank(C) = {r} fits within the banded degrees of freedom; the static "
            "constraints admit a solution, so this necessary test cannot rule the "
            "design out."
        )
        return FeasibilityCertificate("PotentiallyFeasible", threshold, r, witness, note)
    note = (
        "the static system combining the banded support, zero row sums and "
        f"C(I - phi_u(0)) = 0 is unsolvable (best residual {residual:.2e})."
    )
    return FeasibilityCertificate("Infeasible", threshold, r, None, note)


def assert_valid_witness(C, W, b, row_sum):
    n = C.shape[0]
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    assert np.max(np.abs(W[np.minimum(dist, n - dist) > b]), initial=0.0) <= 1e-8
    assert np.max(np.abs(C @ (np.eye(n) - W))) <= 1e-8
    assert np.max(np.abs(W.sum(axis=1) - row_sum)) <= 1e-8


def assert_same_certificate(prob):
    got, want = sls_relative_feasibility(prob), dense_feasibility(prob)
    assert (got.verdict, got.rank, got.threshold, got.proof_note) == (
        want.verdict,
        want.rank,
        want.threshold,
        want.proof_note,
    )
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        scale = max(np.max(np.abs(want.witness)), 1.0)
        assert np.max(np.abs(got.witness - want.witness)) <= 1e-9 * scale
        row_sum = 1.0 if want.rank > want.threshold else 0.0
        for W in (got.witness, want.witness):
            assert_valid_witness(prob.c, W, prob.b, row_sum)


def test_feasibility_matches_dense_reference_on_measures():
    for n in range(3, 17):
        for b in range(1, (n + 1) // 2):
            for C in consensus_measures(n).values():
                assert_same_certificate(ConsensusProblem(n=n, b=b, gamma=1.0, c=C))


@st.composite
def banded_problems(draw):
    """Circulant measures whose symbol is supported on at most b + 1 frequency pairs."""
    n = draw(st.integers(3, 24))
    b = draw(st.integers(1, (n - 1) // 2))
    freqs = draw(
        st.lists(st.integers(1, n // 2), min_size=1, max_size=min(b + 1, n // 2), unique=True)
    )
    sym = np.zeros(n, dtype=complex)
    for k in freqs:
        mag = draw(st.floats(0.1, 2.0))
        phase = 0.0 if 2 * k == n else draw(st.floats(0.0, 2.0 * np.pi))
        sym[k] = mag * np.exp(1j * phase)
        sym[n - k] = np.conj(sym[k])
    C = scipy.linalg.circulant(np.fft.ifft(sym).real)
    return ConsensusProblem(n=n, b=b, gamma=1.0, c=C)


@settings(max_examples=80, deadline=None)
@given(banded_problems())
def test_feasibility_matches_dense_reference(prob):
    assert_same_certificate(prob)


@pytest.mark.parametrize("kind", ["rank2", "ave"])
def test_feasibility_memory_is_bounded_at_4096_agents(kind):
    # the dense joint system for the rank-2 measure would need about 1.6 TB
    n = 4096
    if kind == "rank2":
        col = 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) / n  # symbol 1 at +-1
        C, want = scipy.linalg.circulant(col), "PotentiallyFeasible"
    else:
        C, want = consensus_measures(n, kinds=("ave",))["ave"], "Infeasible"
    prob = ConsensusProblem(n=n, b=1, gamma=1.0, c=C)
    tracemalloc.start()
    try:
        cert = sls_relative_feasibility(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == want
    assert peak <= 3 * 8 * n**2
    assert cert.witness.shape == (n, n)


@pytest.mark.parametrize("gamma", [1e200, 1e308])
def test_a_static_cost_past_the_float_range_is_an_error(gamma):
    # gamma**2 of a Python float raised OverflowError here; the static
    # branch now refuses the cost as the dynamic one does, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: h2_deflated(ave_problem(4, 1, gamma), static_consensus_gain(4)),
            lambda: gap_demonstration(8, 1, gamma),
        ):
            with pytest.raises(ValueError, match="^the result holds a number that is not finite$"):
                call()
    # a large but representable cost is returned
    assert h2_deflated(ave_problem(4, 1, 1e150), static_consensus_gain(4)) == pytest.approx(4.0e300)
