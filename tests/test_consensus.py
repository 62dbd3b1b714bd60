"""Ring consensus: measures, feasibility certificates, deflated H2."""

import numpy as np
import pytest
import scipy.linalg

from locrel.consensus import (
    ConsensusProblem,
    FeasibilityCertificate,
    approximation_transfer,
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
    ModeZeroDetectable,
    NonNegativeA,
    NotCirculant,
    OddNForLongRange,
    UnstableNonzeroMode,
)
from locrel.statespace import StateSpace, h2_norm_squared


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


def test_problem_validation():
    C = consensus_measures(6, kinds=("ave",))["ave"]
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=3, gamma=1.0, c=C)  # b must stay below n/2
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=0, gamma=1.0, c=C)
    with pytest.raises(ValueError):
        ConsensusProblem(n=6, b=1, gamma=-0.5, c=C)
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
    assert np.allclose(static_gain_realization(4).evaluate(2.0), Ks)


def test_proper_approximation_examples():
    with pytest.raises(NonNegativeA):
        proper_approximation(4, 0.0)
    with pytest.raises(NonNegativeA):
        approximation_transfer(4, 2.0)
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


def test_gap_demonstration_report():
    report = gap_demonstration(4, 1, 1.0)
    assert report.certificate.infeasible
    assert report.ks_h2_squared == pytest.approx(4.625, abs=1e-9)
    gaps = [
        abs(report.ka_h2_squared[a] - report.ks_h2_squared)
        for a in (-10.0, -100.0, -1000.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


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
    # feedthrough symbol -1 on every mode but 2 and 4, where it is +1
    n = 6
    d = -np.ones(n)
    d[0] = 0.0
    d[2] = d[4] = 1.0
    K = StateSpace(-np.eye(n), np.zeros((n, n)), np.zeros((n, n)), circulant_from_symbol(d))
    with pytest.raises(UnstableNonzeroMode, match="mode 2 "):
        h2_deflated(ave_problem(n, 1, 1.0), K)
