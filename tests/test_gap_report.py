"""The gap report and its H2 scores against the routes they replaced.

``h2_deflated`` takes every symbol from one FFT and decides mode stability
from the loop denominators; ``gap_demonstration`` builds the ring, K_s and
each approximation once.  The earlier routes are kept here as references:
every float must match them bit for bit, every error in class and message,
and every report byte for byte.
"""

import json

import numpy as np
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locrel.graphs as graphs
from locrel.consensus import (
    ConsensusProblem,
    GapReport,
    _check_circulant,
    consensus_measures,
    gap_demonstration,
    h2_deflated,
    proper_approximation,
    sls_relative_feasibility,
    static_consensus_gain,
    static_gain_realization,
)
from locrel.errors import ModeZeroDetectable, NotCirculant, UnstableNonzeroMode
from locrel.graphs import StructurePattern, b_hops, ring_graph
from locrel.sls import Plant, closed_loops_of
from locrel.statespace import StateSpace, batch_h2_squared
from locrel.structure import check_realization_structure, is_tf_structured
from locrel.tolerances import HYPOTHESIS, negligible

# -- the earlier routes ------------------------------------------------------------


def reference_check_circulant(C):
    """Every row against row 0 shifted, the first bad row found on every call."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]
    if C.shape != (n, n):
        raise NotCirculant("matrix is not square")
    scale = max(C.max(), -C.min(), 1.0)
    if not np.isfinite(scale):
        raise ValueError("a circulant must have finite entries")
    shifts = np.lib.stride_tricks.sliding_window_view(np.tile(C[0], 2), n)[n:0:-1]
    gap = C - shifts
    np.abs(gap, out=gap)
    bad = np.flatnonzero(gap.max(axis=1) > HYPOTHESIS * scale)
    if bad.size:
        raise NotCirculant(f"row {bad[0]} is not a cyclic shift of row 0")
    return C


def reference_symbols(M):
    return np.fft.fft(reference_check_circulant(M)[0])


def reference_h2_deflated(prob, K):
    """One FFT per block, and the eigenvalues of every 2 x 2 mode loop."""
    n, gamma = prob.n, prob.gamma
    c_sym = np.fft.fft(prob.c[0])
    if isinstance(K, StateSpace) and K.n_states == 0:
        K = K.D
    if not isinstance(K, (StateSpace, np.ndarray)):
        raise ValueError(f"a controller is a gain array or a StateSpace, not {type(K).__name__}")
    blocks = (K.A, K.B, K.C, K.D) if isinstance(K, StateSpace) else (K,)
    bad = [M.shape for M in blocks if M.shape != (n, n)]
    if bad:
        raise ValueError(f"the controller of {n} agents needs {n} x {n} blocks, not {bad[0]}")
    if isinstance(K, StateSpace):
        a_sym, b_sym, k_sym, d_sym = (reference_symbols(M) for M in blocks)
        k_ref = max(np.abs(K.B).max(), np.abs(K.D).max())
        if not negligible(max(abs(b_sym[0]), abs(d_sym[0])), k_ref, HYPOTHESIS):
            raise ModeZeroDetectable(
                "controller is not relative: its average mode reacts to the state"
            )
        a, b, k, d = (sym[1:] for sym in (a_sym, b_sym, k_sym, d_sym))
        A_cl = np.stack((np.stack((d, k), -1), np.stack((b, a), -1)), -2)
        unstable = np.max(np.linalg.eigvals(A_cl).real, axis=1) >= -HYPOTHESIS
        if np.any(unstable):
            mode = 1 + int(np.argmax(unstable))
            raise UnstableNonzeroMode(f"closed-loop mode {mode} is not Hurwitz")
        c = c_sym[1:]
        den = np.stack((a * d - k * b, -(a + d), np.ones_like(a)), axis=1)
        num = np.stack(
            (np.stack((-c * a, c), axis=1), gamma * np.stack((k * b - d * a, d), axis=1)),
            axis=1,
        )
        return float(np.sum(batch_h2_squared(num, den)))
    lam = reference_symbols(K)
    if not negligible(lam[0], lam, HYPOTHESIS):
        raise ModeZeroDetectable("static controller is not relative")
    lam, c = lam[1:], c_sym[1:]
    unstable = lam.real >= -HYPOTHESIS
    if np.any(unstable):
        mode = 1 + int(np.argmax(unstable))
        raise UnstableNonzeroMode(f"closed-loop mode {mode} is not Hurwitz")
    cost = (np.abs(c) ** 2 + gamma**2 * np.abs(lam) ** 2) / (2.0 * np.abs(lam.real))
    return float(np.sum(cost))


def reference_gap_report(n, b, gamma):
    """The report composed as before: a ring per gain, each approximation built twice."""
    prob = ConsensusProblem(n=n, b=b, gamma=gamma, c=consensus_measures(n, kinds=("ave",))["ave"])
    certificate = sls_relative_feasibility(prob)
    poles = (-10.0, -100.0, -1000.0)
    ks_value = reference_h2_deflated(prob, static_consensus_gain(n))
    ka_values = {a: reference_h2_deflated(prob, proper_approximation(n, a)) for a in poles}
    ring = ring_graph(n)
    pattern = StructurePattern.scalar(ring)
    cl_pattern = StructurePattern.scalar(b_hops(ring, b))
    ks_real = static_gain_realization(n)
    ka_real = proper_approximation(n, poles[0])
    ks_struct = check_realization_structure(ks_real, pattern)
    ka_struct = check_realization_structure(ka_real, pattern)
    agents = Plant(np.zeros((n, n)), np.eye(n), np.eye(n))
    structure = {
        "ksRealizationStructured": ks_struct.structured,
        "ksNetworkRealizable": ks_struct.network,
        "ksTFStructured": is_tf_structured(ks_real, pattern),
        "kaRealizationStructured": ka_struct.structured,
        "kaNetworkRealizable": ka_struct.network,
        "kaTFStructured": is_tf_structured(ka_real, pattern),
        "ksClosedLoopTFStructured": is_tf_structured(closed_loops_of(agents, ks_real).phi_x, cl_pattern),
        "kaClosedLoopTFStructured": is_tf_structured(closed_loops_of(agents, ka_real).phi_x, cl_pattern),
    }
    return GapReport(certificate, ks_value, ka_values, structure)


def outcome(fn, *args):
    """The answer as bytes, or the class and message of the error raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # the error and its message are part of the answer
        return type(exc), str(exc)
    out = np.asarray(out)
    return out.dtype, out.shape, out.tobytes()


# -- h2_deflated and the circulant check ------------------------------------------


def circulant(row):
    return scipy.linalg.circulant(row).T  # row i is row 0 shifted right by i


def relative_circulant(rng, n):
    """A circulant with zero row sums: its mode-0 symbol is zero."""
    row = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
    row[0] -= row.sum()
    return circulant(row)


@st.composite
def h2_cases(draw):
    """A measure and a controller on n = 3...40 agents drawn from one seed.

    A static gain is -R R' plus a skew circulant, whose nonzero modes are
    stable, plus sigma times the ring Laplacian, which makes some of them
    unstable; it may come as a realization with no states.  A realization
    has a circulant A near -alpha I and relative circulant B, C and D, so
    its loop modes fall on both sides of the Hurwitz margin.  A draw may
    then damage one block: a nonzero mode-0 symbol, one entry moved off the
    circulant, a NaN or an infinity, or a column dropped.
    """
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ave", "le", "random"]))
    c = relative_circulant(rng, n) if kind == "random" else consensus_measures(n, kinds=(kind,))[kind]
    prob = ConsensusProblem(n=n, b=1, gamma=draw(st.sampled_from([0.0, 1.0, 2.5])), c=c)
    static = draw(st.booleans())
    if static:
        R, skew = relative_circulant(rng, n), circulant(rng.standard_normal(n))
        sigma = draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
        blocks = [-R @ R.T + (skew - skew.T) - sigma * static_consensus_gain(n)]
    else:
        alpha = draw(st.sampled_from([0.5, 2.0, 10.0, -0.5]))
        blocks = [-alpha * np.eye(n) + 0.3 * circulant(rng.standard_normal(n))]
        blocks += [relative_circulant(rng, n) for _ in range(3)]
        if draw(st.booleans()):
            blocks[3] = -blocks[3] @ blocks[3].T
    which = draw(st.integers(0, len(blocks) - 1))
    damage = draw(st.sampled_from(["none", "none", "mode0", "shift", "nan", "inf", "shape"]))
    M = blocks[which].copy()
    if damage == "mode0":
        M += draw(st.sampled_from([1e-12, 1e-6, 0.5])) * np.eye(n)
    elif damage == "shift":
        i, j = rng.integers(1, n), rng.integers(0, n)
        M[i, j] += draw(st.sampled_from([1e-13, 1e-6, 1.0])) * max(1.0, np.abs(M).max())
    elif damage in ("nan", "inf"):
        M[rng.integers(0, n), rng.integers(0, n)] = np.nan if damage == "nan" else -np.inf
    elif damage == "shape":
        M = M[:, : n - 1]
    blocks[which] = M
    if static and draw(st.booleans()):
        return prob, blocks, blocks[0]
    # the constructor rejects NaN and misshapen blocks: set them afterwards
    K = StateSpace.static(np.zeros((n, n))) if static else StateSpace(*[np.zeros((n, n))] * 4)
    if static:
        K.D = blocks[0]
    else:
        K.A, K.B, K.C, K.D = blocks
    return prob, blocks, K


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(h2_cases())
def test_h2_deflated_matches_the_per_block_route(case):
    prob, blocks, K = case
    for M in blocks:
        assert outcome(_check_circulant, M) == outcome(reference_check_circulant, M)
    assert outcome(h2_deflated, prob, K) == outcome(reference_h2_deflated, prob, K)


def test_h2_cases_reach_every_outcome():
    # the draws above score, and raise each error the routes can raise
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(h2_cases())
    def record(case):
        prob, _, K = case
        got = outcome(reference_h2_deflated, prob, K)
        seen.add(got[0] if isinstance(got[0], type) else float)

    record()
    assert seen >= {float, ModeZeroDetectable, UnstableNonzeroMode, NotCirculant, ValueError}


def test_check_circulant_names_the_first_bad_row():
    C = circulant([2.0, -1.0, 0.0, 0.0, -1.0])
    C[3, 1] += 1.0
    C[4, 0] += 2.0  # the first bad row is named, not the worst
    for check in (_check_circulant, reference_check_circulant):
        assert outcome(check, C) == (NotCirculant, "row 3 is not a cyclic shift of row 0")
    assert outcome(_check_circulant, [[1.0, 2.0]]) == (NotCirculant, "matrix is not square")
    # a list, an integer array and a 1-D row are read as 2-D floats
    ring = static_consensus_gain(6)
    for C in (ring, ring.astype(int), ring.tolist(), ring[0], np.float32(ring)):
        assert outcome(_check_circulant, C) == outcome(reference_check_circulant, C)


# -- the report --------------------------------------------------------------------


def test_gap_report_matches_the_composition_it_replaced():
    # byte-identical JSON for n = 4...64, every valid b in {1, 2}, gamma in {0, 1}
    for n in range(4, 65):
        for b in (1, 2):
            if b >= n / 2:
                continue
            for gamma in (0.0, 1.0):
                got = json.dumps(gap_demonstration(n, b, gamma).to_json())
                assert got == json.dumps(reference_gap_report(n, b, gamma).to_json()), (n, b, gamma)


def test_gap_report_builds_two_graphs(monkeypatch):
    # the ring and its b-hop graph; the ring used to be built once per gain
    calls = []
    init = graphs.Graph.__init__

    def counting(self, adjacency):
        calls.append(1)
        init(self, adjacency)

    monkeypatch.setattr(graphs.Graph, "__init__", counting)
    gap_demonstration(16, 2, 1.0)
    assert len(calls) == 2


def test_h2_deflated_decides_mode_stability_once(monkeypatch):
    # the mode check and the batched H2 solve share one _root_abscissa call
    import locrel.consensus as consensus
    import locrel.statespace as statespace

    calls = []
    original = statespace._root_abscissa

    def counting(den):
        calls.append(den.shape[0])
        return original(den)

    monkeypatch.setattr(consensus, "_root_abscissa", counting)
    monkeypatch.setattr(statespace, "_root_abscissa", counting)
    for n in (8, 32):
        prob = ConsensusProblem(n=n, b=1, gamma=1.0, c=consensus_measures(n, kinds=("ave",))["ave"])
        K = proper_approximation(n, -10.0)
        calls.clear()
        value = h2_deflated(prob, K)
        assert calls == [n - 1]
        assert value == reference_h2_deflated(prob, K)
