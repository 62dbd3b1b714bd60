"""Consensus over a ring: feasibility certificates and deflated H2 cost.

All agents share the scalar integrator dx_i = u_i + w_i.  The designer
asks for a relative controller whose closed loops respect a b-hop ring
locality pattern while regulating a circulant consensus measure C with
zero row sums.  A rank condition on C decides infeasibility through the
static value of the control closed loop; performance of the unlocalized
designs is scored by an H2 norm with the undetectable average mode
removed through the DFT.  The gap report judges the locality of their
state closed loops on the views ``sls.closed_loops_of`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    ModeZeroDetectable,
    NonNegativeA,
    NotCirculant,
    OddNForLongRange,
    UnstableNonzeroMode,
)
from .graphs import Partition, StructurePattern, b_hops, laplacian, ring_graph
from .sls import Plant, closed_loops_of
from .statespace import StateSpace, _batch_h2_squared, _root_abscissa
from .structure import check_realization_structure, is_tf_structured
from .tolerances import HYPOTHESIS, MATCH, ZERO, negligible

# above this many agents a banded circulant witness is written to JSON as
# its 2b + 1 taps (``witnessTaps``) instead of n x n entries (``witness``)
DENSE_WITNESS_MAX_N = 64


def _check_circulant(C):
    if type(C) is not np.ndarray or C.ndim != 2 or C.dtype != float:
        C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]
    if C.shape != (n, n):
        raise NotCirculant("matrix is not square")
    scale = max(C.max(), -C.min(), 1.0)
    if not np.isfinite(scale):
        raise ValueError("a circulant must have finite entries")
    # row i of a circulant is row 0 shifted right by i, which is the window
    # starting at n - i of row 0 written twice: a view that steps back one
    # entry per row
    twice = np.concatenate((C[0], C[0]))
    step = twice.itemsize
    gap = C - np.ndarray((n, n), float, twice, n * step, (-step, step))
    np.abs(gap, out=gap)
    if gap.max() > HYPOTHESIS * scale:
        bad = np.argmax(gap.max(axis=1) > HYPOTHESIS * scale)
        raise NotCirculant(f"row {bad} is not a cyclic shift of row 0")
    return C


def _symbol_rank(symbol):
    """Number of DFT symbol values above ZERO of the largest (or 1)."""
    mags = np.abs(symbol)
    return int(np.count_nonzero(mags > ZERO * max(mags.max(), 1.0)))


def circulant_rank(C):
    """Rank of a circulant matrix counted through its DFT symbol."""
    return _symbol_rank(np.fft.fft(_check_circulant(C)[0]))


def _difference_measure(n, shift):
    """Circulant measure whose row i reads x_i - x_{i - shift}, indices mod n."""
    out = np.eye(n)
    rows = np.arange(n)
    out[rows, (rows - shift) % n] = -1.0
    return out


def consensus_measures(n, kinds=None):
    """Standard consensus measures on n agents.

    Returns a dict with any of:
      ``le``  -- local error, row i reads x_i - x_{i-1};
      ``ave`` -- deviation from average, I - (1/n) 1 1';
      ``lr``  -- long-range deviation, row i reads x_i - x_{i-n/2}
                 (requires even n).
    """
    _require_agents(n)
    if kinds is None:
        kinds = ("le", "ave", "lr") if n % 2 == 0 else ("le", "ave")
    out = {}
    for kind in kinds:
        if kind == "le":
            out["le"] = _difference_measure(n, 1)
        elif kind == "ave":
            ave = np.full((n, n), -1.0 / n)
            ave[np.diag_indices(n)] += 1.0
            out["ave"] = ave
        elif kind == "lr":
            if n % 2 != 0:
                raise OddNForLongRange(
                    "the long-range deviation measure needs an even agent count"
                )
            out["lr"] = _difference_measure(n, n // 2)
        else:
            raise ValueError(f"unknown measure kind {kind!r}")
    return out


def _require_agents(n):
    """Raise ValueError unless there are at least 3 agents."""
    if n < 3:
        raise ValueError("need at least 3 agents")


def _require_control_weight(gamma):
    """Raise ValueError unless the control weight gamma is finite and nonnegative."""
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"control weight must be finite and nonnegative, not {gamma}")


@dataclass(frozen=True)
class ConsensusProblem:
    """Relative consensus design problem on a b-local ring.

    Frozen, and its measure read-only, so the checks of the constructor
    hold for the problem's lifetime.

    Parameters
    ----------
    n : int
        Number of agents (at least 3).
    b : int
        Locality radius; closed loops may couple agents at ring distance
        at most b, with 1 <= b < n/2.
    gamma : float
        Control effort weight in the performance output (finite, nonnegative).
    c : ndarray
        Circulant consensus measure with zero row sums.
    """

    n: int
    b: int
    gamma: float
    c: np.ndarray

    def __post_init__(self):
        _require_agents(self.n)
        if not (1 <= self.b < self.n / 2):
            raise ValueError("locality radius must satisfy 1 <= b < n/2")
        _require_control_weight(self.gamma)
        c = _check_circulant(self.c).copy()
        if c.shape[0] != self.n:
            raise ValueError("measure size must match the agent count")
        if not negligible(c @ np.ones(self.n), c, HYPOTHESIS):
            raise ValueError("consensus measure must have zero row sums")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


@dataclass
class FeasibilityCertificate:
    """Outcome of a locality feasibility test.

    ``witness`` holds the static control closed-loop value forced (or
    allowed) by the constraints at s = 0 when available.  When it is a
    banded circulant, ``witness_taps`` holds its taps w_-b ... w_b, with
    witness[(i + k) % n, i] = w_k.
    """

    verdict: str
    threshold: int
    rank: Optional[int] = None
    witness: Optional[np.ndarray] = None
    proof_note: str = ""
    excluded_offsets: Optional[list] = None
    divergent_term: Optional[str] = None
    witness_taps: Optional[np.ndarray] = None

    @property
    def infeasible(self):
        return self.verdict == "Infeasible"

    def to_json(self):
        data = {
            "verdict": self.verdict,
            "threshold": self.threshold,
            "proofNote": self.proof_note,
        }
        if self.rank is not None:
            data["rank"] = self.rank
        if self.witness is not None:
            data["witnessRowSums"] = [float(v) for v in self.witness.sum(axis=1)]
            if self.witness_taps is not None and len(self.witness) > DENSE_WITNESS_MAX_N:
                data["witnessTaps"] = [float(v) for v in self.witness_taps]
            else:
                data["witness"] = [[float(v) for v in row] for row in self.witness]
        if self.excluded_offsets is not None:
            data["excludedOffsets"] = [list(map(int, o)) for o in self.excluded_offsets]
            data["excludedCount"] = len(self.excluded_offsets)
        if self.divergent_term is not None:
            data["divergentTerm"] = self.divergent_term
        return data


def _banded_circulant(n, taps):
    """Circulant W with W[(i + off) % n, i] = taps[off + b] for |off| <= b."""
    b = (len(taps) - 1) // 2
    W = np.zeros((n, n))
    cols = np.arange(n)
    W[(cols + np.arange(-b, b + 1)[:, None]) % n, cols] = taps[:, None]
    return W


def sls_relative_feasibility(prob):
    """Static-value feasibility test for the localized relative design.

    Any achievable control closed loop that is both relative and b-local
    must satisfy, at s = 0: support inside the b-hop band, zero row sums,
    and C (I - phi_u(0)) = 0.  When rank(C) exceeds 2b + 1 the banded
    columns of C are linearly independent, which forces phi_u(0) = I and
    contradicts the zero row sums: the design is infeasible.  Otherwise
    the joint linear system is solved; solvability keeps the design
    potentially feasible (the test is only necessary).

    The constraints are invariant under a cyclic shift of the agents, so
    the minimum-norm least-squares solution is a banded circulant W and
    only its 2b + 1 taps w_off are unknown.  In frequency, C (W - I) has
    symbol c_k (W_k - 1) with W_k = sum_off w_off exp(-2 pi i k off / n),
    and its Frobenius norm is the 2-norm of that symbol; the n equal row
    sums of W add the equation sqrt(n) W_0 = 0.  One real least-squares
    solve of 2n + 1 equations in 2b + 1 taps replaces the dense system, so
    the work beyond building the n x n witness is O(n b).
    """
    n, b = prob.n, prob.b
    C = prob.c
    # ConsensusProblem has checked that C is circulant
    r = _symbol_rank(np.fft.fft(C[0]))
    threshold = 2 * b + 1
    offsets = np.arange(-b, b + 1)
    c = np.fft.fft(C[:, 0])
    freq = c[:, None] * np.exp(-2j * np.pi * (np.outer(np.arange(n), offsets) % n) / n)
    rows, rhs = [freq.real, freq.imag], [c.real, c.imag]
    if r <= threshold:
        rows.append(np.full((1, threshold), np.sqrt(n)))
        rhs.append([0.0])
    taps, _, rank, _ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    if r > threshold:
        if rank < threshold:
            raise ConsistencyCheckFailed(
                "banded columns unexpectedly rank deficient despite rank(C) > 2b+1"
            )
        note = (
            f"rank(C) = {r} exceeds the {threshold} banded degrees of freedom per "
            "column, so the static constraint C(I - phi_u(0)) = 0 pins phi_u(0) to "
            "the identity; its unit row sums contradict the zero row sums required "
            "of a relative controller."
        )
        return FeasibilityCertificate(
            verdict="Infeasible",
            threshold=threshold,
            rank=r,
            witness=_banded_circulant(n, taps),
            witness_taps=taps,
            proof_note=note,
        )
    # every entry of the circulant C (W - I) appears in its first column
    residual = max(
        float(np.max(np.abs(C[:, offsets % n] @ taps - C[:, 0]))), abs(float(taps.sum()))
    )
    if negligible(residual, C[0], MATCH):
        note = (
            f"rank(C) = {r} fits within the banded degrees of freedom; the static "
            "constraints admit a solution, so this necessary test cannot rule the "
            "design out."
        )
        return FeasibilityCertificate(
            verdict="PotentiallyFeasible",
            threshold=threshold,
            rank=r,
            witness=_banded_circulant(n, taps),
            witness_taps=taps,
            proof_note=note,
        )
    note = (
        "the static system combining the banded support, zero row sums and "
        f"C(I - phi_u(0)) = 0 is unsolvable (best residual {residual:.2e})."
    )
    return FeasibilityCertificate(
        verdict="Infeasible",
        threshold=threshold,
        rank=r,
        witness=None,
        proof_note=note,
    )


def static_consensus_gain(n):
    """Static ring gain K = -(ring Laplacian): u_i couples to both neighbours."""
    return -laplacian(ring_graph(n))


def static_gain_realization(n):
    """Structured (but not network) realization of the static ring gain: no states."""
    part = Partition.scalar(n)
    return StateSpace.static(static_consensus_gain(n), part, part)


def _approximation(Ks, part, a):
    """Realization (aI, K_s, -aI, 0) on the scalar partition ``part``."""
    n = Ks.shape[0]
    return StateSpace(
        a * np.eye(n),
        Ks,
        -a * np.eye(n),
        np.zeros((n, n)),
        state_partition=part,
        in_partition=part,
        out_partition=part,
    )


def proper_approximation(n, a):
    """Strictly proper network-realizable relaxation of the static ring gain.

    Realization (aI, K_s, -aI, 0): the transfer is -a/(s - a) * K_s, a
    low-pass version of the static gain with DC gain exactly K_s; a must
    be negative and larger magnitudes approach the static design.
    """
    if a >= 0:
        raise NonNegativeA("the approximation pole must be strictly negative")
    return _approximation(static_consensus_gain(n), Partition.scalar(n), a)


def h2_deflated(prob, K):
    """Squared H2 norm of the closed loop with the average mode removed.

    The plant is dx = u + w with performance z = (C x, gamma u).  All
    blocks must be circulant so the DFT decouples the loop into scalar
    modes; mode 0 (the average) must be both undetectable (C 1 = 0) and
    unforced by the controller (relative feedback), and is dropped.  All
    remaining modes must be Hurwitz.  ConsensusProblem has checked that C
    is circulant with zero row sums, so its symbol vanishes at mode 0.
    K is an n x n gain array or a realization with n x n blocks; anything
    else raises ValueError.

    One FFT over the first rows of C and of the checked blocks gives every
    symbol.  A realization's modes are Hurwitz when the roots of their loop
    denominators det(sI - A_cl) are, which one ``_root_abscissa`` decides.
    """
    n, gamma = prob.n, np.float64(prob.gamma)  # gamma**2 is inf, not OverflowError, past 1e154
    if isinstance(K, StateSpace) and K.n_states == 0:
        K = K.D  # a realization with no states is its static gain
    if not isinstance(K, (StateSpace, np.ndarray)):
        raise ValueError(f"a controller is a gain array or a StateSpace, not {type(K).__name__}")
    blocks = (K.A, K.B, K.C, K.D) if isinstance(K, StateSpace) else (K,)
    bad = [M.shape for M in blocks if M.shape != (n, n)]
    if bad:
        raise ValueError(f"the controller of {n} agents needs {n} x {n} blocks, not {bad[0]}")
    symbols = np.fft.fft(np.stack([prob.c[0]] + [_check_circulant(M)[0] for M in blocks]))
    if isinstance(K, StateSpace):
        c_sym, a_sym, b_sym, k_sym, d_sym = symbols
        k_ref = max(np.abs(K.B).max(), np.abs(K.D).max())
        if not negligible(max(abs(b_sym[0]), abs(d_sym[0])), k_ref, HYPOTHESIS):
            raise ModeZeroDetectable(
                "controller is not relative: its average mode reacts to the state"
            )
        # per mode the loop is x' = d x + k xi + w, xi' = b x + a xi: over
        # den = s^2 - (a + d) s + (a d - k b), x = (s - a)/den w and
        # u = (d (s - a) + k b)/den w
        a, b, k, d = (sym[1:] for sym in (a_sym, b_sym, k_sym, d_sym))
        den = np.stack((a * d - k * b, -(a + d), np.ones_like(a)), axis=1)
        abscissa = _root_abscissa(den)
        unstable = abscissa >= -HYPOTHESIS
        if np.any(unstable):
            mode = 1 + int(np.argmax(unstable))
            raise UnstableNonzeroMode(f"closed-loop mode {mode} is not Hurwitz")
        c = c_sym[1:]
        num = np.stack(
            (
                np.stack((-c * a, c), axis=1),
                gamma * np.stack((k * b - d * a, d), axis=1),
            ),
            axis=1,
        )
        return float(np.sum(_batch_h2_squared(num, den, abscissa)))
    c_sym, lam = symbols
    if not negligible(lam[0], lam, HYPOTHESIS):
        raise ModeZeroDetectable("static controller is not relative")
    lam, c = lam[1:], c_sym[1:]
    unstable = lam.real >= -HYPOTHESIS
    if np.any(unstable):
        mode = 1 + int(np.argmax(unstable))
        raise UnstableNonzeroMode(f"closed-loop mode {mode} is not Hurwitz")
    with np.errstate(over="ignore"):  # refused below, if not finite
        cost = (np.abs(c) ** 2 + gamma**2 * np.abs(lam) ** 2) / (2.0 * np.abs(lam.real))
    total = float(np.sum(cost))
    if not np.isfinite(total):
        raise ValueError("the result holds a number that is not finite")
    return total


@dataclass
class GapReport:
    """Summary of the locality gap demonstration."""

    certificate: FeasibilityCertificate
    ks_h2_squared: float
    ka_h2_squared: dict = field(default_factory=dict)
    structure: dict = field(default_factory=dict)

    def to_json(self):
        cert = self.certificate.to_json()
        return {
            "verdict": cert["verdict"],
            "rank": cert.get("rank"),
            "threshold": cert["threshold"],
            "witnessRowSums": cert.get("witnessRowSums"),
            "h2Values": {
                "ks": self.ks_h2_squared,
                "ka": {str(a): v for a, v in sorted(self.ka_h2_squared.items())},
            },
            "structureWitnesses": self.structure,
        }


# poles a of the proper approximations the gap report scores; the first
# one's realization is also checked for structure
_APPROXIMATION_POLES = (-10.0, -100.0, -1000.0)


def gap_demonstration(n, b, gamma):
    """Contrast locality infeasibility with unlocalized performance.

    For the average-deviation measure: certify that no b-local relative
    design exists, then score the static ring gain and its proper
    network-realizable approximations, which are perfectly implementable
    once the locality constraint is dropped.  The ring, its gain K_s and
    each approximation are built once: the approximation with the first
    pole is both scored and checked for structure.
    """
    measures = consensus_measures(n, kinds=("ave",))
    prob = ConsensusProblem(n=n, b=b, gamma=gamma, c=measures["ave"])
    certificate = sls_relative_feasibility(prob)
    ring = ring_graph(n)
    part = Partition.scalar(n)
    Ks = -laplacian(ring)
    ks_value = h2_deflated(prob, Ks)
    # K_a(-10) is also checked for structure; the others are dropped once scored
    ka_real = _approximation(Ks, part, _APPROXIMATION_POLES[0])
    ka_values = {
        a: h2_deflated(prob, _approximation(Ks, part, a) if i else ka_real)
        for i, a in enumerate(_APPROXIMATION_POLES)
    }
    pattern = StructurePattern(ring, part, part)
    cl_pattern = StructurePattern(b_hops(ring, b), part, part)
    ks_real = StateSpace.static(Ks, part, part)
    ks_struct = check_realization_structure(ks_real, pattern)
    ka_struct = check_realization_structure(ka_real, pattern)
    # the state closed loop of dx = u + w, u = K x is phi_x = (sI - K(s))^-1
    agents = Plant(np.zeros((n, n)), np.eye(n), np.eye(n))
    structure = {
        "ksRealizationStructured": ks_struct.structured,
        "ksNetworkRealizable": ks_struct.network,
        "ksTFStructured": is_tf_structured(ks_real, pattern),
        "kaRealizationStructured": ka_struct.structured,
        "kaNetworkRealizable": ka_struct.network,
        "kaTFStructured": is_tf_structured(ka_real, pattern),
        "ksClosedLoopTFStructured": is_tf_structured(
            closed_loops_of(agents, ks_real).phi_x, cl_pattern
        ),
        "kaClosedLoopTFStructured": is_tf_structured(
            closed_loops_of(agents, ka_real).phi_x, cl_pattern
        ),
    }
    return GapReport(
        certificate=certificate,
        ks_h2_squared=ks_value,
        ka_h2_squared=ka_values,
        structure=structure,
    )
