"""Closed-loop parameterization of state and output feedback.

For state feedback with plant dx = A x + B2 u + w the closed-loop maps
phi_x = (sI - A - B2 K)^-1 and phi_u = K phi_x satisfy the affine
constraint (sI - A) phi_x - B2 phi_u = I together with strict properness,
and every such pair is achieved by the controller K = phi_u phi_x^-1.
The output-feedback version uses four maps tied by two affine rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    HypothesisViolated,
    IllPosedFeedback,
    NoRealization,
    NoSamplesEvaluated,
    NotTFStructured,
    SingularAtS,
    SingularPhiX,
    SingularPhiXX,
)
from .graphs import Partition, StructurePattern
from .rational import RationalMatrix
from .statespace import (
    FrequencyResponse,
    StateSpace,
    _column_subspaces,
    _invariant_subspace,
    interleave_node_states,
    inverse,
    minimal_realization,
    parallel,
    realize_rational,
    series,
    tf_of,
)
from .structure import (
    INPUT_ZERO_TOL,
    _transfer_partitions,
    check_realization_structure,
    is_tf_structured,
    transfer_support,
)


@dataclass
class Plant:
    """State-space plant with distinct disturbance and control channels.

    dx = A x + B1 w + B2 u,  z = C1 x + D12 u,  y = C2 x + D21 w.
    The measurement channel (C2, D21) is optional; omit it for state
    feedback.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: Optional[np.ndarray] = None
    D12: Optional[np.ndarray] = None
    C2: Optional[np.ndarray] = None
    D21: Optional[np.ndarray] = None
    node_partition: Optional[Partition] = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        for name in ("C1", "D12", "C2", "D21"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.atleast_2d(np.asarray(val, dtype=float)))
        if self.B1.shape[0] != n or self.B2.shape[0] != n:
            raise ValueError("B1/B2 must have one row per state")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B2.shape[1]


@dataclass
class ClosedLoopPair:
    """State-feedback closed loops: anything with an ``evaluate`` method."""

    phi_x: object
    phi_u: object

    def evaluate(self, s):
        return self.phi_x.evaluate(s), self.phi_u.evaluate(s)


@dataclass
class OutputFeedbackClosedLoops:
    """The four output-feedback closed-loop maps."""

    phi_xx: object
    phi_xy: object
    phi_ux: object
    phi_uy: object

    def evaluate(self, s):
        return (
            self.phi_xx.evaluate(s),
            self.phi_xy.evaluate(s),
            self.phi_ux.evaluate(s),
            self.phi_uy.evaluate(s),
        )


def sample_points(n_samples=7, seed=0):
    """Right-half-plane probe frequencies: Re in [0.5, 3], |Im| <= 3."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(0.5, 3.0, size=n_samples)
    im = rng.uniform(-3.0, 3.0, size=n_samples)
    return [complex(a, b) for a, b in zip(re, im)]


def _controller_to_ss(K, part=None):
    """K as a StateSpace; a square static gain over part gets part on both sides."""
    if isinstance(K, StateSpace):
        return K
    if isinstance(K, RationalMatrix):
        return realize_rational(K, "rows")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if part is None or K.shape != (part.total, part.total):
        return StateSpace.static(K)
    return StateSpace.static(K, part, part)


def _controller_evaluator(K):
    if isinstance(K, (StateSpace, RationalMatrix, FrequencyResponse)):
        return K.evaluate
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return lambda s: K.astype(complex)


def closed_loops_of(plant, K):
    """State-feedback closed loops phi_x, phi_u for u = K x.

    K may be a static gain, a RationalMatrix, or a StateSpace.  Both maps
    are output views of one realization over the plant and controller
    states, so the controller dynamics are never duplicated.
    """
    n = plant.n
    part = plant.node_partition
    K_ss = _controller_to_ss(K, part if plant.n_inputs == n else None)
    if K_ss.shape != (plant.n_inputs, n):
        raise ValueError(
            f"controller maps {K_ss.shape[1]} states to {K_ss.shape[0]} inputs; "
            f"plant expects {n} -> {plant.n_inputs}"
        )
    nk = K_ss.n_states
    A_cl = np.zeros((n + nk, n + nk))
    A_cl[:n, :n] = plant.A + plant.B2 @ K_ss.D
    A_cl[:n, n:] = plant.B2 @ K_ss.C
    A_cl[n:, :n] = K_ss.B
    A_cl[n:, n:] = K_ss.A
    B_cl = np.vstack([np.eye(n), np.zeros((nk, n))])
    phi_x = StateSpace(
        A_cl,
        B_cl,
        np.hstack([np.eye(n), np.zeros((n, nk))]),
        np.zeros((n, n)),
        in_partition=part,
        out_partition=part,
    )
    phi_u = StateSpace(
        A_cl,
        B_cl,
        np.hstack([K_ss.D, K_ss.C]),
        np.zeros((plant.n_inputs, n)),
        in_partition=part,
        out_partition=K_ss.out_partition,
    )
    return ClosedLoopPair(phi_x, phi_u)


def _require_samples(evaluated, attempted):
    """A residual over zero evaluated samples would read as a pass."""
    if evaluated == 0:
        raise NoSamplesEvaluated(
            f"closed loops are singular at all {attempted} sample points"
        )


def check_affine_constraint(cl, plant, n_samples=7, seed=0):
    """Max residual of (sI - A) phi_x - B2 phi_u = I over random samples.

    Also probes strict properness along s = 10^k for k = 2..5; a pair
    that fails to decay there is reported with residual at least one,
    since no controller can achieve it.
    """
    n = plant.n
    worst = 0.0
    evaluated = 0
    for s in sample_points(n_samples, seed):
        try:
            px, pu = cl.evaluate(s)
        except SingularAtS:
            continue
        evaluated += 1
        resid = (s * np.eye(n) - plant.A) @ px - plant.B2 @ pu - np.eye(n)
        worst = max(worst, float(np.max(np.abs(resid))))
    _require_samples(evaluated, n_samples)
    norms = []
    for k in range(2, 6):
        px, pu = cl.evaluate(10.0**k)
        norms.append(max(np.max(np.abs(px)), np.max(np.abs(pu))))
    decaying = all(
        norms[i + 1] <= 0.5 * norms[i] + 1e-12 for i in range(len(norms) - 1)
    )
    if not decaying:
        worst = max(worst, 1.0)
    return worst


def _realizable(H, name):
    """Reject a closed-loop map known only by its values: it has no realization."""
    if not isinstance(H, (RationalMatrix, StateSpace)):
        raise NoRealization(
            f"{name} is given only by its frequency response and has no realization"
        )


def _strictly_proper_realization(H, name):
    """Realization of a strictly proper closed-loop map; rational maps by rows."""
    _realizable(H, name)
    if isinstance(H, RationalMatrix):
        if not H.is_strictly_proper():
            raise ConstraintViolated("closed loops must be strictly proper")
        return realize_rational(H, "rows")
    if np.max(np.abs(H.D), initial=0.0) > INPUT_ZERO_TOL:
        raise ConstraintViolated("closed loops must be strictly proper")
    return H


def _row_realization(H, name):
    """Strictly proper realization of a closed-loop map, states grouped by row.

    A and C are block diagonal over the output rows, and B is zero on
    every entry that ``transfer_support`` calls zero, so the realization
    is structured wherever the map is.  A rational map is realized entry
    by entry.  A state-space map is restricted, row by row, to the
    observable subspace of that row (grown for all rows in one batched
    pass) and then to the reachable subspace of the inputs the row
    responds to.
    """
    R = _strictly_proper_realization(H, name)
    if isinstance(H, RationalMatrix):
        return R
    row_part, col_part = _transfer_partitions(H)
    support = transfer_support(H)
    blocks = [None] * H.n_outputs
    # the observable subspaces of all rows grow in one batched pass
    for rows, Q in _column_subspaces(H.A.T, H.C.T):
        for i, Qi in zip(rows, Q):
            A, B, c = Qi.T @ H.A @ Qi, Qi.T @ H.B, H.C[i : i + 1] @ Qi
            B[:, ~support[i]] = 0.0
            P = _invariant_subspace(A, B)
            blocks[i] = (P.T @ A @ P, P.T @ B, c @ P)
    sizes = np.array([A.shape[0] for A, _, _ in blocks], dtype=int)
    offsets = row_part.offsets()
    return StateSpace(
        scipy.linalg.block_diag(*(A for A, _, _ in blocks)),
        np.vstack([B for _, B, _ in blocks]),
        scipy.linalg.block_diag(*(c for _, _, c in blocks)),
        np.zeros(H.shape),
        state_partition=Partition(
            tuple(int(sizes[lo:hi].sum()) for lo, hi in zip(offsets, offsets[1:]))
        ),
        in_partition=col_part,
        out_partition=row_part,
    )


def _derivative(R):
    """Proper realization of s * H from a strictly proper realization of H."""
    return StateSpace(
        R.A,
        R.B,
        R.C @ R.A,
        R.C @ R.B,
        state_partition=R.state_partition,
        in_partition=R.in_partition,
        out_partition=R.out_partition,
    )


def recover_controller_sf(cl):
    """Controller K = phi_u phi_x^-1 achieving a state-feedback closed-loop pair.

    Both maps are strictly proper, so K = (s phi_u)(s phi_x)^-1, where s
    phi_x has the proper realization (A, B, C A, C B) and the feedthrough
    C B is the identity on an achievable pair.  The cascade of the
    inverse and s phi_u is compressed to a minimal realization, which is
    returned; rational maps are realized first.
    """
    s_phi_x = _derivative(_strictly_proper_realization(cl.phi_x, "phi_x"))
    s_phi_u = _derivative(_strictly_proper_realization(cl.phi_u, "phi_u"))
    try:
        inv = inverse(s_phi_x)
    except IllPosedFeedback as exc:
        raise SingularPhiX("s * phi_x tends to a singular matrix") from exc
    return minimal_realization(series(inv, s_phi_u))


def implementation_realization_sf(cl, pattern=None):
    """Internal realization of the controller acting on the closed loops.

    Implements the update v = x + (I - s phi_x) v, u = s phi_u v as one
    state-space system from row-grouped realizations of both maps,
    preserving transfer sparsity: when the closed loops conform to
    ``pattern`` the returned realization is structured node by node.

    Returns (system, witness) where witness is the structure check result
    against ``pattern`` (None when no pattern is given).
    """
    Rx = _row_realization(cl.phi_x, "phi_x")
    Ru = _row_realization(cl.phi_u, "phi_u")
    n = Rx.n_outputs
    CxBx = Rx.C @ Rx.B
    if np.max(np.abs(CxBx - np.eye(n))) > 1e-7:
        raise ConstraintViolated(
            "s * phi_x does not tend to the identity; the affine constraint fails"
        )
    CxAx = Rx.C @ Rx.A
    CuAu = Ru.C @ Ru.A
    Du0 = Ru.C @ Ru.B  # feedthrough of s * phi_u
    nx, nu = Rx.n_states, Ru.n_states
    A = np.block(
        [
            [Rx.A - Rx.B @ CxAx, np.zeros((nx, nu))],
            [-Ru.B @ CxAx, Ru.A],
        ]
    )
    B = np.vstack([Rx.B, Ru.B])
    C = np.hstack([-Du0 @ CxAx, CuAu])
    D = Du0
    impl = StateSpace(
        A,
        B,
        C,
        D,
        in_partition=Rx.out_partition,
        out_partition=Ru.out_partition,
    )
    impl = interleave_node_states(impl, [Rx.state_partition, Ru.state_partition])
    witness = None
    if pattern is not None:
        witness = check_realization_structure(impl, pattern)
    return impl, witness


def output_feedback_closed_loops(plant, K):
    """Closed-loop four-tuple for u = K y, evaluated per frequency."""
    if plant.C2 is None:
        raise ValueError("plant needs a measurement channel C2 for output feedback")
    A, B2, C2 = plant.A, plant.B2, plant.C2
    n = A.shape[0]
    n_u = B2.shape[1]
    n_y = C2.shape[0]
    K_eval = _controller_evaluator(K)

    def resolvent(s):
        Ks = K_eval(s)
        M = s * np.eye(n) - A - B2 @ Ks @ C2
        if np.linalg.cond(M) > 1e12:
            raise SingularAtS(f"closed loop singular at s = {s}")
        return np.linalg.inv(M), Ks

    def fxx(s):
        R, _ = resolvent(s)
        return R

    def fxy(s):
        R, Ks = resolvent(s)
        return R @ B2 @ Ks

    def fux(s):
        R, Ks = resolvent(s)
        return Ks @ C2 @ R

    def fuy(s):
        R, Ks = resolvent(s)
        return Ks + Ks @ C2 @ R @ B2 @ Ks

    return OutputFeedbackClosedLoops(
        FrequencyResponse((n, n), fxx, "phi_xx"),
        FrequencyResponse((n, n_y), fxy, "phi_xy"),
        FrequencyResponse((n_u, n), fux, "phi_ux"),
        FrequencyResponse((n_u, n_y), fuy, "phi_uy"),
    )


def check_of_constraints(cl4, plant, n_samples=7, seed=0):
    """Max residual of both output-feedback affine rows over random samples."""
    if plant.C2 is None:
        raise ValueError("plant needs a measurement channel C2 for output feedback")
    A, B2, C2 = plant.A, plant.B2, plant.C2
    n = A.shape[0]
    worst = 0.0
    evaluated = 0
    for s in sample_points(n_samples, seed):
        try:
            pxx, pxy, pux, puy = cl4.evaluate(s)
        except SingularAtS:
            continue
        evaluated += 1
        sIA = s * np.eye(n) - A
        r1 = sIA @ pxx - B2 @ pux - np.eye(n)
        r2 = sIA @ pxy - B2 @ puy
        r3 = pxx @ sIA - pxy @ C2 - np.eye(n)
        r4 = pux @ sIA - puy @ C2
        worst = max(
            worst,
            float(
                max(
                    np.max(np.abs(r1)),
                    np.max(np.abs(r2)),
                    np.max(np.abs(r3)),
                    np.max(np.abs(r4)),
                )
            ),
        )
    _require_samples(evaluated, n_samples)
    return worst


def recover_controller_of(cl4):
    """Output-feedback controller phi_uy - phi_ux phi_xx^-1 phi_xy."""

    def fn(s):
        pxx, pxy, pux, puy = cl4.evaluate(s)
        if np.linalg.cond(pxx) > 1e12:
            raise SingularPhiXX(f"state-on-state closed loop singular at s = {s}")
        return puy - pux @ np.linalg.inv(pxx) @ pxy

    shape = None
    if hasattr(cl4.phi_uy, "shape"):
        shape = cl4.phi_uy.shape
    return FrequencyResponse(shape, fn, "recovered output-feedback controller")


def of_structured_implementation(cl4, pattern):
    """Structured internal realization of the output-feedback controller.

    Builds the cascade  - s phi_ux o (1/s^2) phi_xx^-1 o s phi_xy  in
    parallel with phi_uy from per-entry realizations.  All blocks of the
    cascade have block-diagonal output maps, so the interconnection stays
    inside the pattern sparsity.

    Returns (system, witness).
    """
    maps = {}
    for name in ("phi_xx", "phi_xy", "phi_ux", "phi_uy"):
        val = getattr(cl4, name)
        _realizable(val, name)
        maps[name] = val if isinstance(val, RationalMatrix) else tf_of(val)
    for name in ("phi_xx", "phi_xy", "phi_ux"):
        if not maps[name].is_strictly_proper():
            raise ConstraintViolated(f"{name} must be strictly proper")
    if not maps["phi_uy"].is_proper():
        raise ConstraintViolated("phi_uy must be proper")
    for name in ("phi_xx", "phi_xy", "phi_ux", "phi_uy"):
        H = maps[name]
        pat_check = _pattern_for(pattern, H)
        if not is_tf_structured(H, pat_check):
            raise NotTFStructured(f"{name} does not conform to the pattern")
    Rxx = realize_rational(maps["phi_xx"], "rows")
    Rxy = realize_rational(maps["phi_xy"], "rows")
    Rux = realize_rational(maps["phi_ux"], "rows")
    Ruy = realize_rational(maps["phi_uy"], "rows")
    n = maps["phi_xx"].shape[0]
    if np.max(np.abs(Rxx.C @ Rxx.B - np.eye(n))) > 1e-7:
        raise ConstraintViolated(
            "s * phi_xx does not tend to the identity; the affine constraint fails"
        )
    x_part = maps["phi_xx"].row_partition

    # (1/s^2) phi_xx^-1 realization: integrate the inverse of s * phi_xx.
    Ax, Bx, Cx = Rxx.A, Rxx.B, Rxx.C
    CxAx = Cx @ Ax
    nxx = Rxx.n_states
    A_L = np.block([[Ax, Bx], [-CxAx @ Ax, -CxAx @ Bx]])
    B_L = np.vstack([np.zeros((nxx, n)), np.eye(n)])
    C_L = np.hstack([np.zeros((n, nxx)), np.eye(n)])
    L = StateSpace(
        A_L,
        B_L,
        C_L,
        np.zeros((n, n)),
        in_partition=x_part,
        out_partition=x_part,
    )
    L = interleave_node_states(L, [Rxx.state_partition, x_part])

    s_phi_xy = _derivative(Rxy)
    s_phi_ux = _derivative(Rux)
    T = series(series(s_phi_xy, L), s_phi_ux)
    T_neg = StateSpace(
        T.A,
        T.B,
        -T.C,
        -T.D,
        state_partition=T.state_partition,
        in_partition=T.in_partition,
        out_partition=T.out_partition,
    )
    impl = parallel(T_neg, Ruy)
    impl = interleave_node_states(
        impl,
        [Rxy.state_partition, L.state_partition, Rux.state_partition, Ruy.state_partition],
    )
    impl.in_partition = maps["phi_xy"].col_partition
    impl.out_partition = maps["phi_uy"].row_partition
    witness = check_realization_structure(impl, _pattern_for(pattern, maps["phi_uy"]))
    return impl, witness


def _pattern_for(pattern, H):
    """Pattern with the same graph but partitions matching H's shape."""
    return StructurePattern(pattern.graph, H.row_partition, H.col_partition)


@dataclass(frozen=True)
class RelativeEquivalence:
    """Outcome of the relative-feedback equivalence check."""

    k_relative: bool
    phi_u_relative: bool


def check_relative_equivalence(plant, K, n_samples=5, seed=0, tol=1e-8):
    """Check that K 1 = 0 and phi_u 1 = 0 agree for a relative-drift plant.

    The plant drift must annihilate the all-ones vector and B2 must have
    full row rank; under those hypotheses the two conditions are
    equivalent, and ConsistencyCheckFailed is raised when the sampled flags
    differ.
    """
    n = plant.n
    ones = np.ones(n)
    scale = max(np.max(np.abs(plant.A)), 1.0)
    if np.max(np.abs(plant.A @ ones)) > 1e-9 * scale:
        raise HypothesisViolated("plant drift does not annihilate the ones vector")
    if np.linalg.matrix_rank(plant.B2) < n:
        raise HypothesisViolated("B2 must have full row rank")
    K_eval = _controller_evaluator(K)
    k_rel = True
    phi_rel = True
    for s in sample_points(n_samples, seed):
        Ks = K_eval(s)
        k_scale = max(np.max(np.abs(Ks)), 1.0)
        if np.max(np.abs(Ks @ ones)) > tol * k_scale:
            k_rel = False
        M = s * np.eye(n) - plant.A - plant.B2 @ Ks
        phi_u = Ks @ np.linalg.inv(M)
        pu_scale = max(np.max(np.abs(phi_u)), 1.0)
        if np.max(np.abs(phi_u @ ones)) > tol * pu_scale:
            phi_rel = False
    if k_rel != phi_rel:
        raise ConsistencyCheckFailed(
            f"relative feedback equivalence violated: K relative is {k_rel}, "
            f"phi_u relative is {phi_rel}"
        )
    return RelativeEquivalence(k_rel, phi_rel)
