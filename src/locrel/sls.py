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

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    HypothesisViolated,
    NoSamplesEvaluated,
    NotTFStructured,
    SingularAtS,
    SingularPhiX,
    SingularPhiXX,
)
from .graphs import Partition, StructurePattern
from .rational import (
    RationalEntry,
    RationalMatrix,
    distinct_denominators,
    try_exact_divide,
)
from .statespace import (
    FrequencyResponse,
    StateSpace,
    feedback,
    interleave_node_states,
    inverse,
    parallel,
    realize_rational,
    series,
    tf_of,
)
from .structure import check_realization_structure, is_tf_structured

RATIONAL_RECOVERY_LIMIT = 6


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


def _controller_to_ss(K):
    if isinstance(K, StateSpace):
        return K
    if isinstance(K, RationalMatrix):
        return realize_rational(K, "rows")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return StateSpace.static(K)


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
    K_ss = _controller_to_ss(K)
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


def _reduce_entry(entry, factors):
    """Cancel known polynomial factors shared by numerator and denominator."""
    num, den = entry.num, entry.den
    progress = True
    while progress:
        progress = False
        for f in factors:
            if f.size <= 1:
                continue
            qn = try_exact_divide(num, f)
            if qn is None:
                continue
            qd = try_exact_divide(den, f)
            if qd is None:
                continue
            num, den = qn, qd
            progress = True
    return RationalEntry(num, den, simplify=True)


def _denominator_pool(mats):
    """Distinct nontrivial denominators appearing across rational matrices."""
    dens = distinct_denominators(e for mat in mats for row in mat.entries for e in row)
    return [d for d in dens if d.size > 1]


def _resolvent_drift(obj):
    """Closed-loop drift A when obj is a resolvent (sI - A)^-1 in state space."""
    if not isinstance(obj, StateSpace):
        return None
    n = obj.n_outputs
    if n == 0 or obj.n_states != n or obj.n_inputs != n:
        return None
    eye = np.eye(n)
    if (
        np.allclose(obj.B, eye, rtol=0.0, atol=1e-13)
        and np.allclose(obj.C, eye, rtol=0.0, atol=1e-13)
        and np.max(np.abs(obj.D)) < 1e-13
    ):
        return obj.A
    return None


def recover_controller_sf(cl):
    """Controller achieving a state-feedback closed-loop pair.

    Returns the rational gain phi_u phi_x^-1 when phi_x is rational (or a
    state-space system) of size at most six; otherwise returns a
    frequency-response controller evaluated pointwise.  When phi_x is a
    plain resolvent its inverse sI - A is formed directly, which avoids
    the ill-conditioned rational adjugate.
    """
    phi_x, phi_u = cl.phi_x, cl.phi_u

    def freq_form():
        def fn(s):
            px = phi_x.evaluate(s)
            pu = phi_u.evaluate(s)
            if np.linalg.cond(px) > 1e12:
                raise SingularPhiX(f"state closed loop singular at s = {s}")
            return pu @ np.linalg.inv(px)

        shape = (
            phi_u.shape[0] if hasattr(phi_u, "shape") else None,
            phi_x.shape[0] if hasattr(phi_x, "shape") else None,
        )
        return FrequencyResponse(shape, fn, "recovered state-feedback controller")

    def to_rational(obj):
        if isinstance(obj, RationalMatrix):
            return obj
        if isinstance(obj, StateSpace):
            return tf_of(obj)
        return None

    if (
        isinstance(phi_x, StateSpace)
        and isinstance(phi_u, StateSpace)
        and phi_x.n_states
        and _resolvent_drift(phi_x) is None
        and phi_x.shape[0] <= RATIONAL_RECOVERY_LIMIT
    ):
        # K = (s phi_u)(s phi_x)^-1; both factors are proper state-space
        # systems and s phi_x has unit feedthrough on valid pairs, so the
        # whole product stays in well-conditioned state-space algebra
        n = phi_x.shape[0]
        D_sx = phi_x.C @ phi_x.B
        if (
            np.max(np.abs(phi_x.D)) < 1e-12
            and np.max(np.abs(phi_u.D)) < 1e-12
            and np.max(np.abs(D_sx - np.eye(n))) < 1e-7
        ):
            s_phi_x = StateSpace(phi_x.A, phi_x.B, phi_x.C @ phi_x.A, D_sx)
            s_phi_u = StateSpace(phi_u.A, phi_u.B, phi_u.C @ phi_u.A, phi_u.C @ phi_u.B)
            return tf_of(series(inverse(s_phi_x), s_phi_u))
    drift = _resolvent_drift(phi_x)
    if drift is not None and drift.shape[0] <= RATIONAL_RECOVERY_LIMIT:
        ru = to_rational(phi_u)
        if ru is not None:
            n = drift.shape[0]
            aff = RationalMatrix(
                [
                    [
                        RationalEntry([-drift[k, j], 1.0])
                        if k == j
                        else RationalEntry([-drift[k, j]])
                        for j in range(n)
                    ]
                    for k in range(n)
                ]
            )
            K = ru.matmul(aff)
            factors = _denominator_pool((ru,))
            return K.map(lambda e: _reduce_entry(e, factors))
    convertible = (RationalMatrix, StateSpace)
    if (
        not isinstance(phi_x, convertible)
        or not isinstance(phi_u, convertible)
        or phi_x.shape[0] > RATIONAL_RECOVERY_LIMIT
    ):
        return freq_form()
    rx = to_rational(phi_x)
    ru = to_rational(phi_u)
    try:
        inv = rx.inverse()
    except ZeroDivisionError as exc:
        raise SingularPhiX("state closed loop is identically singular") from exc
    K = ru.matmul(inv)
    return K.map(lambda e: _reduce_entry(e, _denominator_pool((rx, ru, inv))))


def implementation_realization_sf(cl, pattern=None):
    """Internal realization of the controller acting on the closed loops.

    Implements the update v = x + (I - s phi_x) v, u = s phi_u v as one
    state-space system from per-entry realizations, preserving transfer
    sparsity: when the closed loops conform to ``pattern`` the returned
    realization is structured node by node.

    Returns (system, witness) where witness is the structure check result
    against ``pattern`` (None when no pattern is given).
    """
    phi_x = cl.phi_x if isinstance(cl.phi_x, RationalMatrix) else tf_of(cl.phi_x)
    phi_u = cl.phi_u if isinstance(cl.phi_u, RationalMatrix) else tf_of(cl.phi_u)
    if not phi_x.is_strictly_proper() or not phi_u.is_strictly_proper():
        raise ConstraintViolated("closed loops must be strictly proper")
    Rx = realize_rational(phi_x, "rows")
    Ru = realize_rational(phi_u, "rows")
    n = phi_x.shape[0]
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
        in_partition=phi_x.row_partition,
        out_partition=phi_u.row_partition,
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

    def derivative_form(R):
        """Realization of s * H from a strictly proper realization of H."""
        return StateSpace(
            R.A,
            R.B,
            R.C @ R.A,
            R.C @ R.B,
            state_partition=R.state_partition,
            in_partition=R.in_partition,
            out_partition=R.out_partition,
        )

    s_phi_xy = derivative_form(Rxy)
    s_phi_ux = derivative_form(Rux)
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
