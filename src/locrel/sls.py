"""Closed-loop parameterization of state and output feedback.

For state feedback with plant dx = A x + B2 u + w the closed-loop maps
phi_x = (sI - A - B2 K)^-1 and phi_u = K phi_x satisfy the affine
constraint (sI - A) phi_x - B2 phi_u = I together with strict properness,
and every such pair is achieved by the controller K = phi_u phi_x^-1.
The output-feedback version uses four maps tied by two affine rows.

Closed-loop maps are realizations: ``closed_loops_of`` and
``output_feedback_closed_loops`` return views of one realization over
the plant and controller states, and rational maps are realized by rows.
Every check is decided exactly on them: an affine row holds when its
residual system is the zero function, which the reachable (Krylov)
subspaces of its input columns decide, as in
``structure.transfer_support``.  No verdict rests on sampled frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConsistencyCheckFailed,
    ConstraintViolated,
    HypothesisViolated,
    IllPosedFeedback,
    NoRealization,
    NotTFStructured,
    SingularPhiX,
)
from .graphs import Partition, StructurePattern
from .rational import RationalMatrix
from .relative import is_relative
from .statespace import (
    StateSpace,
    _column_subspaces,
    _invariant_subspaces,
    block_diag,
    interleave_node_states,
    inverse,
    minimal_realization,
    parallel,
    realize_rational,
    series,
)
from .structure import (
    _entry_pattern,
    _transfer_partitions,
    check_realization_structure,
    is_tf_structured,
    transfer_support,
)
from .tolerances import HYPOTHESIS, UNIT_FEEDTHROUGH, ZERO, negligible


@dataclass
class Plant:
    """State-space plant with distinct disturbance and control channels.

    dx = A x + w + B2 u,  y = C2 x.  The disturbance enters every state
    directly, so B1 must be the identity (ValueError otherwise).  The
    measurement matrix C2 is optional; omit it for state feedback.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C2: Optional[np.ndarray] = None
    node_partition: Optional[Partition] = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.C2 is not None:
            self.C2 = np.atleast_2d(np.asarray(self.C2, dtype=float))
        if not np.array_equal(self.B1, np.eye(n)):
            raise ValueError(f"B1 must be the {n} x {n} identity: w enters dx directly")
        if self.B2.shape[0] != n:
            raise ValueError("B2 must have one row per state")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B2.shape[1]


@dataclass
class ClosedLoopPair:
    """State-feedback closed loops phi_x, phi_u: RationalMatrix or StateSpace maps."""

    phi_x: object
    phi_u: object


@dataclass
class OutputFeedbackClosedLoops:
    """The four output-feedback closed-loop maps."""

    phi_xx: object
    phi_xy: object
    phi_ux: object
    phi_uy: object


def _loop(plant, K, C2=None):
    """K as a realization, and phi_xx, phi_ux of the loop u = K y, y = C2 x.

    Both maps are views of one realization over [x; x_K]:
    A_cl = [[A + B2 D_K C2, B2 C_K], [B_K C2, A_K]], dx enters through
    B_x = [I; 0], and x and u are read through C_x = B_x' and
    C_u = [D_K C2, C_K].  With no C2 the loop is state feedback, y = x:
    nothing is multiplied by C2, and a square static gain over the node
    partition gets that partition on both sides.
    """
    n, n_u = plant.n, plant.n_inputs
    n_y, y_part = (n, plant.node_partition) if C2 is None else (C2.shape[0], None)
    read = (lambda M: M) if C2 is None else (lambda M: M @ C2)
    if isinstance(K, RationalMatrix):
        K = realize_rational(K, "rows")
    elif not isinstance(K, StateSpace):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        if y_part is None or K.shape != (y_part.total, y_part.total):
            y_part = None
        K = StateSpace.static(K, y_part, y_part)
    if K.shape != (n_u, n_y):
        raise ValueError(
            f"controller maps {K.shape[1]} measurements to {K.shape[0]} inputs; "
            f"plant expects {n_y} -> {n_u}"
        )
    nk, part, u_part, B2 = K.n_states, plant.node_partition, K.out_partition, plant.B2
    # B2 = I (the agents' plant) drives the states with the controller's blocks as they are
    unit = B2.shape == (n, n) and np.count_nonzero(B2) == n and np.all(np.diagonal(B2) == 1.0)
    drive = (lambda M: M) if unit else (lambda M: B2 @ M)
    A_cl = np.empty((n + nk, n + nk))
    A_cl[:n, :n] = plant.A + read(drive(K.D))
    A_cl[:n, n:] = drive(K.C)
    A_cl[n:, :n] = read(K.B)
    A_cl[n:, n:] = K.A
    B_x = np.eye(n + nk, n)
    C_u = np.hstack([read(K.D), K.C])
    return (
        K,
        StateSpace(A_cl, B_x, B_x.T, np.zeros((n, n)), in_partition=part, out_partition=part),
        StateSpace(A_cl, B_x, C_u, np.zeros((n_u, n)), in_partition=part, out_partition=u_part),
    )


def closed_loops_of(plant, K):
    """State-feedback closed loops phi_x, phi_u for u = K x.

    K may be a static gain, a RationalMatrix, or a StateSpace.  The pair
    is phi_xx, phi_ux of the output-feedback loops with C2 = I, formed
    without C2: two views of one realization, sharing its A and B.  It is
    the package's one construction of a state-feedback loop; the gap
    report reads its loops here too.
    """
    _, phi_x, phi_u = _loop(plant, K)
    return ClosedLoopPair(phi_x, phi_u)


def output_feedback_closed_loops(plant, K):
    """Closed-loop four-tuple for u = K y, y = C2 x + dy, as views of one realization.

    dy enters ``_loop``'s realization through B_y = [B2 D_K; B_K] and
    reaches u through D_K.
    """
    if plant.C2 is None:
        raise ValueError("plant needs a measurement channel C2 for output feedback")
    K, xx, ux = _loop(plant, K, plant.C2)
    B_y = np.vstack([plant.B2 @ K.D, K.B])
    zero = np.zeros((plant.n, plant.C2.shape[0]))
    return OutputFeedbackClosedLoops(
        xx,
        StateSpace(xx.A, B_y, xx.C, zero, out_partition=xx.out_partition),
        ux,
        StateSpace(xx.A, B_y, ux.C, K.D, out_partition=K.out_partition),
    )


def _realization(H, name, strict=True):
    """Realization of a closed-loop map; rational maps by rows.

    Raises NoRealization for an object that is neither, and
    ConstraintViolated unless the map is strictly proper, or, when not
    ``strict``, proper.
    """
    if isinstance(H, RationalMatrix):
        if not (H.is_strictly_proper() if strict else H.is_proper()):
            raise ConstraintViolated(f"{name} must be {'strictly ' if strict else ''}proper")
        return realize_rational(H, "rows")
    if not isinstance(H, StateSpace):
        raise NoRealization(
            f"{name} is neither a RationalMatrix nor a StateSpace and has no realization"
        )
    if strict and np.max(np.abs(H.D), initial=0.0) > ZERO:
        raise ConstraintViolated(f"{name} must be strictly proper")
    return H


def _transpose(H):
    """Realization of the transposed transfer matrix."""
    return StateSpace(H.A.T, H.C.T, H.B.T, H.D.T)


def _affine_residual(Hx, Hu, A, B2, rhs):
    """Size of the residual (sI - A) Hx - B2 Hu - rhs of two realizations.

    Hx is strictly proper.  Both maps are put on one realization
    (A_c, B_c, C_x, C_u, D_u): their own when they share A and B, as the
    views of ``closed_loops_of`` do, else the two stacked block
    diagonally.  Since s Hx = C_x A_c (sI - A_c)^-1 B_c + C_x B_c, the
    residual is the system
    (A_c, B_c, C_x A_c - A C_x - B2 C_u, C_x B_c - B2 D_u - rhs), and it is
    the zero function when its feedthrough D_R vanishes and every row
    C_R[i] annihilates the reachable subspace Q_j of every column B_j.
    Returns the larger of max |D_R| and max_j ||B_j|| max_i ||C_R[i] Q_j||.
    The factor ||B_j|| makes the number at least the first Markov
    parameter |C_R[i] B_j|, however a realization splits that product
    between C and B.
    """
    if _shares_realization(Hx, Hu):
        A_c, B_c, C_x, C_u = Hx.A, Hx.B, Hx.C, Hu.C
    else:
        A_c = block_diag(Hx.A, Hu.A)
        B_c = np.vstack([Hx.B, Hu.B])
        C_x = np.hstack([Hx.C, np.zeros((Hx.n_outputs, Hu.n_states))])
        C_u = np.hstack([np.zeros((Hu.n_outputs, Hx.n_states)), Hu.C])
    C_R = C_x @ A_c - A @ C_x - B2 @ C_u
    worst = float(np.max(np.abs(C_x @ B_c - B2 @ Hu.D - rhs), initial=0.0))
    b_norms = np.linalg.norm(B_c, axis=0)
    for cols, Q in _column_subspaces(A_c, B_c):
        # ||C_R[i] Q_j|| for every row i and every column j of the group
        response = np.linalg.norm(np.matmul(C_R, Q), axis=2)
        worst = max(worst, float(np.max(b_norms[cols] * np.max(response, axis=1, initial=0.0))))
    return worst


def check_affine_constraint(cl, plant):
    """Residual of (sI - A) phi_x - B2 phi_u = I, decided on realizations.

    Both maps must be strictly proper (ConstraintViolated otherwise).  The
    number returned is ``_affine_residual``'s: zero up to rounding exactly
    when the identity holds.
    """
    return _affine_residual(
        _realization(cl.phi_x, "phi_x"),
        _realization(cl.phi_u, "phi_u"),
        plant.A,
        plant.B2,
        np.eye(plant.n),
    )


def _shares_realization(G, H):
    """True when two realizations have equal A and B, as the views of one loop do."""
    return np.array_equal(G.A, H.A) and np.array_equal(G.B, H.B)


def _row_realizations(maps):
    """(R, support) of closed-loop maps given as (H, name, strict), states grouped by row.

    A map must be strictly proper, or, when not ``strict``, proper; the
    first that fails decides the error.  A rational map is realized entry
    by entry (support None), the maps that share A and B together.
    """
    out, groups = [], {}  # the first map of each shared realization: all its maps
    for i, (H, name, strict) in enumerate(maps):
        out.append((_realization(H, name, strict), None))
        if isinstance(H, StateSpace):
            _transfer_partitions(H)
            first = next((j for j in groups if _shares_realization(maps[j][0], H)), i)
            groups.setdefault(first, []).append(i)
    for group in groups.values():
        for i, pair in zip(group, _shared_row_realizations([maps[i][0] for i in group])):
            out[i] = pair
    return out


def _shared_row_realizations(maps):
    """(R, support) of state-space maps sharing A and B; R has A and C block diagonal by row.

    The support is decided once, on the stacked rows, and B is zero on
    every entry it calls zero.  Each row is restricted to its observable
    subspace, then to the reachable subspace of the inputs it responds to
    (every row in one ``_invariant_subspaces`` call); its feedthrough is kept.
    """
    A, B = maps[0].A, maps[0].B
    C = np.vstack([H.C for H in maps])
    support = transfer_support(StateSpace(A, B, C, np.vstack([H.D for H in maps])))
    starts = np.cumsum([0] + [H.n_outputs for H in maps])
    # one observable pass per map: a pass over the stacked rows would change
    # the row count of its products with A, and with it their rounding
    found = {}
    for H, lo in zip(maps, starts):
        for rows, Q in _column_subspaces(A.T, H.C.T):
            found.setdefault(Q.shape[2], []).append((rows + lo, Q))
    stacks = []  # one per observable dimension
    for parts in found.values():
        rows, Q = (np.concatenate(x) for x in zip(*parts))
        Qt = Q.transpose(0, 2, 1)
        B_rows = np.where(support[rows][:, None], Qt @ B, 0.0)
        stacks.append((rows, Qt @ A @ Q, B_rows, C[rows][:, None] @ Q))
    sizes, blocks = np.zeros(C.shape[0], dtype=int), []
    for j, items, P in _invariant_subspaces([stack[1:3] for stack in stacks]):
        rows, A_r, B_r, c = (X[items] for X in stacks[j])
        Pt = P.transpose(0, 2, 1)
        sizes[rows] = P.shape[2]
        blocks.append((rows, Pt @ A_r @ P, Pt @ B_r, c @ P))
    # one realization block diagonal over all rows; each map's is a diagonal block of it
    ends = np.concatenate([[0], np.cumsum(sizes)])
    A_all, B_all = np.zeros((ends[-1], ends[-1])), np.zeros((ends[-1], B.shape[1]))
    C_all = np.zeros((C.shape[0], ends[-1]))
    for rows, A_r, B_r, c in blocks:
        states = ends[rows][:, None] + np.arange(A_r.shape[1])
        A_all[states[:, :, None], states[:, None, :]] = A_r
        B_all[states], C_all[rows[:, None], states] = B_r, c[:, 0]
    out = []
    for H, lo, hi in zip(maps, starts, starts[1:]):
        row_part, col_part = _transfer_partitions(H)
        span, state_ends = slice(ends[lo], ends[hi]), ends[lo + np.array(row_part.offsets())]
        R = StateSpace(
            A_all[span, span].copy(), B_all[span].copy(), C_all[lo:hi, span].copy(), H.D,
            Partition(tuple(np.diff(state_ends).tolist())), col_part, row_part,
        )
        out.append((R, support[lo:hi]))
    return out


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


def _require_unit_feedthrough(R, name):
    """Raise unless s * H tends to the identity: its feedthrough C B, on a strictly proper R."""
    if np.max(np.abs(R.C @ R.B - np.eye(R.n_outputs))) > UNIT_FEEDTHROUGH:
        raise ConstraintViolated(
            f"s * {name} does not tend to the identity; the affine constraint fails"
        )


def _sf_cascade(Rx, Ru):
    """(s phi_u)(s phi_x)^-1 from strictly proper realizations of the two maps.

    s phi_x has the proper realization (A, B, C A, C B), whose feedthrough
    C B is the identity on an achievable pair; its inverse drives s phi_u.
    This cascade is the implementation v = x + (I - s phi_x) v,
    u = s phi_u v, with the states of phi_x first.
    """
    try:
        inv = inverse(_derivative(Rx))
    except IllPosedFeedback as exc:
        raise SingularPhiX("s * phi_x tends to a singular matrix") from exc
    return series(inv, _derivative(Ru))


def recover_controller_sf(cl):
    """Controller K = phi_u phi_x^-1 achieving a state-feedback closed-loop pair.

    Both maps are strictly proper, so K = (s phi_u)(s phi_x)^-1: the
    implementation cascade on realizations of the maps (rational maps are
    realized first), compressed to a minimal realization.
    """
    Rx, Ru = _realization(cl.phi_x, "phi_x"), _realization(cl.phi_u, "phi_u")
    return minimal_realization(_sf_cascade(Rx, Ru))


def implementation_realization_sf(cl, pattern=None):
    """Internal realization of the controller acting on the closed loops.

    Implements the update v = x + (I - s phi_x) v, u = s phi_u v as one
    state-space system from row-grouped realizations of both maps (made
    together when they share A and B, as the views of ``closed_loops_of``
    do), preserving transfer sparsity: when the closed loops conform to
    ``pattern`` the returned realization is structured node by node.

    Returns (system, witness) where witness is the structure check result
    against ``pattern`` (None when no pattern is given).
    """
    (Rx, _), (Ru, _) = _row_realizations([(cl.phi_x, "phi_x", True), (cl.phi_u, "phi_u", True)])
    _require_unit_feedthrough(Rx, "phi_x")
    impl = interleave_node_states(
        _sf_cascade(Rx, Ru), [Rx.state_partition, Ru.state_partition]
    )
    witness = None
    if pattern is not None:
        witness = check_realization_structure(impl, pattern)
    return impl, witness


_OF_MAPS = ("phi_xx", "phi_xy", "phi_ux", "phi_uy")


def _of_maps(cl4):
    """(H, name, strict) of the four output-feedback maps; only phi_uy may be proper."""
    return [(getattr(cl4, name), name, name != "phi_uy") for name in _OF_MAPS]


def check_of_constraints(cl4, plant):
    """Largest residual of the two output-feedback affine rows, decided on realizations.

    The left row (sI - A) [phi_xx phi_xy] - B2 [phi_ux phi_uy] = [I 0] is
    two calls of ``_affine_residual``.  The right row
    [phi_xx; phi_ux] (sI - A) - [phi_xy; phi_uy] C2 = [I; 0] is the left
    form on transposes, with (A', C2') in place of (A, B2).
    """
    if plant.C2 is None:
        raise ValueError("plant needs a measurement channel C2 for output feedback")
    A, B2, C2 = plant.A, plant.B2, plant.C2
    xx, xy, ux, uy = (_realization(*m) for m in _of_maps(cl4))
    n = plant.n
    return max(
        _affine_residual(xx, ux, A, B2, np.eye(n)),
        _affine_residual(xy, uy, A, B2, np.zeros((n, xy.n_inputs))),
        _affine_residual(_transpose(xx), _transpose(xy), A.T, C2.T, np.eye(n)),
        _affine_residual(_transpose(ux), _transpose(uy), A.T, C2.T, np.zeros((n, ux.n_outputs))),
    )


def _of_controller(xx, xy, ux, uy):
    """phi_uy - (s phi_ux) (1/s) (s phi_xx)^-1 (s phi_xy) from realizations of the maps.

    (1/s) (s phi_xx)^-1 = (1/s^2) phi_xx^-1 integrates the inverse of
    s phi_xx = (A, B, C A, C B), whose feedthrough C B is the identity on
    achievable loops (ConstraintViolated otherwise).  Every block of the
    cascade keeps its output map, so row-grouped realizations give a
    controller inside the pattern sparsity.  The states are stacked as
    [phi_xy, phi_xx, integrator, phi_ux, phi_uy].
    """
    _require_unit_feedthrough(xx, "phi_xx")
    n = xx.n_outputs
    integrator = StateSpace(np.zeros((n, n)), np.eye(n), np.eye(n), np.zeros((n, n)))
    L = series(inverse(_derivative(xx)), integrator)
    T = series(series(_derivative(xy), L), _derivative(ux))
    T_neg = StateSpace(
        T.A, T.B, -T.C, -T.D, in_partition=xy.in_partition, out_partition=uy.out_partition
    )
    return parallel(T_neg, uy)


def recover_controller_of(cl4):
    """Output-feedback controller phi_uy - phi_ux phi_xx^-1 phi_xy, minimally realized."""
    return minimal_realization(_of_controller(*(_realization(*m) for m in _of_maps(cl4))))


def of_structured_implementation(cl4, pattern):
    """Structured internal realization of the output-feedback controller.

    The cascade of ``_of_controller`` on row-grouped realizations of the
    four maps, with its states regrouped by node; each map's pattern
    check reads the support its realization was made with (one per
    shared A and B).  All blocks of the cascade have block-diagonal output
    maps, so the interconnection stays inside the pattern sparsity.

    Returns (system, witness).
    """
    realized = _row_realizations(_of_maps(cl4))
    for (H, name, _), (_, support) in zip(_of_maps(cl4), realized):
        map_pattern = _pattern_for(pattern, H)
        if support is not None:
            conforms = not np.any(support & ~_entry_pattern(map_pattern))
        else:
            conforms = is_tf_structured(H, map_pattern)
        if not conforms:
            raise NotTFStructured(f"{name} does not conform to the pattern")
    xx, xy, ux, uy = (R for R, _ in realized)
    groups = [xy.state_partition, xx.state_partition, xx.out_partition]
    groups += [ux.state_partition, uy.state_partition]
    impl = interleave_node_states(_of_controller(xx, xy, ux, uy), groups)
    witness = check_realization_structure(impl, _pattern_for(pattern, cl4.phi_uy))
    return impl, witness


def _pattern_for(pattern, H):
    """Pattern with the same graph but partitions matching H's shape."""
    return StructurePattern(pattern.graph, *_transfer_partitions(H))


@dataclass(frozen=True)
class RelativeEquivalence:
    """Outcome of the relative-feedback equivalence check."""

    k_relative: bool
    phi_u_relative: bool


def check_relative_equivalence(plant, K):
    """Check that K 1 = 0 and phi_u 1 = 0 agree for a relative-drift plant.

    The plant drift must annihilate the all-ones vector and B2 must have
    full row rank; under those hypotheses the two conditions are
    equivalent, and ConsistencyCheckFailed is raised when the flags
    differ.  Both flags come from ``relative.is_relative``, which decides
    a rational gain or a realization exactly; phi_u is judged on the
    realization ``closed_loops_of`` builds.
    """
    n = plant.n
    if not negligible(plant.A @ np.ones(n), plant.A, HYPOTHESIS):
        raise HypothesisViolated("plant drift does not annihilate the ones vector")
    if np.linalg.matrix_rank(plant.B2) < n:
        raise HypothesisViolated("B2 must have full row rank")
    k_rel = bool(is_relative(K))
    phi_rel = bool(is_relative(closed_loops_of(plant, K).phi_u))
    if k_rel != phi_rel:
        raise ConsistencyCheckFailed(
            f"relative feedback equivalence violated: K relative is {k_rel}, "
            f"phi_u relative is {phi_rel}"
        )
    return RelativeEquivalence(k_rel, phi_rel)
