"""Row realizations of closed loops that share a realization, and the stacked Krylov kernel.

``sls._row_realizations`` realizes the maps that share A and B together:
one support on their stacked rows, and every row's reachable subspace
grown in one ``statespace._invariant_subspaces`` call, a stack of items at
a time.  The per-item Krylov routine and the per-map row realization these
replaced are kept here as references: subspaces, realizations and
witnesses must match them bit for bit, and errors in class, message and
first failing map.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import entry_sum, random_proper_entry, scaled

import locrel.sls as sls
from locrel.consensus import proper_approximation, static_consensus_gain
from locrel.errors import LocrelError
from locrel.graphs import Graph, Partition, StructurePattern, b_hops, path_graph, ring_graph
from locrel.rational import RationalEntry, RationalMatrix
from locrel.sls import (
    ClosedLoopPair,
    Plant,
    _realization,
    _sf_cascade,
    closed_loops_of,
    implementation_realization_sf,
    of_structured_implementation,
    output_feedback_closed_loops,
)
from locrel.statespace import (
    StateSpace,
    _column_subspaces,
    _invariant_subspaces,
    block_diag,
    interleave_node_states,
    tf_of,
)
from locrel.structure import (
    _entry_pattern,
    _transfer_partitions,
    check_realization_structure,
    is_tf_structured,
    transfer_support,
)
from locrel.tolerances import TINY, ZERO

SWEEP = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def reference_invariant_subspace(A, V, norms=None):
    """The per-item Krylov routine the stacked one replaced."""
    n = A.shape[0]
    Q = np.zeros((n, 0))
    W = np.atleast_2d(V)
    a_norm, v_norm = norms if norms is not None else (np.linalg.norm(A), 0.0)
    floor, image_floor = ZERO * v_norm, ZERO * a_norm
    while W.shape[1] and Q.shape[1] < n:
        scale = np.linalg.norm(W)
        if scale <= max(floor, TINY):
            break
        W = W - Q @ (Q.T @ W)
        W = W - Q @ (Q.T @ W)
        U, sv, _ = np.linalg.svd(W, full_matrices=False)
        fresh = U[:, sv > max(ZERO * scale, floor)]
        if not fresh.shape[1]:
            break
        Q = np.hstack([Q, fresh])
        W = A @ fresh
        floor = image_floor
    return Q


def reference_row_realization(H, name, strict=True, support=None):
    """The per-map row realization the shared one replaced: one Krylov call per row."""
    R = _realization(H, name, strict)
    if isinstance(H, RationalMatrix):
        return R
    row_part, col_part = _transfer_partitions(H)
    if support is None:
        support = transfer_support(H)
    blocks = [None] * H.n_outputs
    for rows, Q in _column_subspaces(H.A.T, H.C.T):
        for i, Qi in zip(rows, Q):
            A, B, c = Qi.T @ H.A @ Qi, Qi.T @ H.B, H.C[i : i + 1] @ Qi
            B[:, ~support[i]] = 0.0
            P = reference_invariant_subspace(A, B)
            blocks[i] = (P.T @ A @ P, P.T @ B, c @ P)
    sizes = np.array([A.shape[0] for A, _, _ in blocks], dtype=int)
    offsets = row_part.offsets()
    return StateSpace(
        block_diag(*(A for A, _, _ in blocks)),
        np.vstack([B for _, B, _ in blocks]),
        block_diag(*(c for _, _, c in blocks)),
        H.D,
        state_partition=Partition(
            tuple(int(sizes[lo:hi].sum()) for lo, hi in zip(offsets, offsets[1:]))
        ),
        in_partition=col_part,
        out_partition=row_part,
    )


def reference_sf_implementation(cl, pattern=None):
    Rx = reference_row_realization(cl.phi_x, "phi_x")
    Ru = reference_row_realization(cl.phi_u, "phi_u")
    sls._require_unit_feedthrough(Rx, "phi_x")
    impl = interleave_node_states(_sf_cascade(Rx, Ru), [Rx.state_partition, Ru.state_partition])
    return impl, None if pattern is None else check_realization_structure(impl, pattern)


def reference_of_implementation(cl4, pattern):
    maps = {name: getattr(cl4, name) for name in sls._OF_MAPS}
    supports = {
        name: transfer_support(H) for name, H in maps.items() if isinstance(H, StateSpace)
    }
    xx, xy, ux, uy = (
        reference_row_realization(H, name, name != "phi_uy", supports.get(name))
        for name, H in maps.items()
    )
    for name, H in maps.items():
        map_pattern = sls._pattern_for(pattern, H)
        if name in supports:
            conforms = not np.any(supports[name] & ~_entry_pattern(map_pattern))
        else:
            conforms = is_tf_structured(H, map_pattern)
        if not conforms:
            raise sls.NotTFStructured(f"{name} does not conform to the pattern")
    groups = [xy.state_partition, xx.state_partition, xx.out_partition]
    groups += [ux.state_partition, uy.state_partition]
    impl = interleave_node_states(sls._of_controller(xx, xy, ux, uy), groups)
    return impl, check_realization_structure(impl, sls._pattern_for(pattern, cl4.phi_uy))


def bits(M):
    return M.shape, M.dtype, M.tobytes()


def outcome(f, *args):
    try:
        return "value", f(*args)
    except (LocrelError, ValueError) as exc:
        return "error", type(exc), str(exc)


def assert_same_outcome(got, want):
    """Bit-for-bit equal realizations and equal witnesses, or the same error."""
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "value", got
    (impl, witness), (ref, ref_witness) = got[1], want[1]
    for key in "ABCD":
        assert bits(getattr(impl, key)) == bits(getattr(ref, key)), key
    for key in ("state_partition", "in_partition", "out_partition"):
        assert getattr(impl, key) == getattr(ref, key), key
    assert witness == ref_witness


# -- the stacked Krylov kernel ---------------------------------------------------


@st.composite
def krylov_stacks(draw):
    """Stacks of items (A, V) with subspaces of every size.

    Each stack shares n and w; A has an invariant subspace of a drawn size
    that V may sit in, V may be tiny or have repeated columns, and half the
    draws pass norms, some large enough to stop an item at once.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for _ in range(draw(st.integers(1, 3))):
        g, n, w = draw(st.integers(1, 5)), draw(st.integers(0, 24)), draw(st.integers(0, 4))
        A = rng.standard_normal((g, n, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        V = rng.standard_normal((g, n, w))
        for i in range(g):
            r = int(rng.integers(0, n + 1))
            A[i, r:, :r] = 0.0
            kind = draw(st.sampled_from(["random", "inside", "tiny", "repeated"]))
            if kind == "inside":
                V[i, r:] = 0.0
            elif kind == "tiny":
                V[i] *= ZERO * draw(st.sampled_from([1e-3, 1.0, 1e3]))
            elif kind == "repeated" and w:
                V[i, :, -1] = V[i, :, 0]
        stacks.append((A, V))
    norms = None
    if draw(st.booleans()):
        norms = 10.0 ** rng.uniform(0.0, 8.0), 10.0 ** rng.uniform(-8.0, 8.0)
    return stacks, norms


@SWEEP
@given(krylov_stacks())
def test_stacked_subspaces_match_the_per_item_routine_bit_for_bit(case):
    stacks, norms = case
    found = {}
    for j, items, Q in _invariant_subspaces(stacks, norms):
        assert Q.shape == (items.size,) + Q.shape[1:]
        found.update(((j, int(i)), q) for i, q in zip(items, Q))
    assert sorted(found) == [(j, i) for j, (A, _) in enumerate(stacks) for i in range(len(A))]
    for (j, i), Q in found.items():
        A, V = stacks[j]
        assert bits(Q) == bits(reference_invariant_subspace(A[i], V[i], norms))


def test_one_item_of_transposed_views_matches_the_per_item_routine():
    # the observable step of minimal_realization grows on A.T and C.T
    rng = np.random.default_rng(7)
    for n, w in ((1, 1), (4, 1), (5, 2), (6, 3)):
        A, C = rng.standard_normal((n, n)), rng.standard_normal((w, n))
        for norms in (None, (3.0 * np.linalg.norm(A), np.linalg.norm(C))):
            ((_, _, Q),) = _invariant_subspaces([(A.T[None], C.T[None])], norms)
            assert bits(Q[0]) == bits(reference_invariant_subspace(A.T, C.T, norms))


# -- row realizations of closed loops ---------------------------------------------


def _stable(rng, n, shift=0.5):
    M = rng.standard_normal((n, n))
    return M - (np.max(np.linalg.eigvals(M).real) + shift) * np.eye(n)


@st.composite
def sf_cases(draw):
    """A state-feedback pair, perhaps altered so that a check fails, and a pattern.

    Plants: A zero or stable, B2 the identity or a full-rank square matrix.
    Controllers: static, state-space or rational.  The pair is the loop's
    two views, or its rational conversion (up to six states), or phi_u on a similar
    realization (no shared A and B).  An alteration gives phi_x or phi_u
    (or both) a feedthrough, or scales phi_x so that s phi_x does not tend
    to the identity.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    A = np.zeros((n, n)) if draw(st.booleans()) else _stable(rng, n)
    B2 = np.eye(n)
    if draw(st.booleans()):
        B2 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    kind = draw(st.sampled_from(["static", "state-space", "rational"]))
    if kind == "static":
        K = rng.standard_normal((n, n))
    elif kind == "state-space":
        nk = draw(st.integers(1, 3))
        D = rng.standard_normal((n, n)) if draw(st.booleans()) else np.zeros((n, n))
        K = StateSpace(_stable(rng, nk), rng.standard_normal((nk, n)), rng.standard_normal((n, nk)), D)
    else:
        K = RationalMatrix(
            [[random_proper_entry(rng) if rng.random() < 0.7 else RationalEntry.zero() for _ in range(n)]
             for _ in range(n)]
        )
    cl = closed_loops_of(Plant(A, np.eye(n), B2), K)
    form = draw(st.sampled_from(["shared", "shared", "similar", "rational"]))
    px, pu = cl.phi_x, cl.phi_u
    if form == "similar":
        T = rng.uniform(0.5, 2.0, pu.n_states)
        pu = StateSpace(
            pu.A * T[:, None] / T, pu.B * T[:, None], pu.C / T, pu.D,
            in_partition=pu.in_partition, out_partition=pu.out_partition,
        )
    elif form == "rational" and px.n_states <= 6:
        # rational conversion of larger loops can lose accuracy (tf_of raises)
        px, pu = tf_of(px), tf_of(pu)
    alter = draw(st.sampled_from(["none", "none", "phi_x D", "phi_u D", "both D", "phi_x scale"]))
    px = _altered(px, alter in ("phi_x D", "both D"), alter == "phi_x scale")
    pu = _altered(pu, alter in ("phi_u D", "both D"), False)
    graphs = {
        "none": None,
        "complete": Graph(np.ones((n, n), dtype=bool)),
        "path": path_graph(n),
        "isolated": Graph(np.eye(n, dtype=bool)),
    }
    graph = graphs[draw(st.sampled_from(sorted(graphs)))]
    pattern = None if graph is None else StructurePattern.scalar(graph)
    return ClosedLoopPair(px, pu), pattern


def _altered(H, feed, scale):
    """H with a feedthrough added (``feed``) or its output scaled by 1.5 (``scale``)."""
    if not (feed or scale):
        return H
    if isinstance(H, RationalMatrix):
        entries = [list(row) for row in H.entries]
        entries[0][0] = entry_sum(entries[0][0], RationalEntry([1.0])) if feed else scaled(1.5, entries[0][0])
        return RationalMatrix(entries, H.row_partition, H.col_partition)
    D = H.D + (np.eye(*H.D.shape) if feed else 0.0)
    C = 1.5 * H.C if scale else H.C
    return StateSpace(H.A, H.B, C, D, H.state_partition, H.in_partition, H.out_partition)


@st.composite
def of_cases(draw):
    """Output-feedback loops of a ring under the proper approximation or a static ring gain."""
    n = draw(st.integers(3, 6))
    A = -np.eye(n) if draw(st.booleans()) else np.zeros((n, n))
    K = proper_approximation(n, -10.0) if draw(st.booleans()) else static_consensus_gain(n)
    cl4 = output_feedback_closed_loops(Plant(A, np.eye(n), np.eye(n), C2=np.eye(n)), K)
    return cl4, StructurePattern.scalar(b_hops(ring_graph(n), draw(st.integers(1, 3))))


def check_sf(case):
    cl, pattern = case
    got = outcome(implementation_realization_sf, cl, pattern)
    assert_same_outcome(got, outcome(reference_sf_implementation, cl, pattern))
    return got


def check_of(case):
    got = outcome(of_structured_implementation, *case)
    assert_same_outcome(got, outcome(reference_of_implementation, *case))
    return got


def _label(got):
    return "value" if got[0] == "value" else f"{got[1].__name__}: {got[2]}"


@SWEEP
@given(sf_cases())
def test_sf_implementation_matches_the_per_map_route(case):
    check_sf(case)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(of_cases())
def test_of_implementation_matches_the_per_map_route(case):
    check_of(case)


def test_the_draws_reach_a_value_and_every_error():
    seen = set()

    @SWEEP
    @given(sf_cases())
    def record_sf(case):
        seen.add(("sf", _label(check_sf(case))))

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(of_cases())
    def record_of(case):
        seen.add(("of", _label(check_of(case))))

    record_sf()
    record_of()
    assert ("sf", "value") in seen and ("of", "value") in seen
    for label in (
        "ConstraintViolated: phi_x must be strictly proper",
        "ConstraintViolated: phi_u must be strictly proper",
        "ConstraintViolated: s * phi_x does not tend to the identity; the affine constraint fails",
    ):
        assert ("sf", label) in seen
    assert ("of", "NotTFStructured: phi_xx does not conform to the pattern") in seen


def test_one_support_and_one_krylov_call_per_shared_realization(monkeypatch):
    supports, calls = [], []

    def counting_support(H):
        supports.append(H.n_outputs)
        return transfer_support(H)

    def counting_subspaces(stacks, *args, **kwargs):
        stacks = list(stacks)
        calls.append([len(A) for A, _ in stacks])
        return _invariant_subspaces(stacks, *args, **kwargs)

    monkeypatch.setattr(sls, "transfer_support", counting_support)
    monkeypatch.setattr(sls, "_invariant_subspaces", counting_subspaces)
    n = 8
    plant = Plant(np.zeros((n, n)), np.eye(n), np.eye(n))
    implementation_realization_sf(closed_loops_of(plant, proper_approximation(n, -10.0)))
    # phi_x and phi_u stacked: 2n rows, one support and one call whose
    # stacks (one per observable dimension) hold every row
    assert supports == [2 * n]
    assert len(calls) == 1 and sum(calls[0]) == 2 * n and len(calls[0]) < 2 * n
    supports.clear()
    calls.clear()
    pattern = StructurePattern.scalar(Graph(np.ones((n, n), dtype=bool)))
    cl4 = output_feedback_closed_loops(
        Plant(-np.eye(n), np.eye(n), np.eye(n), C2=np.eye(n)), proper_approximation(n, -10.0)
    )
    of_structured_implementation(cl4, pattern)
    # (phi_xx, phi_ux) and (phi_xy, phi_uy) share their realizations
    assert supports == [2 * n, 2 * n]
    assert len(calls) == 2 and all(sum(c) == 2 * n and len(c) < 2 * n for c in calls)
