"""Closed-loop parameterization: constraints, recovery, implementations."""

import numpy as np
import pytest
from conftest import (
    chain3_controller,
    chain3_phi_u,
    chain3_phi_x,
    chain_pattern,
    random_proper_entry,
)

from locrel.errors import (
    ConstraintViolated,
    HypothesisViolated,
    NoRealization,
    NoSamplesEvaluated,
    SingularAtS,
    SingularPhiX,
)
from locrel.consensus import proper_approximation, static_consensus_gain
from locrel.graphs import Graph, Partition, StructurePattern, laplacian, path_graph, ring_graph
from locrel.rational import RationalEntry, RationalMatrix
from locrel.sls import (
    ClosedLoopPair,
    OutputFeedbackClosedLoops,
    Plant,
    _row_realization,
    check_affine_constraint,
    check_of_constraints,
    check_relative_equivalence,
    closed_loops_of,
    implementation_realization_sf,
    of_structured_implementation,
    output_feedback_closed_loops,
    recover_controller_of,
    recover_controller_sf,
    sample_points,
)
from locrel.statespace import StateSpace, tf_of
from locrel.structure import transfer_support


def chain_plant():
    """Three single integrators, disturbance and control on every node."""
    n = 3
    return Plant(A=np.zeros((n, n)), B1=np.eye(n), B2=np.eye(n))


def chain_pair():
    return ClosedLoopPair(chain3_phi_x(), chain3_phi_u())


# first row of 23 * K(1) for the chain design, frozen by hand from the
# closed-form controller evaluated at s = 1
CHAIN_K1_TIMES_23 = np.array(
    [
        [-9.0, 18.0, -6.0],
        [18.0, -13.0, 12.0],
        [-6.0, 12.0, -4.0],
    ]
)


def test_sample_points_deterministic():
    assert sample_points(5, 3) == sample_points(5, 3)
    for s in sample_points(7, 0):
        assert 0.5 <= s.real <= 3.0
        assert abs(s.imag) <= 3.0


def test_chain_closed_loops_match_design():
    cl = closed_loops_of(chain_plant(), chain3_controller())
    for s in (1.0, 2.0 + 1.0j):
        px, pu = cl.evaluate(s)
        assert np.max(np.abs(px - chain3_phi_x().evaluate(s))) < 1e-8
        assert np.max(np.abs(pu - chain3_phi_u().evaluate(s))) < 1e-8


def test_chain_pair_satisfies_affine_constraint():
    assert check_affine_constraint(chain_pair(), chain_plant()) < 1e-9


def test_affine_constraint_flags_perturbation():
    phi_u = chain3_phi_u()
    bumped = [[phi_u[i, j] for j in range(3)] for i in range(3)]
    bumped[0][1] = bumped[0][1] + RationalEntry([0.1], [0.0, 1.0])
    cl = ClosedLoopPair(chain3_phi_x(), RationalMatrix(bumped))
    assert check_affine_constraint(cl, chain_plant()) > 0.05


def test_affine_constraint_flags_improper_pair():
    # phi_x = I/s + E and phi_u = s E satisfy the affine identity exactly
    # but are not strictly proper; the decay probe must reject them
    n = 3
    E = 0.2
    px = [
        [
            RationalEntry([1.0 if i == j else 0.0, E], [0.0, 1.0])
            for j in range(n)
        ]
        for i in range(n)
    ]
    pu = [[RationalEntry([0.0, E]) for _ in range(n)] for _ in range(n)]
    cl = ClosedLoopPair(RationalMatrix(px), RationalMatrix(pu))
    assert check_affine_constraint(cl, chain_plant()) >= 1.0


def test_recovered_chain_controller_matches_closed_form():
    K = recover_controller_sf(chain_pair())
    assert isinstance(K, StateSpace)
    assert np.max(np.abs(23.0 * K.evaluate(1.0) - CHAIN_K1_TIMES_23)) < 1e-8
    ref = chain3_controller()
    for s in (1.0, 2.0 + 1.0j, 0.3 - 0.4j):
        assert np.max(np.abs(K.evaluate(s) - ref.evaluate(s))) < 1e-8


def test_recovery_round_trip_static(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        plant = Plant(
            A=rng.standard_normal((n, n)),
            B1=np.eye(n),
            B2=np.eye(n),
        )
        K0 = rng.standard_normal((n, n))
        cl = closed_loops_of(plant, K0)
        K = recover_controller_sf(cl)
        assert isinstance(K, StateSpace)
        for s in sample_points(4, 11):
            assert np.max(np.abs(K.evaluate(s) - K0)) < 1e-8


def test_recovery_of_zero_controller():
    plant = chain_plant()
    K = recover_controller_sf(closed_loops_of(plant, np.zeros((3, 3))))
    for s in sample_points(3, 2):
        assert np.max(np.abs(K.evaluate(s))) < 1e-12


def test_recovery_round_trip_dynamic(rng):
    for _ in range(5):
        n = 2
        plant = Plant(A=rng.standard_normal((n, n)), B1=np.eye(n), B2=np.eye(n))
        grid = [[random_proper_entry(rng, max_deg=1) for _ in range(n)] for _ in range(n)]
        K0 = RationalMatrix(grid)
        cl = closed_loops_of(plant, K0)
        K = recover_controller_sf(cl)
        assert isinstance(K, StateSpace)
        for s in sample_points(4, 5):
            ref = K0.evaluate(s)
            assert np.max(np.abs(K.evaluate(s) - ref)) < 1e-8 * (
                1.0 + np.max(np.abs(ref))
            )


def test_recovery_large_static_pair_is_a_static_realization():
    n = 8
    plant = Plant(A=-np.eye(n), B1=np.eye(n), B2=np.eye(n))
    K0 = np.diag(np.arange(1.0, n + 1.0))
    cl = closed_loops_of(plant, K0)
    K = recover_controller_sf(cl)
    assert isinstance(K, StateSpace) and K.n_states == 0
    assert np.max(np.abs(K.evaluate(1.3 + 0.2j) - K0)) < 1e-8


def test_recovery_rejects_singular_phi_x():
    zero = RationalMatrix.from_real(np.zeros((2, 2)))
    with pytest.raises(SingularPhiX):
        recover_controller_sf(ClosedLoopPair(zero, zero))


def test_implementation_matches_recovered_controller():
    impl, witness = implementation_realization_sf(chain_pair(), chain_pattern(3))
    assert witness is not None
    assert witness.structured
    ref = chain3_controller()
    for s in (1.0, 2.0 + 1.0j, 0.7 - 1.1j):
        assert np.max(np.abs(impl.evaluate(s) - ref.evaluate(s))) < 1e-8


def test_implementation_without_pattern_has_no_witness():
    impl, witness = implementation_realization_sf(chain_pair())
    assert witness is None
    assert np.max(np.abs(impl.evaluate(1.0) - chain3_controller().evaluate(1.0))) < 1e-8


def test_implementation_rejects_violated_constraint():
    # doubling phi_x breaks s * phi_x -> I
    phi_x = chain3_phi_x().map(lambda e: e + e)
    with pytest.raises(ConstraintViolated):
        implementation_realization_sf(ClosedLoopPair(phi_x, chain3_phi_u()))


def test_implementation_rejects_improper_loops():
    phi_u = chain3_phi_u().map(lambda e: e + RationalEntry.one())
    with pytest.raises(ConstraintViolated):
        implementation_realization_sf(ClosedLoopPair(chain3_phi_x(), phi_u))


RING_POLE = -10.0
PROBES = (1.0, 0.5 + 2.0j, 3.0 - 1.0j, 0.2 - 0.7j, 2.5 + 0.3j)


def ring_case(n):
    """Ring integrators under the proper approximation K = -a/(s - a) Ks."""
    plant = Plant(A=np.zeros((n, n)), B1=np.eye(n), B2=np.eye(n))
    Ks = static_consensus_gain(n)
    cl = closed_loops_of(plant, proper_approximation(n, RING_POLE))
    return plant, cl, lambda s: -RING_POLE / (s - RING_POLE) * Ks


def weighted_path_laplacian(weights):
    n = len(weights) + 1
    L = np.zeros((n, n))
    for i, w in enumerate(weights):
        L[[i, i + 1], [i, i + 1]] += w
        L[[i, i + 1], [i + 1, i]] -= w
    return L


def chain_case(n, rng):
    """Stable weighted chain under a static relative chain gain."""
    A = -weighted_path_laplacian(rng.uniform(0.5, 2.0, n - 1)) - np.diag(rng.uniform(0.2, 1.0, n))
    K = -weighted_path_laplacian(rng.uniform(0.5, 2.0, n - 1))
    plant = Plant(A=A, B1=np.eye(n), B2=np.eye(n))
    return plant, closed_loops_of(plant, K), lambda s: K


def state_space_cases(rng):
    for n in range(4, 17):
        yield n, StructurePattern.scalar(ring_graph(n)), ring_case(n)
    for n in range(3, 7):
        yield n, StructurePattern.scalar(path_graph(n)), chain_case(n, rng)


def relative_error(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def test_implementation_of_state_space_loops(rng):
    for n, pattern, (_, cl, K) in state_space_cases(rng):
        impl, witness = implementation_realization_sf(cl, pattern)
        for s in PROBES:
            assert relative_error(impl.evaluate(s), K(s)) < 1e-9
        for R in (_row_realization(cl.phi_x, "phi_x"), _row_realization(cl.phi_u, "phi_u")):
            assert max(R.state_partition.block_sizes) <= cl.phi_x.n_states
        if n <= 6:
            rational = ClosedLoopPair(tf_of(cl.phi_x), tf_of(cl.phi_u))
            _, want = implementation_realization_sf(rational, pattern)
            assert witness == want


def test_implementation_of_chain_design_from_state_space_loops():
    cl = closed_loops_of(chain_plant(), chain3_controller())
    impl, witness = implementation_realization_sf(cl, chain_pattern(3))
    assert witness.structured
    # a row's states are driven only by the inputs that row responds to
    for H in (cl.phi_x, cl.phi_u):
        R = _row_realization(H, "loop")
        rows = np.repeat(np.arange(3), R.state_partition.block_sizes)
        assert not np.any(R.B[~transfer_support(H)[rows]])
    for s in PROBES:
        want = chain3_controller().evaluate(s)
        assert relative_error(impl.evaluate(s), want) < 1e-9


def test_implementation_rejects_state_space_feedthrough():
    cl = closed_loops_of(chain_plant(), chain3_controller())
    phi_u = cl.phi_u
    bumped = StateSpace(phi_u.A, phi_u.B, phi_u.C, phi_u.D + 0.1)
    for pair in (ClosedLoopPair(cl.phi_x, bumped), ClosedLoopPair(bumped, cl.phi_u)):
        with pytest.raises(ConstraintViolated):
            implementation_realization_sf(pair)
        with pytest.raises(ConstraintViolated):
            recover_controller_sf(pair)


@pytest.mark.parametrize("n", [8, 32])
def test_ring_recovery_is_minimal_and_reproduces_loops(n):
    plant, cl, K_of = ring_case(n)
    K = recover_controller_sf(cl)
    # the Laplacian's ones mode never reaches the controller's output
    assert isinstance(K, StateSpace) and K.n_states == n - 1
    again = closed_loops_of(plant, K)
    for s in PROBES:
        assert relative_error(K.evaluate(s), K_of(s)) < 1e-9
        for got, want in zip(again.evaluate(s), cl.evaluate(s)):
            assert relative_error(got, want) < 1e-9


def test_frequency_form_loops_have_no_realization():
    plant = Plant(
        A=-np.eye(2), B1=np.eye(2), B2=np.eye(2), C2=np.eye(2)
    )
    cl4 = output_feedback_closed_loops(plant, -np.eye(2))
    pattern = StructurePattern.scalar(Graph(np.ones((2, 2), dtype=bool)))
    with pytest.raises(NoRealization):
        of_structured_implementation(cl4, pattern)
    pair = ClosedLoopPair(cl4.phi_xx, cl4.phi_ux)
    with pytest.raises(NoRealization):
        implementation_realization_sf(pair, pattern)
    with pytest.raises(NoRealization):
        recover_controller_sf(pair)


def scalar_of_tuple():
    """Closed loops of dx = -x + u, y = x under u = -y/(s+2)."""
    char = [3.0, 3.0, 1.0]  # s^2 + 3 s + 3
    pxx = RationalEntry([2.0, 1.0], char)
    pxy = RationalEntry([-1.0], char)
    pux = RationalEntry([-1.0], char)
    puy = RationalEntry([-1.0, -1.0], char)
    as_matrix = lambda e: RationalMatrix([[e]])
    return OutputFeedbackClosedLoops(
        as_matrix(pxx), as_matrix(pxy), as_matrix(pux), as_matrix(puy)
    )


def scalar_of_plant():
    return Plant(
        A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C2=[[1.0]]
    )


def test_output_feedback_constraints_scalar():
    cl4 = scalar_of_tuple()
    assert check_of_constraints(cl4, scalar_of_plant()) < 1e-10


class _SingularEverywhere:
    """A closed-loop map with a pole at every point it is evaluated at."""

    def evaluate(self, s):
        raise SingularAtS(f"singular at s = {s}")


def test_sampled_checks_refuse_zero_evaluated_samples():
    # a residual over no samples would read 0.0, a pass
    sing = _SingularEverywhere()
    with pytest.raises(NoSamplesEvaluated):
        check_affine_constraint(ClosedLoopPair(sing, sing), chain_plant())
    with pytest.raises(NoSamplesEvaluated):
        check_of_constraints(
            OutputFeedbackClosedLoops(sing, sing, sing, sing), scalar_of_plant()
        )


def test_output_feedback_constraints_random_static(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        plant = Plant(
            A=rng.standard_normal((n, n)),
            B1=np.eye(n),
            B2=rng.standard_normal((n, n)),
            C2=rng.standard_normal((n, n)),
        )
        K0 = 0.5 * rng.standard_normal((n, n))
        cl4 = output_feedback_closed_loops(plant, K0)
        assert check_of_constraints(cl4, plant) < 1e-9
        K = recover_controller_of(cl4)
        for s in sample_points(3, 7):
            assert np.max(np.abs(K.evaluate(s) - K0)) < 1e-7


def test_output_feedback_recovery_scalar():
    K = recover_controller_of(scalar_of_tuple())
    for s in (1.0, 0.5 + 2.0j):
        want = -1.0 / (s + 2.0)
        assert abs(K.evaluate(s)[0, 0] - want) < 1e-10


def test_of_implementation_scalar():
    pattern = StructurePattern.scalar(Graph(np.ones((1, 1), dtype=bool)))
    impl, witness = of_structured_implementation(scalar_of_tuple(), pattern)
    assert witness.structured
    for s in (1.0, 0.5 + 2.0j, 3.0 - 1.0j):
        want = -1.0 / (s + 2.0)
        assert abs(impl.evaluate(s)[0, 0] - want) < 1e-8


def test_of_implementation_decoupled_pair():
    # two independent loops: dx_i = -x_i + u_i, u_i = k_i y_i
    ks = (-1.0, -2.0)
    blocks = []
    for k in ks:
        char = [1.0 - k, 1.0]  # s + 1 - k
        blocks.append(
            (
                RationalEntry([1.0], char),
                RationalEntry([k], char),
                RationalEntry([k], char),
                RationalEntry([k, k], char),  # k (s + 1) / (s + 1 - k)
            )
        )
    zero = RationalEntry.zero()
    build = lambda idx: RationalMatrix(
        [
            [blocks[0][idx], zero],
            [zero, blocks[1][idx]],
        ]
    )
    cl4 = OutputFeedbackClosedLoops(build(0), build(1), build(2), build(3))
    pattern = StructurePattern.scalar(Graph(np.eye(2, dtype=bool)))
    impl, witness = of_structured_implementation(cl4, pattern)
    assert witness.structured
    assert witness.network
    for s in (1.0, 1.2 - 0.8j):
        got = impl.evaluate(s)
        assert np.max(np.abs(got - np.diag(ks))) < 1e-8
        assert abs(got[0, 1]) < 1e-10 and abs(got[1, 0]) < 1e-10


def test_relative_equivalence_flags(rng):
    from locrel.consensus import static_consensus_gain
    from locrel.graphs import laplacian, ring_graph

    n = 4
    plant = Plant(A=-laplacian(ring_graph(n)).astype(float), B1=np.eye(n), B2=np.eye(n))
    res = check_relative_equivalence(plant, static_consensus_gain(n))
    assert res.k_relative and res.phi_u_relative
    res = check_relative_equivalence(plant, np.eye(n))
    assert not res.k_relative and not res.phi_u_relative


def test_relative_equivalence_requires_relative_drift():
    plant = Plant(A=np.eye(2), B1=np.eye(2), B2=np.eye(2))
    with pytest.raises(HypothesisViolated):
        check_relative_equivalence(plant, np.zeros((2, 2)))


def test_relative_equivalence_requires_full_rank_actuation():
    plant = Plant(
        A=np.zeros((2, 2)), B1=np.eye(2), B2=np.array([[1.0], [0.0]])
    )
    with pytest.raises(HypothesisViolated):
        check_relative_equivalence(plant, np.zeros((1, 2)))


def test_static_gain_on_two_state_nodes_gets_the_node_partition():
    # a 4-node ring whose nodes carry 2 states each, under a static gain
    # given as a plain array: phi_u is grouped by node like phi_x
    L = laplacian(ring_graph(4))
    oscillator = np.array([[0.0, 1.0], [-1.0, -0.5]])
    A = np.kron(-L, np.eye(2)) + np.kron(np.eye(4), oscillator)
    part = Partition((2, 2, 2, 2))
    plant = Plant(A=A, B1=np.eye(8), B2=np.eye(8), node_partition=part)
    K = -np.kron(L, np.array([[1.0, 0.2], [0.0, 1.0]]))
    cl = closed_loops_of(plant, K)
    assert cl.phi_u.out_partition == part
    impl, _ = implementation_realization_sf(cl)
    assert impl.state_partition.n_blocks == 4
    for s in PROBES:
        assert relative_error(impl.evaluate(s), K) < 1e-9
    # a gain of the wrong shape keeps its error
    with pytest.raises(ValueError, match="controller maps"):
        closed_loops_of(plant, np.zeros((8, 6)))
