"""Closed-loop parameterization: constraints, recovery, implementations."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    chain3_controller,
    chain3_phi_u,
    chain3_phi_x,
    chain_pattern,
    entry_sum,
    random_proper_entry,
)

import locrel.sls as sls
from locrel.errors import (
    ConstraintViolated,
    HypothesisViolated,
    NoRealization,
    NotTFStructured,
    SingularPhiX,
)
from locrel.consensus import proper_approximation, static_consensus_gain, static_gain_realization
from locrel.graphs import (
    Graph,
    Partition,
    StructurePattern,
    b_hops,
    laplacian,
    path_graph,
    ring_graph,
)
from locrel.rational import RationalEntry, RationalMatrix
from locrel.sls import (
    ClosedLoopPair,
    OutputFeedbackClosedLoops,
    Plant,
    _row_realizations,
    check_affine_constraint,
    check_of_constraints,
    check_relative_equivalence,
    closed_loops_of,
    implementation_realization_sf,
    of_structured_implementation,
    output_feedback_closed_loops,
    recover_controller_of,
    recover_controller_sf,
)
from locrel.statespace import StateSpace, parallel, series, tf_of
from locrel.structure import is_tf_structured, transfer_support


def row_realization(H, name):
    """The one-map case of ``_row_realizations``."""
    ((R, _),) = _row_realizations([(H, name, True)])
    return R


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


# fixed right-half-plane probe points, off every stable pole
PROBES = (1.0, 0.5 + 2.0j, 3.0 - 1.0j, 0.2 - 0.7j, 2.5 + 0.3j)


def test_chain_closed_loops_match_design():
    cl = closed_loops_of(chain_plant(), chain3_controller())
    for s in (1.0, 2.0 + 1.0j):
        px, pu = cl.phi_x.evaluate(s), cl.phi_u.evaluate(s)
        assert np.max(np.abs(px - chain3_phi_x().evaluate(s))) < 1e-8
        assert np.max(np.abs(pu - chain3_phi_u().evaluate(s))) < 1e-8


def test_chain_pair_satisfies_affine_constraint():
    assert check_affine_constraint(chain_pair(), chain_plant()) < 1e-9


def bumped_chain_pair():
    """The chain design with 0.1 / s added to phi_u[0, 1]."""
    phi_u = chain3_phi_u()
    bumped = [[phi_u[i, j] for j in range(3)] for i in range(3)]
    bumped[0][1] = entry_sum(bumped[0][1], RationalEntry([0.1], [0.0, 1.0]))
    return ClosedLoopPair(chain3_phi_x(), RationalMatrix(bumped))


def test_affine_constraint_flags_perturbation():
    assert check_affine_constraint(bumped_chain_pair(), chain_plant()) > 0.05


def sympy_matrix(H, s):
    """A rational matrix in exact arithmetic; its coefficients are short decimals."""

    def poly(coeffs):
        return sum(sympy.nsimplify(float(c), rational=True) * s**k for k, c in enumerate(coeffs))

    return sympy.Matrix([[poly(e.num) / poly(e.den) for e in row] for row in H.entries])


def test_chain_residuals_in_exact_arithmetic():
    # (sI - A) phi_x - B2 phi_u - I with A = 0 and B2 = I, simplified by sympy
    s = sympy.symbols("s")

    def residual(cl):
        px, pu = sympy_matrix(cl.phi_x, s), sympy_matrix(cl.phi_u, s)
        return (s * px - pu - sympy.eye(3)).applyfunc(sympy.simplify)

    assert residual(chain_pair()) == sympy.zeros(3, 3)
    want = sympy.zeros(3, 3)
    want[0, 1] = -sympy.Rational(1, 10) / s
    assert residual(bumped_chain_pair()) == want
    # the exact check reads the first as zero and the second as at least
    # the leading coefficient of its residual, 0.1
    assert check_affine_constraint(chain_pair(), chain_plant()) < 1e-12
    assert check_affine_constraint(bumped_chain_pair(), chain_plant()) >= 0.1 * (1 - 1e-9)


def stable_matrix(rng, n):
    X = rng.standard_normal((n, n))
    return X - (np.max(np.linalg.eigvals(X).real) + rng.uniform(0.5, 2.0)) * np.eye(n)


def random_controller(rng, n_states, n_out, n_in):
    """A static gain (no states) or a stable StateSpace controller."""
    if n_states == 0:
        return rng.standard_normal((n_out, n_in))
    return StateSpace(
        stable_matrix(rng, n_states),
        rng.standard_normal((n_states, n_in)),
        rng.standard_normal((n_out, n_states)),
        rng.standard_normal((n_out, n_in)),
    )


@st.composite
def state_feedback_cases(draw):
    """A stable plant, B2 = I or random, under a static or 1-2 state controller."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = n if draw(st.booleans()) else draw(st.integers(1, n))
    B2 = np.eye(n) if m == n and draw(st.booleans()) else rng.standard_normal((n, m))
    plant = Plant(stable_matrix(rng, n), np.eye(n), B2)
    K = random_controller(rng, draw(st.integers(0, 2)), m, n)
    entry = (draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)))
    return plant, K, entry


@settings(max_examples=150, deadline=None)
@given(state_feedback_cases(), st.floats(1e-4, 1.0), st.floats(0.1, 5.0))
def test_exact_affine_residual_property(case, eps, pole):
    plant, K, (i, j) = case
    cl = closed_loops_of(plant, K)
    scale = 1.0 + np.max(np.abs(cl.phi_x.A))
    assert check_affine_constraint(cl, plant) <= 1e-9 * scale
    # the same phi_u on the same A but another B is a second realization
    pu = cl.phi_u
    split = ClosedLoopPair(cl.phi_x, StateSpace(pu.A, 2.0 * pu.B, pu.C / 2.0, pu.D))
    assert check_affine_constraint(split, plant) <= 1e-9 * scale
    # eps / (s + pole) on phi_u[i, j] leaves the residual -B2[:, i] eps / (s + pole) e_j',
    # whose leading coefficient is eps times column i of B2
    n, m = plant.n, plant.n_inputs
    bump = StateSpace([[-pole]], np.eye(1, n, j), eps * np.eye(m, 1, -i), np.zeros((m, n)))
    bumped = ClosedLoopPair(cl.phi_x, parallel(cl.phi_u, bump))
    floor = eps * np.max(np.abs(plant.B2[:, i]))
    assert check_affine_constraint(bumped, plant) >= floor * (1 - 1e-6)
    # eps / (s + pole)^2 has no leading coefficient, but both of its states
    # are reachable, so the reading keeps the same floor
    b, c = np.outer([0.0, 1.0], np.eye(n)[j]), np.outer(eps * np.eye(m)[i], [1.0, 0.0])
    bump = StateSpace([[-pole, 1.0], [0.0, -pole]], b, c, np.zeros((m, n)))
    bumped = ClosedLoopPair(cl.phi_x, parallel(cl.phi_u, bump))
    assert check_affine_constraint(bumped, plant) >= floor * (1 - 1e-6)
    # (1 + eps) phi_x leaves eps (sI - A) phi_x, whose feedthrough is eps I
    px = cl.phi_x
    scaled = ClosedLoopPair(StateSpace(px.A, px.B, (1 + eps) * px.C, px.D), cl.phi_u)
    assert check_affine_constraint(scaled, plant) >= eps * (1 - 1e-6)


def test_affine_constraint_flags_improper_pair():
    # phi_x = I/s + E and phi_u = s E satisfy the affine identity exactly
    # but are not strictly proper, so no controller achieves them
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
    with pytest.raises(ConstraintViolated):
        check_affine_constraint(cl, chain_plant())


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
        for s in PROBES[:4]:
            assert np.max(np.abs(K.evaluate(s) - K0)) < 1e-8


def test_recovery_of_zero_controller():
    plant = chain_plant()
    K = recover_controller_sf(closed_loops_of(plant, np.zeros((3, 3))))
    for s in PROBES[:3]:
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
        for s in PROBES[:4]:
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
    phi_x = RationalMatrix([[entry_sum(e, e) for e in row] for row in chain3_phi_x().entries])
    with pytest.raises(ConstraintViolated):
        implementation_realization_sf(ClosedLoopPair(phi_x, chain3_phi_u()))


def test_implementation_agrees_with_recovery_off_unit_feedthrough(rng):
    # C B = I + delta with every |delta| below UNIT_FEEDTHROUGH passes the
    # check, and the implementation inverts C B as the recovery does
    n = 6
    _, cl, _ = ring_case(n)
    px = cl.phi_x
    delta = 0.9e-7 * rng.choice([-1.0, 1.0], size=(n, n))
    bent = ClosedLoopPair(StateSpace(px.A, px.B, (np.eye(n) + delta) @ px.C, px.D), cl.phi_u)
    impl, _ = implementation_realization_sf(bent)
    K = recover_controller_sf(bent)
    for s in PROBES:
        assert relative_error(impl.evaluate(s), K.evaluate(s)) < 1e-10


def test_implementation_rejects_improper_loops():
    phi_u = RationalMatrix([[entry_sum(e, RationalEntry([1.0])) for e in row] for row in chain3_phi_u().entries])
    with pytest.raises(ConstraintViolated):
        implementation_realization_sf(ClosedLoopPair(chain3_phi_x(), phi_u))


RING_POLE = -10.0


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
        for R in (row_realization(cl.phi_x, "phi_x"), row_realization(cl.phi_u, "phi_u")):
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
        R = row_realization(H, "loop")
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
        for got, want in ((again.phi_x, cl.phi_x), (again.phi_u, cl.phi_u)):
            assert relative_error(got.evaluate(s), want.evaluate(s)) < 1e-9


def test_output_feedback_loops_of_minus_identity_implement_and_recover():
    plant = Plant(
        A=-np.eye(2), B1=np.eye(2), B2=np.eye(2), C2=np.eye(2)
    )
    cl4 = output_feedback_closed_loops(plant, -np.eye(2))
    pattern = StructurePattern.scalar(Graph(np.ones((2, 2), dtype=bool)))
    impl, witness = of_structured_implementation(cl4, pattern)
    assert witness.structured
    K = recover_controller_of(cl4)
    assert isinstance(K, StateSpace) and K.n_states == 0
    # with C2 = I the state-on-state and input-on-state maps are the
    # state-feedback pair of the same gain
    pair = ClosedLoopPair(cl4.phi_xx, cl4.phi_ux)
    sf_impl, _ = implementation_realization_sf(pair, pattern)
    for s in PROBES:
        for got in (impl.evaluate(s), K.evaluate(s), sf_impl.evaluate(s)):
            assert np.max(np.abs(got + np.eye(2))) < 1e-9
        assert np.max(np.abs(recover_controller_sf(pair).evaluate(s) + np.eye(2))) < 1e-9


@pytest.mark.parametrize("n", (4, 7))
def test_integrator_loops_are_the_resolvent_of_the_controller(n):
    # the gap report's loops: phi_x of dx = u + w, u = K x is (sI - K(s))^-1,
    # for the static ring gain and its low-pass version -a/(s - a) K_s
    plant = Plant(np.zeros((n, n)), np.eye(n), np.eye(n))
    Ks, a = static_consensus_gain(n), -10.0
    controllers = (
        (static_gain_realization(n), lambda s: Ks),
        (proper_approximation(n, a), lambda s: -a / (s - a) * Ks),
    )
    for K, gain in controllers:
        phi_x = closed_loops_of(plant, K).phi_x
        for s in PROBES:
            want = np.linalg.inv(s * np.eye(n) - gain(s))
            assert np.max(np.abs(phi_x.evaluate(s) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_states", (0, 1, 2))
@pytest.mark.parametrize("node_states", (1, 2))
def test_state_feedback_loops_are_output_feedback_loops_with_identity_c2(rng, n_states, node_states):
    # phi_x and phi_u read y = x with no product; the output-feedback loops
    # multiply by C2 = I, which leaves every entry as it was
    n = 3 * node_states
    A, B2, part = stable_matrix(rng, n), rng.standard_normal((n, n)), Partition((node_states,) * 3)
    plant = Plant(A, np.eye(n), B2, C2=np.eye(n), node_partition=part)
    K = random_controller(rng, n_states * node_states, n, n)
    cl, cl4 = closed_loops_of(plant, K), output_feedback_closed_loops(plant, K)
    for got, want in ((cl.phi_x, cl4.phi_xx), (cl.phi_u, cl4.phi_ux)):
        for name in "ABCD":
            assert np.array_equal(getattr(got, name), getattr(want, name))
    # both state-feedback views share one A and one B
    assert cl.phi_x.A is cl.phi_u.A and cl.phi_x.B is cl.phi_u.B


def test_sf_and_of_controllers_agree_on_random_loops(rng):
    # with C2 = I the state-feedback pair and the four output-feedback maps
    # come from one gain: both implementations and both recoveries are that
    # gain, whether the loops are given as realizations or as rational maps
    for _ in range(6):
        n = int(rng.integers(1, 4))
        plant = Plant(stable_matrix(rng, n), np.eye(n), rng.standard_normal((n, n)), C2=np.eye(n))
        K = random_controller(rng, int(rng.integers(0, 3)), n, n)
        K = K if isinstance(K, StateSpace) else StateSpace.static(K)
        cl, cl4 = closed_loops_of(plant, K), output_feedback_closed_loops(plant, K)
        rational = (
            ClosedLoopPair(tf_of(cl.phi_x), tf_of(cl.phi_u)),
            OutputFeedbackClosedLoops(*(tf_of(H) for H in vars(cl4).values())),
        )
        pattern = StructurePattern.scalar(Graph(np.ones((n, n), dtype=bool)))
        for pair, four in ((cl, cl4), rational):
            controllers = (
                implementation_realization_sf(pair)[0],
                recover_controller_sf(pair),
                of_structured_implementation(four, pattern)[0],
                recover_controller_of(four),
            )
            for s in PROBES:
                want = K.evaluate(s)
                for got in controllers:
                    assert relative_error(got.evaluate(s), want) < 1e-8


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


class _ValuesOnly:
    """A closed-loop map known only by its values."""

    def evaluate(self, s):
        return np.eye(1, dtype=complex) / s


def test_exact_checks_reject_an_object_with_no_realization():
    only = _ValuesOnly()
    with pytest.raises(NoRealization):
        check_affine_constraint(ClosedLoopPair(only, only), scalar_of_plant())
    with pytest.raises(NoRealization):
        check_of_constraints(
            OutputFeedbackClosedLoops(only, only, only, only), scalar_of_plant()
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
        for s in PROBES[:3]:
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


def ring_output_feedback_loops(n):
    # dx = -x + u, y = x, u = K y with K the proper ring approximation
    plant = Plant(A=-np.eye(n), B1=np.eye(n), B2=np.eye(n), C2=np.eye(n))
    return output_feedback_closed_loops(plant, proper_approximation(n, -10.0))


def test_of_implementation_verdict_matches_is_tf_structured():
    n = 6
    cl4 = ring_output_feedback_loops(n)
    K = proper_approximation(n, -10.0)
    maps = [cl4.phi_xx, cl4.phi_xy, cl4.phi_ux, cl4.phi_uy]
    for graph in (ring_graph(n), b_hops(ring_graph(n), 2), b_hops(ring_graph(n), 3)):
        pattern = StructurePattern.scalar(graph)
        if all(is_tf_structured(H, pattern) for H in maps):
            impl, witness = of_structured_implementation(cl4, pattern)
            assert witness.structured
            for s in PROBES:
                assert relative_error(impl.evaluate(s), K.evaluate(s)) < 1e-9
        else:
            with pytest.raises(NotTFStructured, match="phi_xx"):
                of_structured_implementation(cl4, pattern)
    # the full 3-hop pattern conforms, the 1-hop ring does not
    full = StructurePattern.scalar(b_hops(ring_graph(n), 3))
    assert all(is_tf_structured(H, full) for H in maps)
    assert not is_tf_structured(cl4.phi_xx, StructurePattern.scalar(ring_graph(n)))


def test_of_implementation_decides_each_support_once(monkeypatch):
    supports, verdicts = [], []

    def counting_support(H):
        supports.append(H)
        return transfer_support(H)

    def counting_verdict(H, pattern):
        verdicts.append(H)
        return is_tf_structured(H, pattern)

    monkeypatch.setattr(sls, "transfer_support", counting_support)
    monkeypatch.setattr(sls, "is_tf_structured", counting_verdict)
    n = 8
    pattern = StructurePattern.scalar(Graph(np.ones((n, n), dtype=bool)))
    _, witness = of_structured_implementation(ring_output_feedback_loops(n), pattern)
    assert witness.structured
    # one support per shared realization: (phi_xx, phi_ux) and (phi_xy, phi_uy)
    assert len(supports) == 2 and not verdicts


def test_row_realization_keeps_a_row_with_no_observable_states():
    # the unobserved row contributes a (0, 0) block to A and a (1, 0) block to C
    rng = np.random.default_rng(21)
    C = rng.standard_normal((3, 3))
    C[1] = 0.0
    A = -2.0 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    H = StateSpace(A, rng.standard_normal((3, 2)), C, np.zeros((3, 2)))
    R = row_realization(H, "loop")
    assert R.state_partition.block_sizes[1] == 0
    assert R.C.shape == (3, R.n_states) and not np.any(R.C[1])
    for s in PROBES:
        assert relative_error(R.evaluate(s), H.evaluate(s)) < 1e-9


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


def dense_of_loops(plant, K_of):
    """The four output-feedback maps at s from the dense resolvent: a test-only oracle."""
    A, B2, C2 = plant.A, plant.B2, plant.C2

    def at(s):
        Ks = K_of(s)
        R = np.linalg.inv(s * np.eye(plant.n) - A - B2 @ Ks @ C2)
        return R, R @ B2 @ Ks, Ks @ C2 @ R, Ks + Ks @ C2 @ R @ B2 @ Ks

    return at


def dense_of_residual(plant, maps, s):
    """Largest entry of the left and of the right output-feedback affine row at s."""
    pxx, pxy, pux, puy = maps
    sIA = s * np.eye(plant.n) - plant.A
    left = (
        sIA @ pxx - plant.B2 @ pux - np.eye(plant.n),
        sIA @ pxy - plant.B2 @ puy,
    )
    right = (
        pxx @ sIA - pxy @ plant.C2 - np.eye(plant.n),
        pux @ sIA - puy @ plant.C2,
    )
    return tuple(max(float(np.max(np.abs(r))) for r in row) for row in (left, right))


def test_output_feedback_maps_match_dense_oracle(rng):
    for trial in range(6):
        n = int(rng.integers(2, 5))
        n_u, n_y = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        plant = Plant(
            A=stable_matrix(rng, n),
            B1=np.eye(n),
            B2=rng.standard_normal((n, n_u)),
            C2=rng.standard_normal((n_y, n)),
        )
        K0 = random_controller(rng, 2 * (trial % 2), n_u, n_y)
        K_of = K0.evaluate if isinstance(K0, StateSpace) else lambda s, K0=K0: K0
        cl4 = output_feedback_closed_loops(plant, K0)
        oracle = dense_of_loops(plant, K_of)
        for s in PROBES:
            maps = (cl4.phi_xx, cl4.phi_xy, cl4.phi_ux, cl4.phi_uy)
            for got, want in zip(maps, oracle(s)):
                assert relative_error(got.evaluate(s), want) < 1e-9
        assert check_of_constraints(cl4, plant) < 1e-9
        K = recover_controller_of(cl4)
        assert K.n_states == 2 * (trial % 2)
        for s in PROBES:
            assert relative_error(K.evaluate(s), K_of(s)) < 1e-9
        # eps / (s + 1) from measurement j to input i (delta) or to state k (gamma)
        i, j, k, eps = int(rng.integers(n_u)), int(rng.integers(n_y)), int(rng.integers(n)), 0.01
        lag = [[-1.0]], np.eye(1, n_y, j)
        delta = StateSpace(*lag, eps * np.eye(n_u, 1, -i), np.zeros((n_u, n_y)))
        gamma = StateSpace(*lag, eps * np.eye(n, 1, -k), np.zeros((n, n_y)))
        resolvent_b2 = StateSpace(plant.A, plant.B2, np.eye(n), np.zeros((n, n_u)))
        c2_resolvent = StateSpace(plant.A, np.eye(n), plant.C2, np.zeros((n_y, n)))
        xx, xy, ux, uy = cl4.phi_xx, cl4.phi_xy, cl4.phi_ux, cl4.phi_uy
        c2_j, b2_i = np.max(np.abs(plant.C2[j])), np.max(np.abs(plant.B2[:, i]))
        cases = (
            # phi_uy + delta breaks the left row by -B2 delta and the right by
            # -delta C2: leading coefficients eps B2[:, i] and eps C2[j]
            (xx, xy, ux, parallel(uy, delta), eps * max(b2_i, c2_j), (True, True)),
            # adding (sI - A)^-1 B2 delta to phi_xy too keeps the left row, and
            # the right row still breaks by -delta C2
            (
                xx,
                parallel(xy, series(delta, resolvent_b2)),
                ux,
                parallel(uy, delta),
                eps * c2_j,
                (False, True),
            ),
            # gamma on phi_xy and gamma C2 (sI - A)^-1 on phi_xx keep the right row,
            # and the left row breaks by (sI - A) gamma, whose feedthrough is eps
            (
                parallel(xx, series(c2_resolvent, gamma)),
                parallel(xy, gamma),
                ux,
                uy,
                eps,
                (True, False),
            ),
        )
        for *maps, floor, broken in cases:
            bumped = OutputFeedbackClosedLoops(*maps)
            assert check_of_constraints(bumped, plant) >= floor * (1 - 1e-6)
            values = [[m.evaluate(s) for m in maps] for s in PROBES]
            dense = np.array([dense_of_residual(plant, v, s) for v, s in zip(values, PROBES)])
            for side in range(2):
                if broken[side]:
                    assert np.max(dense[:, side]) > 1e-4 * floor
                else:
                    assert np.max(dense[:, side]) < 1e-9


def test_loop_drives_the_states_with_b2_only_when_it_is_not_the_identity():
    # B2 = I takes the controller's D and C as they are; any other B2,
    # a permutation among them, multiplies them
    rng = np.random.default_rng(12)
    n, nk = 5, 3
    A = rng.standard_normal((n, n))
    K = StateSpace(*(rng.standard_normal(shape) for shape in ((nk, nk), (nk, n), (n, nk), (n, n))))
    swap = np.eye(n)[[1, 0, 2, 3, 4]]
    for B2, unit in ((np.eye(n), True), (2.0 * np.eye(n), False), (swap, False)):
        _, phi_xx, phi_ux = sls._loop(Plant(A, np.eye(n), B2), K)
        D, C = (K.D, K.C) if unit else (B2 @ K.D, B2 @ K.C)
        assert np.array_equal(phi_xx.A[:n, :n], A + D)
        assert np.array_equal(phi_xx.A[:n, n:], C)
        assert np.array_equal(phi_ux.C, np.hstack([K.D, K.C]))


def test_a_plant_refuses_a_disturbance_map_that_is_not_the_identity():
    # the loops take w into dx directly, so B1 = 5 I and B1 = 0 used to give
    # the same phi_x as B1 = I
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    for B1 in (5.0 * np.eye(2), np.zeros((2, 2)), np.eye(3), [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="B1 must be the 2 x 2 identity"):
            Plant(A, B1, np.eye(2))
    plant = Plant(A, [[1, 0], [0, 1]], np.eye(2))
    assert closed_loops_of(plant, -np.eye(2)).phi_x.n_states == 2
