"""The tolerance policy: its predicate, finite data, and the thresholds it names.

Each threshold test puts an input at half and at twice its threshold; the
first must pass and the second must fail.  The thresholds are written here
as numbers, not read from the policy, so a change of value shows here.
"""

import dataclasses

import numpy as np
import pytest

import locrel.structure as structure
from locrel import tolerances
from locrel.consensus import (
    ConsensusProblem,
    _check_circulant,
    circulant_rank,
    consensus_measures,
    h2_deflated,
    proper_approximation,
    static_consensus_gain,
)
from locrel.errors import (
    ConstraintViolated,
    IllPosedFeedback,
    ModeZeroDetectable,
    NotCirculant,
    NotHurwitz,
    UnstableNonzeroMode,
)
from locrel.graphs import laplacian, ring_graph
from locrel.rational import RationalEntry, entry_array, pis_zero
from locrel.relative import is_relative
from locrel.sls import _require_unit_feedthrough
from locrel.statespace import StateSpace, _column_subspaces, batch_h2_squared, inverse
from locrel.structure import transfer_support
from locrel.tolerances import negligible

ZERO, HYPOTHESIS, WITNESS, UNIT_FEEDTHROUGH, SINGULAR = 1e-10, 1e-9, 1e-7, 1e-7, 1e12
HALF_AND_TWICE = ((0.5, True), (2.0, False))


def circulant(row):
    """Circulant matrix whose row i is row 0 shifted right by i."""
    return np.array([np.roll(row, i) for i in range(len(row))])


def ave_problem(n):
    return ConsensusProblem(n=n, b=1, gamma=1.0, c=consensus_measures(n, kinds=("ave",))["ave"])


def passes(check, error):
    """True when check() returns, False when it raises ``error``."""
    try:
        check()
    except error:
        return False
    return True


# -- the predicate and finite data --------------------------------------------


def test_policy_values():
    names = (
        "EXACT", "ZERO", "HYPOTHESIS", "MATCH", "WITNESS", "UNIT_FEEDTHROUGH", "VERIFY", "SINGULAR", "TINY",
    )
    values = (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-7, 1e-6, 1e12, 1e-300)
    assert tuple(getattr(tolerances, name) for name in names) == values


def test_negligible_scales_with_the_reference_floored_at_one():
    assert negligible(np.array([0.5e-9]), np.array([0.1]), 1e-9)
    assert not negligible(np.array([2e-9]), np.array([0.1]), 1e-9)
    assert negligible(5e-9, np.array([[4.0, -5.0]]), 1e-9)
    assert not negligible(-6e-9 + 0j, np.array([4.0, -5.0]), 1e-9)
    assert negligible(np.zeros((0, 2)), np.zeros((3, 0)), 1e-9)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_negligible_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        negligible(np.array([0.0, bad]), np.ones(2), ZERO)
    with pytest.raises(ValueError):
        negligible(0.0, np.array([1.0, bad]), ZERO)
    with pytest.raises(ValueError):
        negligible(complex(bad, 0.0), 1.0, ZERO)


def test_coefficient_zero_rule_is_one_comparison():
    assert pis_zero([ZERO, -ZERO, 0.0])
    assert not pis_zero([0.0, 2.0 * ZERO])
    # the old rule scaled by the largest coefficient, so an infinite one was zero
    assert not pis_zero([1.0, np.inf])
    assert list(pis_zero(np.array([[ZERO], [2.0 * ZERO]]))) == [True, False]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rational_entries_need_finite_coefficients(bad):
    with pytest.raises(ValueError):
        RationalEntry([bad], [1.0, 1.0])
    with pytest.raises(ValueError):
        RationalEntry([1.0], [1.0, bad])
    with pytest.raises(ValueError):
        entry_array(np.array([[1.0], [bad]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        entry_array(np.ones((2, 1)), np.array([[1.0, 1.0], [bad, 1.0]]))


def test_entry_array_non_finite_error_follows_the_first_failing_row():
    nums, dens = np.array([[1.0], [np.inf]]), np.array([[0.0], [1.0]])
    with pytest.raises(ZeroDivisionError):
        entry_array(nums, dens)
    with pytest.raises(ValueError):
        entry_array(nums[::-1], dens[::-1])
    # within one row, as in the constructor, finiteness is checked first
    with pytest.raises(ValueError):
        RationalEntry([np.inf], [0.0])
    with pytest.raises(ValueError):
        entry_array(np.array([[np.inf]]), np.array([0.0]))


@pytest.mark.parametrize("which", range(4))
def test_state_space_matrices_must_be_finite(which):
    matrices = [np.zeros((1, 1)) for _ in range(4)]
    matrices[which][0, 0] = np.nan
    with pytest.raises(ValueError):
        StateSpace(*matrices)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_circulant_checks_need_finite_entries(bad):
    # a NaN off row 0 used to pass as circulant, and a NaN circulant had rank 0
    C = circulant([1.0, -1.0, 0.0])
    C[1, 2] = bad
    with pytest.raises(ValueError):
        _check_circulant(C)
    with pytest.raises(ValueError):
        circulant_rank(np.full((3, 3), bad))


def test_is_relative_rejects_an_infinite_gain():
    # the infinite scale used to call this row relative
    with pytest.raises(ValueError):
        is_relative([[np.inf, 1.0]])


# -- thresholds ------------------------------------------------------------------


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_circulant_threshold(factor, ok):
    C = 4.0 * circulant([2.0, -1.0, 0.0, -1.0])  # largest entry 8
    C[2, 1] += factor * HYPOTHESIS * 8.0
    assert passes(lambda: _check_circulant(C), NotCirculant) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_consensus_zero_row_sum_threshold(factor, ok):
    le = 3.0 * consensus_measures(8, kinds=("le",))["le"]  # largest entry 3
    c = le + factor * HYPOTHESIS * 3.0 * np.eye(8)
    assert passes(lambda: ConsensusProblem(n=8, b=1, gamma=1.0, c=c), ValueError) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_h2_deflated_undetected_mode_threshold(factor, ok):
    # the measure's symbols are 0, 1, 1, 1; its mode-0 symbol is its row sum,
    # which the frozen problem's constructor judges, so h2_deflated is scored
    # below the threshold and unreachable above it
    c = consensus_measures(4, kinds=("ave",))["ave"] + factor * HYPOTHESIS * np.eye(4)
    K = static_consensus_gain(4)
    score = lambda: h2_deflated(ConsensusProblem(n=4, b=1, gamma=1.0, c=c), K)
    assert passes(score, ValueError) == ok


def test_consensus_problem_keeps_its_checked_measure():
    # h2_deflated relies on the constructor's zero-row-sum check, so neither
    # a field nor the measure's entries can change afterwards
    prob = ave_problem(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prob.c = np.eye(4)
    with pytest.raises(ValueError):
        prob.c[0, 0] = 1.0
    # the caller's array stays writable
    c = consensus_measures(4, kinds=("ave",))["ave"]
    ConsensusProblem(n=4, b=1, gamma=1.0, c=c)
    c[0, 0] = 1.0


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_h2_deflated_static_relative_threshold(factor, ok):
    # the ring gain's symbols are 0, -2, -4, -2
    K = static_consensus_gain(4) + factor * HYPOTHESIS * 4.0 * np.eye(4)
    assert passes(lambda: h2_deflated(ave_problem(4), K), ModeZeroDetectable) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
@pytest.mark.parametrize("matrix", ["B", "D"])
def test_h2_deflated_dynamic_relative_threshold(factor, ok, matrix):
    K = proper_approximation(4, -10.0)  # largest entry of B and D is 2
    parts = {"A": K.A, "B": K.B, "C": K.C, "D": K.D}
    parts[matrix] = parts[matrix] + factor * HYPOTHESIS * 2.0 * np.eye(4)
    K = StateSpace(parts["A"], parts["B"], parts["C"], parts["D"])
    assert passes(lambda: h2_deflated(ave_problem(4), K), ModeZeroDetectable) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_batch_h2_hurwitz_margin(factor, ok):
    # a root at -2 HYPOTHESIS is Hurwitz; one at -HYPOTHESIS / 2 is inside the margin
    den = np.array([[HYPOTHESIS / factor, 1.0]])
    assert passes(lambda: batch_h2_squared(np.array([[1.0]]), den), NotHurwitz) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_h2_deflated_static_hurwitz_margin(factor, ok):
    # -eps L has slowest nonzero mode -2 eps
    K = -(HYPOTHESIS / factor / 2.0) * laplacian(ring_graph(4))
    assert passes(lambda: h2_deflated(ave_problem(4), K), UnstableNonzeroMode) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_h2_deflated_dynamic_hurwitz_margin(factor, ok):
    # per mode the loop matrix is diag(-eps lambda_k, -1), slowest -2 eps
    D = -(HYPOTHESIS / factor / 2.0) * laplacian(ring_graph(4))
    K = StateSpace(-np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), D)
    assert passes(lambda: h2_deflated(ave_problem(4), K), UnstableNonzeroMode) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_circulant_rank_threshold(factor, ok):
    symbol = 5.0 * np.array([0.0, 1.0, factor * ZERO, 1.0])
    C = circulant(np.fft.ifft(symbol).real)
    assert circulant_rank(C) == (2 if ok else 3)


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_inverse_singular_feedthrough_bound(factor, ok):
    D = np.diag([1.0, 1.0 / (factor * SINGULAR)])  # condition number factor * SINGULAR
    assert passes(lambda: inverse(StateSpace.static(D)), IllPosedFeedback) == ok


@pytest.mark.parametrize("factor, ok", HALF_AND_TWICE)
def test_unit_feedthrough_threshold(factor, ok):
    R = StateSpace([[0.0]], [[1.0]], [[1.0 + factor * UNIT_FEEDTHROUGH]], [[0.0]])
    assert passes(lambda: _require_unit_feedthrough(R, "phi_x"), ConstraintViolated) == ok


@pytest.mark.parametrize("factor, witnessed", ((0.5, False), (2.0, True)))
def test_markov_witness_threshold(monkeypatch, factor, witnessed):
    # C A^k B_j = factor * WITNESS * sqrt(n) max(|C_i|, 1) ||A||^k |B_j| at
    # k = 1 on n = 16 states, with C B = 0: a witness at twice the
    # threshold, Krylov below it; the entry is nonzero either way
    krylov = []

    def counting(A, V, **kwargs):
        krylov.append(V.shape[1])
        return _column_subspaces(A, V, **kwargs)

    monkeypatch.setattr(structure, "_column_subspaces", counting)
    n = 16
    A = np.zeros((n, n))
    A[1, 0] = 8.0  # ||A|| = 8, exact for this bound
    B = np.zeros((n, 1))
    B[0] = 3.0
    C = np.zeros((1, n))
    C[0, 1] = factor * WITNESS * np.sqrt(n)
    sys = StateSpace(A, B, C, np.zeros((1, 1)))
    assert transfer_support(sys).all()
    assert krylov == ([] if witnessed else [1])
