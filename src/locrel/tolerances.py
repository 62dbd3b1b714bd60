"""The thresholds behind every verdict, each named once.

Every yes/no answer of the package (is an entry zero, does a row sum to
zero, is a mode Hurwitz) compares a number with one of these.  Two sites
share a name only when they share the value and the kind of decision.
Most are relative: a size is set against the scale of what it was
computed from, and ``negligible`` is that test with the scale floored at
one.
"""

from __future__ import annotations

import math

import numpy as np

# Zero in exact arithmetic, so only rounding is left: a block of a
# realization, a pole at the evaluation point, a shared power of s, equal
# denominators.
EXACT = 1e-12
# Zero up to the rounding of a computation: polynomial coefficients, row
# sums, DFT symbols, eigenvalues and singular values, Krylov directions,
# input columns and feedthrough.
ZERO = 1e-10
# A hypothesis the data must meet before a result applies: a circulant, zero
# row sums, a relative controller, real data, the Hurwitz margin, a divisor
# of a common denominator.
HYPOTHESIS = 1e-9
# Agreement after several rounded steps: matched roots, exact division, a
# response C_i Q whose basis carries the rounding of every Krylov step
# (up to 6e-11 of C_i on dense 30-state realizations with a hidden mode),
# affine residuals, and the default of ``sls check --tolerance``.
MATCH = 1e-8
# A Markov parameter C_i A^k B_j that proves a transfer entry nonzero: it
# must exceed this times sqrt(n) max(|C_i|, 1) ||A||^k |B_j| on n states.
# The Krylov basis Q of B_j holds A^k B_j up to k ZERO sqrt(n) of that
# scale, and C_i Q has at most n entries, so such a witness makes C_i Q
# exceed MATCH (this exceeds MATCH + 8 ZERO): a witness never moves a
# verdict of the Krylov test.  Rounding in C_i A^k B_j is some (k + 1) n
# 1e-16 of the scale.
WITNESS = 1e-7
# s * phi_x tends to the identity: its feedthrough C B, an absolute test on
# the product of a realization's C and B.
UNIT_FEEDTHROUGH = 1e-7
# A rational conversion or a resolvent solve checked against the frequency
# response it should reproduce.
VERIFY = 1e-6
# A condition number above which a square matrix is singular: the
# feedthrough of an inverse system.
SINGULAR = 1e12
# A floor that keeps a relative test from dividing by, or scaling with, zero.
TINY = 1e-300


def _largest(x):
    """max |x|: Python's abs for a scalar, one reduction for an array."""
    return np.abs(x).max(initial=0.0) if isinstance(x, np.ndarray) else abs(x)


def negligible(x, ref, threshold):
    """True when max |x| <= threshold * max(max |ref|, 1): x is zero on the scale of ref.

    Raises ValueError when x or ref holds a NaN or an infinity, which no
    scale can judge.
    """
    size, scale = _largest(x), _largest(ref)
    if not (size < math.inf and scale < math.inf):
        raise ValueError("a NaN or infinite value cannot be judged against a tolerance")
    return size <= threshold * max(scale, 1.0)
