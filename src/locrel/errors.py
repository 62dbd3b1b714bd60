"""Exception types raised by the locrel toolkit."""


class LocrelError(Exception):
    """Base class for all toolkit errors."""


class DocumentError(LocrelError, ValueError):
    """A document value is missing or of the wrong kind; the message names its path."""


class SingularAtS(LocrelError):
    """A transfer matrix or resolvent was evaluated at one of its poles."""


class IllPosedFeedback(LocrelError):
    """Feedback interconnection with singular I - Dg*Dh."""


class NotHurwitz(LocrelError):
    """An operation required a Hurwitz state matrix."""


class NonzeroFeedthrough(LocrelError):
    """H2 norm requested for a system with direct feedthrough."""


class ImproperEntry(LocrelError):
    """A rational entry has numerator degree exceeding denominator degree."""


class DegreeCapExceeded(LocrelError):
    """Polynomial arithmetic exceeded the supported degree bound."""


class NotTFStructured(LocrelError):
    """A transfer matrix violates the sparsity pattern required here."""


class RationalConversionFailed(LocrelError):
    """A state-space system could not be converted to rational form reliably."""


class NotRelative(LocrelError):
    """A gain with nonzero row sums was passed where a relative one is required."""


class DisconnectedGraph(LocrelError):
    """The underlying graph must be connected for this operation."""


class SingularPhiX(LocrelError):
    """The state closed-loop map is singular and cannot be inverted."""


class NoRealization(LocrelError):
    """A closed-loop map is neither a rational matrix nor a realization."""


class ConstraintViolated(LocrelError):
    """Closed-loop maps do not satisfy the affine achievability constraint."""


class ConsistencyCheckFailed(LocrelError):
    """An identity that holds in exact arithmetic failed on computed values."""


class HypothesisViolated(LocrelError):
    """A structural hypothesis (relative plant drift, full-rank input map) fails."""


class OddNForLongRange(LocrelError):
    """The long-range deviation measure needs an even number of agents."""


class NotCirculant(LocrelError):
    """A matrix expected to be circulant is not."""


class NonNegativeA(LocrelError):
    """The approximation pole must be strictly negative."""


class ModeZeroDetectable(LocrelError):
    """Deflated H2 needs an unforced average mode, that is a relative controller."""


class UnstableNonzeroMode(LocrelError):
    """A non-averaged closed-loop mode is not Hurwitz."""


class UnstableKernelEntry(LocrelError):
    """A convolution-kernel entry is unstable or not strictly proper."""


class CommonDenominatorTruncated(LocrelError):
    """A product of denominators spans too many magnitudes to keep its leading terms."""


class SymbolPoleClash(LocrelError):
    """A frequency symbol degenerates and the closed loop is undefined there."""


class FeasibilityPreconditionError(LocrelError):
    """Locality radius leaves no excluded interaction, so the test is void."""
