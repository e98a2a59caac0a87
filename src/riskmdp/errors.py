"""Exception types shared across the library."""


class RiskMdpError(ValueError):
    """Base class for contract violations raised by this library."""


class LengthMismatch(RiskMdpError):
    """Paired sequences of unequal length."""


class NegativeProbability(RiskMdpError):
    """A probability outside the admissible range."""


class ZeroMass(RiskMdpError):
    """All probabilities vanish, no law can be formed."""


class DomainError(RiskMdpError):
    """Argument outside the domain of a function, e.g. a quantile level."""


class InvalidSpec(RiskMdpError):
    """Malformed risk-measure specification."""


class NotCoherent(RiskMdpError):
    """Operation requires a coherent risk measure."""


class InfeasibleAction(RiskMdpError):
    """Action not admissible in the given state."""


class InfeasiblePolicy(RiskMdpError):
    """Policy violates admissibility or has the wrong number of stages."""


class DimensionMismatch(RiskMdpError):
    """Vectors over the state space with incompatible lengths."""


class SumOverflow(RiskMdpError, OverflowError):
    """A correctly rounded sum whose terms hold inf of both signs or overflow on the way."""


class NotContractive(RiskMdpError):
    """Growth rate times discount is not below one."""


class TooLargeForEnumeration(RiskMdpError):
    """Exhaustive policy enumeration would exceed the configured cutoff."""


class InvalidParams(RiskMdpError):
    """Example-model parameters violate their documented preconditions."""


class MonotonicityViolation(RiskMdpError):
    """Model fails the monotone-mode requirements."""
