"""Exception types shared across the package."""


class AdamFtrlError(Exception):
    """Base class for all errors raised by this package."""


class ScheduleError(AdamFtrlError):
    """Learning-rate schedule is malformed (e.g. increasing where it must not be)."""


class ScheduleExhaustedError(ScheduleError):
    """An explicit-list schedule was queried beyond its last entry."""


class InvalidGradientError(AdamFtrlError):
    """Rejected gradient: non-finite, or a zero first gradient."""


class DegenerateStateError(AdamFtrlError):
    """Learner state cannot produce an update (no gradients, a second moment out of range,
    or an update that overflows)."""


class OracleHorizonError(AdamFtrlError):
    """A literal (undiscounted) formula was requested beyond the configured horizon.

    The undiscounted quantities grow like ``beta1**-t`` and are only evaluated
    for cross-checking at small round counts; use the stable discounted path
    for long runs.
    """


class RegimeError(AdamFtrlError):
    """A bound or experiment was requested outside its validity regime."""


class NotApplicableError(AdamFtrlError):
    """A check does not apply to the given trace (e.g. clipping fired)."""


class SingularParameterError(AdamFtrlError):
    """A closed form is singular at the given parameters; simulate instead."""


class ContractViolation(AdamFtrlError):
    """A numerically checked inequality failed at some evaluation point."""


class ConfigError(AdamFtrlError):
    """Experiment configuration is invalid or internally inconsistent."""
