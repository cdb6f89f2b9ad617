"""Exception types shared across the package."""


class ZobarrierError(Exception):
    """Base class for all package errors."""


class ContractViolationError(ZobarrierError, ValueError):
    """An argument violated a documented precondition."""


class DivergedTrajectoryError(ZobarrierError):
    """A simulated trajectory produced non-finite state."""

    halt_reason = "diverged"

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


class BudgetExhaustedError(ZobarrierError):
    """The configured measurement budget cap was hit."""

    halt_reason = "budget-exhausted"


class NonFiniteMeasurementError(ZobarrierError):
    """A measured point's true function values contain NaN or +-inf."""

    halt_reason = "non-finite"


class MarginExhaustedError(ZobarrierError):
    """The certified safety margin is gone (upper confidence bound >= 0).

    Never clamped into a fake positive margin: the caller decides whether
    to halt or freeze.
    """

    def __init__(self, fhat_c_nu: float):
        self.fhat_c_nu = float(fhat_c_nu)
        super().__init__(
            f"certified margin exhausted: smoothed-constraint upper bound "
            f"{self.fhat_c_nu:.6g} >= 0"
        )


class UnsafeStartError(ZobarrierError):
    """The noisy feasibility check at the start point failed."""


class OutsideBarrierDomainError(ZobarrierError):
    """Barrier evaluation requested where the smoothed constraint is not
    certifiably negative."""


class NoValidOutputError(ZobarrierError):
    """Output sampling requested but every iterate weight is zero."""


class UnknownProblemError(ZobarrierError, LookupError):
    """Requested benchmark name is not registered."""


class UnknownSuiteError(ZobarrierError, LookupError):
    """Requested verification suite is not registered."""


class ConfigError(ZobarrierError):
    """Experiment configuration failed validation."""
