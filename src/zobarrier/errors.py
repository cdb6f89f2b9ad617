"""Exception types shared across the package, and the integer check that
raises one."""

import numbers


class ZobarrierError(Exception):
    """Base class for all package errors."""


class ContractViolationError(ZobarrierError, ValueError):
    """An argument violated a documented precondition."""


def require_integer(name: str, value, low: int) -> int:
    """`value` as an int, if it is an integer (a Python or numpy integer,
    not a bool) of at least `low`; otherwise ContractViolationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ContractViolationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


class DivergedTrajectoryError(ZobarrierError):
    """A simulated trajectory produced non-finite state."""

    halt_reason = "diverged"

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")

    def __reduce__(self):  # pickle rebuilds from the constructor's arguments
        return type(self), (self.step, self.args[0]), self.__dict__


class BudgetExhaustedError(ZobarrierError):
    """The configured measurement budget cap was hit."""

    halt_reason = "budget-exhausted"


class NonFiniteMeasurementError(ZobarrierError):
    """A measured point's true function values contain NaN or +-inf."""

    halt_reason = "non-finite"


class UnsafeQueryError(ZobarrierError):
    """A measured point is truly infeasible (true max-constraint > 0)."""

    halt_reason = "unsafe-query"


class MarginExhaustedError(ZobarrierError):
    """The certified safety margin is gone (upper bound >= 0, or NaN).

    Never clamped into a fake positive margin: with no certifiably safe
    next query, the solver halts.
    """

    halt_reason = "margin-exhausted"

    def __init__(self, fhat_c_nu: float):
        self.fhat_c_nu = float(fhat_c_nu)
        super().__init__(
            f"certified margin exhausted: smoothed-constraint upper bound "
            f"{self.fhat_c_nu:.6g} is not below 0"
        )

    def __reduce__(self):
        return type(self), (self.fhat_c_nu,), self.__dict__


class UnknownProblemError(ZobarrierError, LookupError):
    """Requested benchmark name is not registered."""


class UnknownSuiteError(ZobarrierError, LookupError):
    """Requested verification suite is not registered."""


class ConfigError(ZobarrierError):
    """Experiment configuration failed validation."""
