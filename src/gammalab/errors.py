"""Exception types shared across the package, and the integer-argument
check that raises one."""


class GammalabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GammalabError, ValueError):
    """Argument outside the domain a kernel or catalog entry supports."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class RangeOverflowError(GammalabError, OverflowError):
    """Result magnitude exceeds IEEE double range."""


class UnsupportedOrderError(DomainError):
    """Derivative / polynomial order outside the implemented range."""


class RouteInconsistencyError(GammalabError, ArithmeticError):
    """Two supposedly equivalent computation routes disagree badly.

    Raised only when the disagreement exceeds ten times the combined
    error budget; it signals a kernel bug, not an input problem.
    """


class EvaluationError(GammalabError, ArithmeticError):
    """A non-finite value turned up mid-computation."""


class UnknownKeyError(GammalabError, KeyError):
    """Catalog lookup with an id that does not exist."""


class MisuseError(GammalabError, ValueError):
    """API used against its contract (e.g. adjudicating a non-dispute)."""


def integer_arg(value: float, name: str) -> int:
    """``value`` as an int.  A non-integer raises ``DomainError``: an
    integer argument is never truncated."""
    if not float(value).is_integer():
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)
