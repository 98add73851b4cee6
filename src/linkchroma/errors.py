"""Exception types shared across the package, and the one way an error
message echoes a piece of its input."""

import reprlib

ECHO_LIMIT = 60


class _Echo(reprlib.Repr):
    def repr_int(self, x, level):
        try:  # repr refuses an int of more digits than sys.get_int_max_str_digits()
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_echo = _Echo()
_echo.maxstring = _echo.maxother = ECHO_LIMIT


def short_repr(value) -> str:
    """``repr(value)`` abridged to at most ``ECHO_LIMIT`` characters, so
    that an error message quoting a document stays one short line however
    large or deeply nested the quoted part is."""
    text = _echo.repr(value)
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


class SchemaError(ValueError):
    """A document does not match its declared file format."""


class DomainError(ValueError):
    """An operation's precondition or a structural invariant is violated."""


class BudgetExhausted(DomainError):
    """A bounded search ran out of budget before reaching its target.

    ``best_objective`` is the best value a heuristic search reached;
    ``lower`` and ``upper`` are the bounds an exact search had proven and
    found when it stopped."""

    def __init__(self, message: str, best_objective=None, *, lower=None, upper=None):
        super().__init__(message)
        self.best_objective = best_objective
        self.lower = lower
        self.upper = upper
