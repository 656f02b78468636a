"""Exception types shared across the package."""


class QAssertError(Exception):
    """Base class for all qassert-specific errors."""


class CapacityError(QAssertError):
    """A size limit was exceeded (qubit count, measurement branch count)."""


class CircuitError(QAssertError):
    """A circuit is structurally invalid or was executed out of contract.

    `item` is the position of the offending item in the circuit's item
    list, when one item is at fault; `message` omits it.
    """

    def __init__(self, message: str, item: int | None = None):
        super().__init__(message if item is None else f"item {item}: {message}")
        self.message = message
        self.item = item


class NumericalError(QAssertError):
    """A numerical routine produced an unusable result."""


class ConvergenceError(NumericalError):
    """An iterative numerical routine failed to converge."""


class InvalidExpectedError(QAssertError):
    """A chi-square expected count is zero or negative.

    With a zero expected count the chi-square statistic divides by zero and
    is undefined, so no p-value can be computed.
    """


class InfeasibleShotsError(QAssertError):
    """Too few shots for the requested test to be well defined."""


class ParseError(QAssertError):
    """Circuit file syntax error, carrying the source location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
