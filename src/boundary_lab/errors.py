"""Exception types shared across the package."""


class BoundaryLabError(Exception):
    """Base class for all package errors."""


class DomainError(BoundaryLabError):
    """A point or parameter fell outside the operation's domain
    (wrong space, coordinate out of range, unknown label)."""


class BuildError(BoundaryLabError):
    """A space description could not be turned into a valid space."""


class DisconnectedError(BuildError):
    """A ray complex that is not connected: every complex built is."""


class HorizonError(BoundaryLabError):
    """A horizon-bounded search could not certify its answer within the
    given horizon (distance still decreasing, crossing not bracketed...)."""


class SpaceParseError(BuildError):
    """Parse or semantic failure in a .space document.

    Carries a machine-readable diagnostic code plus 1-based line/column.
    Codes: E_SYNTAX, E_UNDECLARED, E_LENGTH_NONPOSITIVE, E_NO_BASEPOINT,
    E_DISCONNECTED.
    """

    def __init__(self, code: str, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{code} at {line}:{col}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col
