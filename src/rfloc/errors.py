"""Exception types shared across the package.

Every error is an RflocError. The CLI exits 2 on a ParseError or a
ValidationError raised while it reads and validates a scenario file. Any
RflocError raised inside `cli.run`, such as a solve's GeometryDegenerate,
NoConvergence or Inconsistent, is embedded in the report's errors list
instead, and the CLI exits 1.
"""


class RflocError(Exception):
    """Base class for all package errors."""


class DimensionError(RflocError):
    """Operands live in different dimensions (2D vs 3D), or an unsupported one."""


class InvalidNoise(RflocError):
    """Noise parameters are out of range (e.g. negative standard deviation)."""


class InsufficientReceivers(RflocError):
    """Fewer receivers than the operation needs."""


class GeometryDegenerate(RflocError):
    """Anchor geometry is rank-deficient (e.g. collinear receivers or emitters)."""


class Inconsistent(RflocError):
    """Measured ranges admit no real solution beyond numerical slack."""


class BudgetExceeded(RflocError):
    """A grid_search lattice has more nodes than its budget."""


class NoConvergence(RflocError):
    """The iterative solver exhausted its budget without meeting tolerance.

    Attributes:
        best: the best iterate found, as a SolveResult with converged=False,
              or None when no iterate was produced at all.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ParseError(RflocError):
    """A scenario file is syntactically malformed."""


class ValidationError(RflocError):
    """A scenario file or domain object violates an invariant.

    Attributes:
        field: name of the offending field, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
