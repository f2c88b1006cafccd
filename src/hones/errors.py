"""Exception hierarchy shared by the solver modules."""


class HonesError(Exception):
    """Base class for all solver errors."""


class SingularSubmatrix(HonesError):
    """A_SS could not be factorized or its condition number exceeds the cap."""


class NoConvergence(HonesError):
    """Iterative routine exhausted its iteration budget."""


class DegenerateError(HonesError):
    """Base for numerical degeneracies that call for a state rebuild."""


class DegeneratePivot(DegenerateError):
    """Pivot element (diagonal of the working inverse or Schur complement) fell below tolerance."""


class DegenerateDenominator(DegenerateError):
    """Denominator of a path update fell below tolerance."""


class EmptySupport(HonesError, ValueError):
    """A shrink would leave the support empty, which the simplex constraint forbids.

    It is a ValueError too: `Support.with_removed` raises it, and refuses any
    other wrong index with ValueError.
    """


class CycleLimit(HonesError):
    """Number of turning points in one leg exceeded the configured cap."""


class ParseError(HonesError):
    """Malformed input file."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptySeries(HonesError):
    """No usable rows survived ingestion."""
