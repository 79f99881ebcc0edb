"""Exceptions shared across the package."""


class RankBoundError(ValueError):
    """Raised when a brute-force oracle computation is requested above the
    configured rank bound."""


class InternalCheckError(RuntimeError):
    """A self-certification failed: orthonormality of a character table, the
    double computation of class sizes, or a conservation law that the code
    guarantees by construction.  This is never a user error; if it fires,
    the library itself is wrong and the computation must not be trusted."""


class EmptyImageError(ValueError):
    """A correspondence image set is empty, so it has no least or greatest
    element: the partner group lies below the first occurrence of the
    partner cuspidal, or the label's row of a nonzero table is empty.  The
    message names which."""


class NonUniqueExtremeError(RuntimeError):
    """The configured partial order failed to single out a unique minimal or
    maximal element of a correspondence image set.

    The offending antichain is attached so that the failure is reportable.
    """

    def __init__(self, message, antichain=()):
        super().__init__(message)
        self.antichain = tuple(antichain)
