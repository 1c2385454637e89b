"""Exception hierarchy and the command line's error contract.

Four families: parse and validation errors (malformed input, exit 2),
precondition errors (valid input outside an operation's domain, exit 3),
and numerical errors (requested accuracy not reached, exit 4). Each
class carries the kind the CLI reports on stderr and its exit code.

The module also holds what numpy-free callers share with the
decomposition: the tags of the three canonical block kinds, the largest
accepted grid and the check that a tolerance is a finite positive
number.
"""

import math

REAL_SIMPLE = "RealSimple"
REAL_JORDAN = "RealJordan"
COMPLEX_PAIR = "ComplexConjugatePair"
# largest accepted grid, of times or of angles: an analysis holds its
# per-point series in memory
MAX_GRID_POINTS = 1_000_000


class ParseError(Exception):
    """Input file is not well-formed (I/O or JSON syntax level)."""

    kind = "parse"
    exit_code = 2


class ValidationError(ValueError):
    """Input fails structural validation (shape, finiteness, algebra)."""

    kind = "validation"
    exit_code = 2


class DimensionError(ValidationError):
    """Operands have incompatible or non-square shapes."""


class NotPositiveSemidefiniteError(ValidationError):
    """Hermitian input has an eigenvalue below the allowed floor."""


class InvalidDensityError(ValidationError):
    """Matrix is not Hermitian, positive semidefinite, and unit trace."""


class PreconditionError(Exception):
    """Input is structurally valid but outside an operation's domain."""

    kind = "precondition"
    exit_code = 3


class NotPTSymmetricError(PreconditionError):
    """Hamiltonian fails the PT-symmetry identity for the given pair."""

    kind = "not_pt_symmetric"


class BrokenSymmetryError(PreconditionError):
    """Operation requires an unbroken Hamiltonian."""

    kind = "broken_hamiltonian"


class BrokenRegimeError(PreconditionError):
    """Parameters lie outside the closed-form eigenstate regime."""

    kind = "broken_regime"


class CriticalPointError(PreconditionError):
    """Normalization diverges at the critical point."""

    kind = "critical_point"


class DegeneratePostSelectionError(PreconditionError):
    """Post-selection success probability is numerically zero."""

    kind = "degenerate_post_selection"


class NumericalError(Exception):
    """Computation could not reach the requested accuracy."""

    kind = "numerical"
    exit_code = 4


class IllConditionedError(NumericalError):
    """Structure could not be resolved at the requested tolerance.

    Carries the achieved residual (when one was computed) so callers
    can decide whether to retry with looser tolerances.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularMatrixError(NumericalError):
    """Matrix is numerically singular at the working precision."""


def _require_positive(**tolerances: float) -> None:
    """Raise ValidationError naming the first tolerance that is not a
    finite positive number; a NaN would pass every gate it bounds."""
    for name, value in tolerances.items():
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{name} must be finite and positive, got {value!r}")
