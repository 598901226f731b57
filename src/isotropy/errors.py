"""Exception hierarchy for the isotropy package, and the base of its values.

User-facing input problems and internal integrity failures are kept apart:
the CLI maps them to different exit codes, and an IntegrityError firing
means a bug in this library, never bad input.
"""


class _Immutable:
    """Base of the package's value classes: a value refuses set and del.
    Constructors write fields with object.__setattr__; after construction
    the only writes are the member mark (matrices._mark_member) and
    ExactScalar's hash, set on first use."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class IsotropyError(Exception):
    """Base class for all package errors."""


class ScalarParseError(IsotropyError, ValueError):
    """Malformed scalar string. Carries the offending position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class DimensionMismatchError(IsotropyError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(IsotropyError, ZeroDivisionError):
    """Exact inversion of a singular matrix was requested."""


class StructureError(IsotropyError, ValueError):
    """Invalid block structure (non-positive sizes, duplicate eigenvalues, ...)."""


class ShapeViolationError(IsotropyError, ValueError):
    """A dense matrix does not fit the required block-Toeplitz pattern.

    Carries the (0-based) dense coordinates of the first offending entry.
    """

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"{message} (first offending entry at row {row}, col {col})")
        self.row = row
        self.col = col


class SeedConstraintError(IsotropyError, ValueError):
    """A diagonal seed violates its congruence constraint."""


class SequencingError(IsotropyError, RuntimeError):
    """A coefficient was read before the sweep determined it (library bug)."""


class ParameterError(IsotropyError, ValueError):
    """A free-parameter set is incomplete or malformed."""


class MembershipError(IsotropyError, ValueError):
    """An alleged group element failed exact membership verification."""


class IntegrityError(IsotropyError, AssertionError):
    """An internal exact self-check failed. Must never fire; indicates a bug."""
