"""Exception hierarchy shared by all skyline modules."""


class SkylineError(ValueError):
    """Base class for all errors raised by this package."""


class NoSuchPart(SkylineError):
    """rem_k was asked to decrement a part value that does not occur."""


class SizeMismatch(SkylineError):
    """Two objects that must have equal length or total size do not."""


class IncomparableShapes(SkylineError):
    """Bruhat comparison of weak compositions with different underlying partitions."""


class UnorderedTriple(SkylineError):
    """Triple values fit neither the inversion nor the coinversion pattern."""


class InvalidShape(SkylineError):
    """A skew shape or diagram that violates containment or length rules."""


class InvalidFilling(SkylineError):
    """A filling with entries outside [1, n] or cells missing/extra."""


class DuplicateInColumn(SkylineError):
    """Column sets requested for an attacking filling."""


class NotSSK(SkylineError):
    """An operation required a semistandard skyline filling."""


class NoValidRow(SkylineError):
    """Row placement failed during the inverse column-sorting bijection."""


class NotContreLattice(SkylineError):
    """An operation required a contre-lattice filling."""


class NotRearrangement(SkylineError):
    """The target shape is not a rearrangement of the source shape."""


class LengthMismatch(SkylineError):
    """An index shape whose length disagrees with the variable count."""


class TooManyRows(SkylineError):
    """A partition with more rows than available variables."""


class TooManyParts(SkylineError):
    """A composition with more parts than available variables."""


class VariableCountMismatch(SkylineError):
    """Arithmetic between polynomials over different variable counts."""


class NotInSpan(SkylineError):
    """A polynomial that cannot be written in the requested basis."""


class NonIntegralCoefficient(SkylineError):
    """A polynomial term or a basis expansion with a non-integer coefficient."""


class ShapeMismatch(SkylineError):
    """Littlewood-Richardson coefficient arguments with inconsistent shapes."""
