"""Exception types raised on invalid inputs or violated invariants."""


class InvariantViolation(ValueError):
    """Base class: an input breaks a documented invariant."""


class NotHermitian(InvariantViolation):
    pass


class NotUnitary(InvariantViolation):
    pass


class ShapeMismatch(InvariantViolation):
    pass


class OutOfRange(InvariantViolation):
    pass


class NotProbabilityVector(InvariantViolation):
    pass


class NotDensity(InvariantViolation):
    pass


class NotOrthogonalInput(InvariantViolation):
    pass


class DegenerateSpectrum(InvariantViolation):
    pass


class IndexOutOfRange(InvariantViolation):
    pass


class UnknownSuite(InvariantViolation):
    pass


class InconsistentData(InvariantViolation):
    pass
