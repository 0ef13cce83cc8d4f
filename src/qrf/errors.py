"""Exception types shared across the library."""


class QRFError(Exception):
    """Base class for all library errors."""


class ConstraintViolation(QRFError):
    """A phase-space point is off the constraint or gauge surface."""


class SameFrame(QRFError):
    """A frame change was requested into the frame already in use."""


class FrameMismatch(QRFError):
    """A state's frame tag does not match the requested operation."""


class InvalidStep(QRFError):
    """A step size is not positive and finite, or a duration not finite and >= 0."""


class UnknownAxis(QRFError):
    """A subsystem label is not present in the state."""


class AxisClash(QRFError):
    """Two distinct subsystem axes were required but the same one was given."""


class GridMismatch(QRFError):
    """Two states do not share grids, axis order or representations."""


class NonHermitianObservable(QRFError):
    """An expectation value was requested for a non-Hermitian observable."""


class InvalidDensityMatrix(QRFError):
    """A density matrix fails hermiticity, trace or positivity checks."""


class UnknownFigure(QRFError):
    """No preset exists under the requested figure name."""


class ConfigError(QRFError):
    """An experiment configuration is missing keys or has invalid values."""


class NumericalFailure(QRFError):
    """An internal invariant gate tripped during an experiment run."""
