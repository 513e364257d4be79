"""Exception types shared across the package."""


class AnomkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AnomkitError):
    """Tensor/array shapes are inconsistent with the requested operation."""


class ParameterError(AnomkitError):
    """A parameter value is outside its documented range."""


class TrainingError(AnomkitError):
    """Training diverged or produced non-finite values."""


class GenerationError(AnomkitError):
    """Phantom generation could not satisfy the requested configuration."""


class SegmentationError(AnomkitError):
    """Surface segmentation failed for a slice."""


class InputError(AnomkitError):
    """Input data violates a precondition (zero vectors, empty sets, ...)."""


class FittingError(AnomkitError):
    """A model could not be fit on the given data."""


class ConvergenceError(AnomkitError):
    """An iterative solver did not reach its tolerance within max_iter."""


class UsageError(AnomkitError):
    """API misuse: wrong call order, stale state, or mismatched model."""
