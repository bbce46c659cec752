"""Exception types shared across the package.

Two families: validation errors (bad shapes, lengths, or configuration;
CLI exit code 2) and numerical errors (a computation could not produce a
trustworthy result; CLI exit code 3).
"""

import math
import numbers

import numpy as np


class ValidationError(Exception):
    """Invalid input shape, length, file, or configuration."""


class NumericalError(Exception):
    """A numerical routine failed or its result cannot be trusted."""


class DimensionMismatch(ValidationError):
    """An array has the wrong number of axes, or arrays disagree on a shared axis."""


class InvalidLowFrequencyParameter(ValidationError):
    """Number of kept spectrum slices outside [1, floor(N/2)+1]."""


class TooManyAnchors(ValidationError):
    """More anchors requested than samples available."""


class TooManyClusters(ValidationError):
    """More clusters requested than samples available."""


class EmbedDimTooSmall(ValidationError):
    """Column normalization needs at least two rows."""


class LengthMismatch(ValidationError):
    """Two label sequences have different lengths."""


class EmptyInput(ValidationError):
    """An operation received fewer elements than it can work on."""


class ParseError(ValidationError):
    """A data file could not be parsed."""


class MissingFile(ValidationError):
    """A referenced data file does not exist."""


class NonRealResult(NumericalError):
    """Inverse transform of a non-symmetric spectrum left a large imaginary part."""


class DegenerateView(NumericalError):
    """Kernel-width estimation gave zero (all sampled distances zero) or overflowed."""


class SingularSystem(NumericalError):
    """Ridge system not finite, or unsolvable within tolerance even via pseudo-inverse."""


def check_int(name, value, least=None, error=ValidationError, *, most=None):
    """Raise ``error`` unless ``value`` is an integer (not a bool) in [``least``, ``most``], where set."""
    if type(value) is bool or not isinstance(value, numbers.Integral) or not (
            (least is None or value >= least) and (most is None or value <= most)):
        bounds = " and ".join(f"{word} {bound}" for word, bound in
                              (("at least", least), ("at most", most)) if bound is not None)
        raise error(f"{name} must be an integer{' of ' + bounds if bounds else ''}, got {value!r}")


def check_switch(name, value):
    """Raise ValidationError unless ``value`` is a bool (Python's or numpy's)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")


def check_real(name, value, *, positive=False):
    """Raise ValidationError unless ``value`` is a finite, non-bool real >= 0 (> 0 if positive)."""
    if (type(value) is bool or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        sign = "positive" if positive else "non-negative"
        raise ValidationError(f"{name} must be a finite {sign} number, got {value!r}")
