"""Exception types shared across the package.

Every error raised by the library derives from TaskAxesError so callers
(and the CLI) can catch the whole family at once.
"""

import math

import numpy as np


class TaskAxesError(Exception):
    def annotate(self, context):
        """Prefix the message with caller context, keeping the concrete type."""
        if self.args:
            self.args = (f"{context}: {self.args[0]}",) + self.args[1:]
        else:
            self.args = (context,)
        return self


class ConfigError(TaskAxesError):
    """Invalid configuration value or unstable gain/stiffness/dt combination."""


class FileFormatError(TaskAxesError):
    """Binary or JSON input file does not match the documented layout."""


def positive(name, value):
    """ConfigError naming `name` unless scalar `value` is positive and finite;
    with `finite`, the check of numbers where they enter the program."""
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def finite(name, value, shape=None) -> np.ndarray:
    """`value` as a float64 array, reshaped to `shape` when one is given;
    ConfigError naming `name` and the first offending entry unless every
    entry is a finite number, or naming the count unless `shape` holds
    that many."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be numbers ({err})") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    if shape is not None and arr.size != math.prod(shape):
        raise ConfigError(f"{name} must hold {math.prod(shape)} numbers, got {arr.size}")
    return arr if shape is None else arr.reshape(shape)


def entry(data, key, path, cast=lambda value: value):
    """cast(data[key]) of a JSON object; FileFormatError naming the key
    path `path` (the caller names the file) when the key is missing or
    its value does not cast."""
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise FileFormatError(f"{path} is missing") from None
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise FileFormatError(f"{path}: expected {cast.__name__}, got {value!r}") from None


# geometry -------------------------------------------------------------

class NonPositiveDepth(TaskAxesError):
    """Depth value must be strictly positive."""


class OutOfBounds(TaskAxesError):
    """Pixel coordinate lies outside the image."""


# feature matching -----------------------------------------------------

class DimMismatch(TaskAxesError):
    """Descriptor dimensions of the two operands disagree."""


class ZeroReferenceDescriptor(TaskAxesError):
    """Reference descriptor has zero norm, cosine similarity undefined."""


class NoValidPixels(TaskAxesError):
    """Similarity map has no valid candidate pixels."""


class NonPositiveTemperature(TaskAxesError):
    """Soft-argmax temperature must be > 0."""


# grounding ------------------------------------------------------------

class MatchBelowThreshold(TaskAxesError):
    """Best match score fell under the configured reliability threshold."""

    def __init__(self, message, score):
        super().__init__(message)
        self.score = score


class DegenerateAxis(TaskAxesError):
    """Two keypoints coincide, no direction can be derived."""


class InsufficientNeighbors(TaskAxesError):
    """Too few cloud points inside the query radius."""


class DegenerateNeighborhood(TaskAxesError):
    """Local covariance has no unique principal direction for the request."""


# controllers / skills -------------------------------------------------

class UnresolvedBinding(TaskAxesError):
    """Controller binding label missing from the grounded parameters."""


class EmptyWaypointList(ConfigError):
    """Waypoint controller requires at least one offset."""


class SkillSyntaxError(TaskAxesError):
    """Skill source text failed to parse; carries line/column and expectation."""

    def __init__(self, line, col, expected):
        super().__init__(f"line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class SkillValidationError(TaskAxesError):
    """Well-formed text with an invalid skill structure."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownControllerKind(SkillValidationError):
    pass


class UnboundSymbol(SkillValidationError):
    pass


class PriorityOverflow(SkillValidationError):
    pass


class DuplicateLabel(SkillValidationError):
    pass


# simulator ------------------------------------------------------------

class EmptyScene(TaskAxesError):
    """Scene contains no renderable points."""


class GraspTooFar(TaskAxesError):
    """End effector is not close enough to the grasp keypoint."""

    def __init__(self, message, distance):
        super().__init__(message)
        self.distance = distance
