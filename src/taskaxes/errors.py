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
    that many. A -1 in `shape` stands for any number of rows, such as the
    (-1, 3) of a point list, so the count must then be a multiple of the
    other dimensions' product."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be numbers ({err})") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    if shape is None:
        return arr
    count = math.prod(n for n in shape if n != -1)
    if -1 in shape and arr.size % count:
        raise ConfigError(f"{name} must hold a multiple of {count} numbers, got {arr.size}")
    if -1 not in shape and arr.size != count:
        raise ConfigError(f"{name} must hold {count} numbers, got {arr.size}")
    return arr.reshape(shape)


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
    except (TypeError, ValueError, OverflowError):
        raise FileFormatError(f"{path}: expected {cast.__name__}, got {value!r}") from None


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def typed(value, kind, path):
    """`value` if it is a JSON `kind` (dict, list or str), else FileFormatError
    naming `path`: the one check of each container or name, where it is decoded."""
    if not isinstance(value, kind):
        raise FileFormatError(f"{path} must be a JSON {_JSON_TYPES[kind]}")
    return value


def name_entry(data, key, path):
    """The string data[key], checked as entry and typed check it."""
    return typed(entry(data, key, path), str, path)


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
    """Controller binding names no keypoint or axis that its role grounds."""


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
