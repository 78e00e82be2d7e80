"""Exception types shared across the package.

Every error raised by the library derives from TaskAxesError so callers
(and the CLI) can catch the whole family at once.
"""

import math
from contextlib import suppress

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


# numpy kinds of a JSON array holding a string, or booleans alone
_NOT_NUMBERS = {"U": "a string", "S": "a string", "b": "a boolean"}


def finite(name, value, shape=None) -> np.ndarray:
    """`value` as a float64 array, reshaped to `shape` when one is given;
    ConfigError naming `name` and the first offending entry unless every
    entry is a finite number, or naming the count unless `shape` holds
    that many. A -1 in `shape` stands for any number of rows, such as the
    (-1, 3) of a point list, so the count must then be a multiple of the
    other dimensions' product."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in _NOT_NUMBERS:
            raise ConfigError(f"{name} must be numbers (got {_NOT_NUMBERS[raw.dtype.kind]})")
        arr = raw.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be numbers ({err})") from None
    if not np.isfinite(arr).all():
        # numpy reads a JSON null as NaN
        if raw.dtype.kind == "O" and any(x is None for x in raw.flat):
            raise ConfigError(f"{name} must be numbers, got null")
        raise ConfigError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
    if shape is None:
        return arr
    count = math.prod(n for n in shape if n != -1)
    if -1 in shape and arr.size % count:
        raise ConfigError(f"{name} must hold a multiple of {count} numbers, got {arr.size}")
    if -1 not in shape and arr.size != count:
        raise ConfigError(f"{name} must hold {count} numbers, got {arr.size}")
    return arr.reshape(shape)


def entry(data, key, path, kind=None):
    """data[key] of a JSON object, read as `scalar` reads a `kind` when
    one is given; FileFormatError naming the key path `path` (the caller
    names the file) when the key is missing."""
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise FileFormatError(f"{path} is missing") from None
    return value if kind is None else scalar(value, kind, path)


def scalar(value, kind, path):
    """JSON value `value` as `kind`, with nothing converted: an int takes
    an integral number, a float any number, a bool a JSON boolean and a
    str a string. Else FileFormatError `path: expected int, got 24.9`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integral = number and (isinstance(value, int) or value.is_integer())
    if {int: integral, float: number}.get(kind, isinstance(value, kind)):
        with suppress(OverflowError):   # an int beyond the float range
            return kind(value)
    raise FileFormatError(f"{path}: expected {kind.__name__}, got {value!r}")


def pixel(name, value) -> tuple:
    """(u, v) of JSON pixel `value`: two numbers, as `finite` checks them,
    each an int as `scalar` reads one."""
    finite(name, value, (2,))
    return tuple(scalar(x, int, name) for x in value)


def known_keys(data, keys, prefix=""):
    """FileFormatError naming, after `prefix`, each key of JSON object
    `data` that is not one of `keys`: a misspelt key is never ignored."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise FileFormatError("unknown key " + ", ".join(repr(prefix + k) for k in unknown))


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
