"""What a configuration field may hold, defined once: an integer count, a
finite real, and a closed or open range. Out of its domain a value changes
what is computed (a NaN threshold compares False with everything) or fails
late, in a worker or a C kernel, so every read-path configuration checks
each numeric field here when it is made. Rules between two fields stay
plain comparisons in their configuration and raise :class:`ConfigError`
too. Standard library only, so any package can import it without a cycle.
"""

from __future__ import annotations

import math
import numbers
import operator as op

__all__ = ["ConfigError", "require_finite", "require_integer"]

#: Bound keyword -> (the test a value must pass, how a message says it).
_BOUNDS = {"ge": (op.ge, ">="), "gt": (op.gt, ">"), "le": (op.le, "<="), "lt": (op.lt, "<")}


class ConfigError(TypeError, ValueError):
    """A refused configuration value: a ``TypeError`` (``2.5`` for a count) and a
    ``ValueError`` (out of range, not finite), so a caller catching either catches it."""


def require_integer(name: str, value, *, ge=None, le=None) -> None:
    """Refuse anything but an integer (numpy's too, never a ``bool``) in ``[ge, le]``."""
    kind_ok = not isinstance(value, bool) and isinstance(value, numbers.Integral)
    _require(name, value, "an integer", kind_ok, ge=ge, le=le)


def require_finite(name: str, value, *, ge=None, gt=None, le=None, lt=None) -> None:
    """Refuse anything but a finite real number (numpy's too, never a ``bool``)
    within the bounds: ``ge`` / ``le`` closed, ``gt`` / ``lt`` open."""
    kind_ok = not isinstance(value, bool) and isinstance(value, numbers.Real)
    kind_ok = kind_ok and (isinstance(value, numbers.Integral) or math.isfinite(value))
    _require(name, value, "a finite number", kind_ok, ge=ge, gt=gt, le=le, lt=lt)


def _require(name: str, value, kind: str, kind_ok: bool, **bounds) -> None:
    bounds = {key: bound for key, bound in bounds.items() if bound is not None}
    if kind_ok and all(_BOUNDS[key][0](value, bound) for key, bound in bounds.items()):
        return
    limits = " and ".join(f"{_BOUNDS[key][1]} {bound}" for key, bound in bounds.items())
    raise ConfigError(f"{name} must be {kind}{' ' + limits if limits else ''}, got {value!r}")
