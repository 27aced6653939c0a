"""Exception types shared across the package, and the number checks that raise them."""

import math
import numbers


class UsageError(ValueError):
    """Raised when arguments or configuration violate a documented contract."""


class CapacityError(UsageError):
    """Raised when a request exceeds a hard size guard (e.g. exhaustive search width)."""


class DegeneracyError(RuntimeError):
    """Raised when a numerical precondition fails (singular moment matrix, zero spread)."""


def as_number(raw, name: str, kind=float):
    """`raw` as an int (``kind=int``) or a finite float; a UsageError naming `name` otherwise.

    An int must equal `raw` exactly (2.5 is rejected, not truncated to 2) and
    fit in int64.  Only real numbers are converted (numpy's included): a
    string such as ``"2"`` and a boolean are rejected, not read as 2 and 1.
    """
    what = "an integer" if kind is int else "a finite number"
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise UsageError(f"{name} must be {what}, got {raw!r}")
    try:
        v = kind(raw)
        ok = math.isfinite(v) and v == float(raw)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"{name} must be {what}, got {raw!r}") from exc
    if not ok:
        raise UsageError(f"{name} must be {what}, got {raw!r}")
    if kind is int and not -(2**63) <= v < 2**63:
        raise UsageError(f"{name} must fit in a 64-bit integer, got {raw!r}")
    return v


def as_count(raw, name: str) -> int:
    """`raw` read by :func:`as_number` as an int of at least 1; a UsageError naming `name` otherwise."""
    v = as_number(raw, name, int)
    if v < 1:
        raise UsageError(f"{name} must be at least 1, got {v}")
    return v


def as_sizes(raw, name: str) -> list[int]:
    """`raw` as a nonempty list of positive ints, each entry read by :func:`as_number`."""
    sizes = [as_number(v, f"{name} entry", int) for v in raw] if isinstance(raw, (list, tuple)) else []
    if not sizes or min(sizes) < 1:
        raise UsageError(f"{name} must be a nonempty list of positive integers, got {raw!r}")
    return sizes
