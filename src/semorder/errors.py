"""Exception types shared across the package, the config key reader and the number checks that raise them."""

import math
import numbers
from collections.abc import Iterable, Mapping


class UsageError(ValueError):
    """Raised when arguments or configuration violate a documented contract."""


class CapacityError(UsageError):
    """Raised when a request exceeds a hard size guard (e.g. exhaustive search width)."""


class DegeneracyError(RuntimeError):
    """Raised when a numerical precondition fails (singular moment matrix, zero spread)."""


REQUIRED = object()  # a key table's default for a key that must be given


def read_keys(cfg, path: str, keys: dict) -> dict:
    """Config object `cfg` at `path`, as a dict of every key in `keys`, defaults filled in.

    `keys` maps each key the object takes to its default, or to
    :data:`REQUIRED`.  A UsageError naming the full key path (``class.budgt``)
    for a `cfg` that is not an object, a missing required key, or any other
    key.  Values pass through unchecked: the code that uses each one checks it.
    """
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path or 'file'} must be an object, got {cfg!r}")
    prefix = f"{path}." if path else ""
    for key in cfg:
        if key not in keys:
            import difflib

            close = difflib.get_close_matches(str(key), list(keys), n=1)
            hint = f"did you mean {close[0]!r}?" if close else "expected one of " + ", ".join(keys)
            raise UsageError(f"unknown config key {prefix}{key}; {hint}")
    for key, default in keys.items():
        if default is REQUIRED and key not in cfg:
            raise UsageError(f"missing config key {prefix}{key}")
    return {key: cfg.get(key, default) for key, default in keys.items()}


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


def as_tuple(raw, name: str, kind=float) -> tuple:
    """`raw`, a list, tuple or array, as a tuple of entries each read by :func:`as_number`."""
    if isinstance(raw, (str, bytes, Mapping)) or not isinstance(raw, Iterable):
        raise UsageError(f"{name} must be a list of numbers, got {raw!r}")
    return tuple(as_number(v, name, kind) for v in raw)


def as_sizes(raw, name: str) -> list[int]:
    """`raw` as a nonempty list of positive ints, each entry read by :func:`as_number`."""
    sizes = [as_number(v, f"{name} entry", int) for v in raw] if isinstance(raw, (list, tuple)) else []
    if not sizes or min(sizes) < 1:
        raise UsageError(f"{name} must be a nonempty list of positive integers, got {raw!r}")
    return sizes
