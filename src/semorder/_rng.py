"""Deterministic random stream construction.

All randomness in the package flows through :func:`derived_rng`, which maps an
integer seed plus a path of integers to an independent Philox stream.  Philox
is counter-based, so streams derived from distinct paths are statistically
independent and the mapping is stable across platforms and processes.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError, as_number

__all__ = ["derived_rng", "as_entropy"]


def as_entropy(seed) -> tuple[int, ...]:
    """Normalize a seed (int or tuple of ints) to an entropy tuple.

    Each entry is read by :func:`errors.as_number` as an int, so 2.5, True
    and "2" are rejected, not read as 2, 1 and 2.  UsageError also for an
    empty seed or a negative entry.
    """
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    out = tuple(as_number(s, "seed", int) for s in entries)
    if not out or min(out) < 0:
        raise UsageError(f"seed must be one or more non-negative integers, got {seed!r}")
    return out


def derived_rng(seed, *path: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *path).

    Distinct paths give independent streams; the same path always gives the
    same stream regardless of call order.
    """
    entropy = as_entropy(seed) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
