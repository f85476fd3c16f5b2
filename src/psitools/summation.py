"""Compensated floating-point accumulation.

Left-to-right summation of n terms can lose ~n ulp of accuracy.
CompensatedSum, the one accumulator of every prime and squarefree sum,
tracks the rounding error of every addition, so its prefix sums stay
within a few ulp regardless of length; its callers feed it one chunk at
a time, and chunked cuts an array into _CHUNK-value slices.  Sample is
the row of every sum with a known main term.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["chunked", "CompensatedSum", "Sample"]

_CHUNK = 1 << 16  # elements per chunk, and so per temporary


def chunked(a: np.ndarray, size: int = _CHUNK) -> Iterator[np.ndarray]:
    """Consecutive slices of a, size values each (the last may be short)."""
    return (a[i:i + size] for i in range(0, len(a), size))


class CompensatedSum:
    """A compensated sum fed one chunk at a time.

    np.cumsum accumulates sequentially, so the rounding error committed
    at step i can be recovered exactly afterwards with a branch-free
    TwoSum against the naive prefix array.  Adding back the running
    total of those per-step errors corrects every prefix at vector
    speed; the correction's own rounding is second order.  Both sums
    carry from one add to the next, so any split of the input gives the
    same bits.  value is the last prefix so far (0.0 before any term).
    """

    def __init__(self) -> None:
        self.value = 0.0
        self._sum = self._err = 0.0

    def add(self, a: np.ndarray) -> np.ndarray:
        """Prefix sums of the float64 terms a, after every earlier add."""
        if not len(a):
            return np.zeros(0)
        buf = np.empty(len(a) + 1)
        buf[0] = self._sum
        buf[1:] = a
        np.cumsum(buf, out=buf)
        prev, s = buf[:-1], buf[1:]
        # err = (prev - (s - z)) + (a - z), the same IEEE operations in
        # the same order, in two temporaries
        z = np.subtract(s, prev)
        err = np.subtract(s, z)
        np.subtract(prev, err, out=err)
        np.subtract(a, z, out=z)
        np.add(err, z, out=err)
        err[0] += self._err
        np.cumsum(err, out=err)
        self._sum, self._err = s[-1], err[-1]
        sums = np.add(s, err, out=err)
        self.value = float(sums[-1])
        return sums


class Sample(NamedTuple):
    """A sum at x against its main term: residual = value - main."""

    x: int
    value: float
    main: float
    residual: float
