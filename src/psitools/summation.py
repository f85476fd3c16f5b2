"""Compensated floating-point accumulation.

Left-to-right summation of n terms can lose ~n ulp of accuracy; the
prefix sums here track the rounding error of every addition so they
stay within a few ulp regardless of length, _CHUNK values at a time.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["chunked", "compensated_chunks", "compensated_cumsum",
           "compensated_sum"]

_CHUNK = 1 << 16  # elements per chunk, and so per temporary


def chunked(a: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of a, _CHUNK values each (the last may be short)."""
    return (a[i:i + _CHUNK] for i in range(0, len(a), _CHUNK))


def compensated_chunks(chunks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Prefix sums of the concatenated float64 chunks, one array per chunk.

    np.cumsum accumulates sequentially, so the rounding error committed
    at step i can be recovered exactly afterwards with a branch-free
    TwoSum against the naive prefix array.  Adding back the running
    total of those per-step errors corrects every prefix at vector
    speed; the correction's own rounding is second order.  Both sums
    carry across chunks, so any split of the input gives the same bits.
    """
    s_end = e_end = 0.0
    for a in filter(len, chunks):
        buf = np.cumsum(np.concatenate(([s_end], a)))
        prev, s = buf[:-1], buf[1:]
        z = s - prev
        err = (prev - (s - z)) + (a - z)
        err[0] += e_end
        np.cumsum(err, out=err)
        s_end, e_end = s[-1], err[-1]
        yield np.add(s, err, out=err)


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums of a float64 array, each accurate to ~1 ulp."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty_like(a)
    for dest, sums in zip(chunked(out), compensated_chunks(chunked(a))):
        dest[:] = sums
    return out


def compensated_sum(chunks: Iterable[np.ndarray]) -> float:
    """The whole sum, the last prefix of compensated_chunks (0.0 if none)."""
    total = 0.0
    for sums in compensated_chunks(chunks):
        total = float(sums[-1])
    return total
