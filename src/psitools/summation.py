"""Compensated floating-point accumulation.

Left-to-right summation of n terms can lose ~n ulp of accuracy; the
prefix sums here track the rounding error of every addition so they
stay within a few ulp regardless of length.  The theta prefix table
and the log-domain primorial products go through this module; whole
totals use math.fsum directly.
"""
from __future__ import annotations

import numpy as np

__all__ = ["compensated_cumsum"]


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums of a float64 array, each accurate to ~1 ulp.

    np.cumsum accumulates sequentially, so the rounding error committed
    at step i can be recovered exactly afterwards with a branch-free
    TwoSum against the naive prefix array.  Adding back the running
    total of those per-step errors corrects every prefix at vector
    speed; the correction's own rounding is second order.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.size == 0:
        return a.copy()
    s = np.cumsum(a)
    prev = np.empty_like(s)
    prev[0] = 0.0
    prev[1:] = s[:-1]
    z = s - prev
    err = (prev - (s - z)) + (a - z)
    return s + np.cumsum(err)
