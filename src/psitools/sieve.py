"""Sieve tables (Mobius and primes) and psi blocks.

build_sieve produces one immutable bundle of arrays that most other
modules consume:

  mobius[n]       mu(n) in {-1, 0, 1}                   (mobius[0] = 0)
  primes[i]       i-th prime (ascending, all <= limit)

Construction is chunked: a base bool sieve finds the primes up to
sqrt(limit), then fixed-size segments are filled by a numpy kernel
(strided writes for small primes, gathered hits for large ones) that
yields the smallest prime factor and mu of each n.  The tables keep
mu and the primes; a block's smallest prime factors are read once, to
pick out its primes, and dropped.  The same segment kernel serves ranges
above the base table (segment_scan), so scans beyond limit need nothing
but the prime list up to sqrt of the range end.

Nothing derived from the primes is stored: theta(x) sums log p itself,
and log N_k = theta(p_k) is a column of extrema.primorial_columns.

psi_blocks streams exact psi(n) over any range below 2**40 + 1 the
same way, from its own primes up to sqrt of the range end, with no
tables at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .summation import chunked, compensated_sum

__all__ = [
    "SEGMENT_SIZE",
    "MAX_LIMIT",
    "InsufficientSieveError",
    "SieveTables",
    "build_sieve",
    "theta",
    "segment_scan",
    "psi_blocks",
]

SEGMENT_SIZE = 1 << 20
# hits per chunk of the large-prime pass in _sieve_block
_HIT_CHUNK = 1 << 16
# values per sub-chunk that segment_scan converts to Python ints
_SCAN_CHUNK = 1 << 16
MAX_LIMIT = 1 << 40


class InsufficientSieveError(ValueError):
    """An operation needed primes beyond the built table."""


@dataclass(frozen=True)
class SieveTables:
    """Immutable arithmetic tables over [0, limit]; mobius is indexed by n."""

    limit: int
    mobius: np.ndarray
    primes: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.mobius, self.primes):
            arr.setflags(write=False)

    def prime_count(self, x: float) -> int:
        """Number of primes <= x (x may exceed limit only if no prime does)."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def check(self, x, least: int, name: str = "x"):
        """x, if least <= x <= limit.

        Raises ValueError below least (or on NaN) and
        InsufficientSieveError above limit.
        """
        if not least <= x:
            raise ValueError(f"{name} must be >= {least}, got {x}")
        if x > self.limit:
            raise InsufficientSieveError(
                f"{name}={x} beyond table limit {self.limit}")
        return x


def _small_primes(limit: int) -> np.ndarray:
    """Plain bool-array sieve; used only up to sqrt of the real target."""
    marks = np.ones(limit + 1, dtype=bool)
    marks[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if marks[p]:
            marks[p * p::p] = False
    return np.nonzero(marks)[0].astype(np.int64)


def _hit_chunks(lo: int, n: int,
                steps: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every multiple of each step in [lo, lo + n), about _HIT_CHUNK at a time.

    Yields (index, step) pairs of equal-length arrays: index is a
    multiple's offset from lo, step the step that hit it.  A chunk holds
    whole steps, so a step with more hits than _HIT_CHUNK is one chunk.
    """
    if not steps.size:
        return
    first = (-lo) % steps
    counts = np.maximum((n - 1 - first) // steps + 1, 0)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_HIT_CHUNK, ends[-1], _HIT_CHUNK),
                           side="right")
    bounds = np.unique([0, *cuts.tolist(), steps.size]).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        c = counts[a:b]
        total = int(c.sum())
        if total:
            # the k-th multiple of a step sits at first + k * step
            k = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            step = np.repeat(steps[a:b], c)
            yield np.repeat(first[a:b], c) + step * k, step


def _sieve_block(lo: int, hi: int, primes: np.ndarray,
                 spf_dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """SPF and Mobius arrays for the half-open range [lo, hi).

    primes must cover sqrt(hi - 1).  Each prime p lowers spf to p, flips
    the sign of mobius and divides p once out of a residual copy of the
    range at its multiples, and zeroes mobius at multiples of p^2.  An
    index that no p^2 divides is left with residual 1 or with exactly
    one prime factor above sqrt(hi), which gets one final flip (indices
    already zeroed stay zero under negation, whatever their residual);
    spf is n wherever no prime reached it.

    Primes up to the block length / 64 do this with strided slice
    writes (spf in descending order, so the last write at every index is
    the smallest factor).  Larger primes hit the block about 64 times
    at most: their multiples are gathered into index arrays and applied
    by unbuffered ufunc.at calls, so the Python loop runs once per chunk
    of hits rather than once per prime.

    Entries for n < 2 are cleaned up by the caller.
    """
    n = hi - lo
    sentinel = np.iinfo(spf_dtype).max
    spf = np.full(n, sentinel, dtype=spf_dtype)
    mobius = np.ones(n, dtype=np.int8)
    rem = np.arange(lo, hi, dtype=np.int64)
    top = hi - 1
    sieving = primes[primes <= isqrt(top)]
    split = int(np.searchsorted(sieving, n >> 6, side="right"))
    small, large = sieving[:split], sieving[split:]
    for p in small[::-1].tolist():
        spf[(-lo) % p::p] = p
    for p in small.tolist():
        start = (-lo) % p
        mobius[start::p] = -mobius[start::p]
        rem[start::p] //= p
        mobius[(-lo) % (p * p)::p * p] = 0
    for index, p in _hit_chunks(lo, n, large):
        np.floor_divide.at(rem, index, p)
        np.negative.at(mobius, index)
        np.minimum.at(spf, index, p.astype(spf_dtype))
    for index, _ in _hit_chunks(lo, n, large * large):
        mobius[index] = 0
    large_factor = rem > 1
    mobius[large_factor] = -mobius[large_factor]
    unmarked = spf == sentinel
    if lo == 0:
        spf[:2][unmarked[:2]] = 0
        unmarked[:2] = False
    spf[unmarked] = (np.nonzero(unmarked)[0] + lo).astype(spf_dtype)
    return spf, mobius


def _psi_block(lo: int, hi: int, primes: np.ndarray, out: np.ndarray) -> None:
    """Write psi(n) for n in [lo, hi) into out; primes must cover sqrt(hi - 1).

    The residual trick of _sieve_block: each prime p multiplies its
    multiples by p + 1 and divides p out of a residual copy of the range,
    and each higher power p^a multiplies by a further p and divides out a
    further p.  An index left with residual > 1 has exactly one prime
    factor q above sqrt(hi - 1) and gets one final factor q + 1.
    Entry n = 0, a multiple of every prime, is left to the caller.
    """
    out[:] = 1
    rem = np.arange(lo, hi, dtype=np.int64)
    top = hi - 1
    for p in primes[primes <= isqrt(top)].tolist():
        start = (-lo) % p
        out[start::p] *= p + 1
        rem[start::p] //= p
        power = p * p
        while power <= top:
            start = (-lo) % power
            out[start::power] *= p
            rem[start::power] //= p
            power *= p
    large = rem > 1
    out[large] *= rem[large] + 1


def build_sieve(limit: int) -> SieveTables:
    """Build all tables for [0, limit].

    Args:
        limit: inclusive upper bound, 2 <= limit <= 2**40.  The tables
            take 1 byte per n for mobius and 8 bytes per prime.

    Returns:
        SieveTables with read-only arrays.
    """
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    limit = int(limit)
    if not 2 <= limit <= MAX_LIMIT:
        raise ValueError(f"limit must be in [2, 2**40], got {limit}")

    spf_dtype = np.int32 if limit < 2 ** 31 else np.int64
    root = isqrt(limit)
    base_primes = _small_primes(root)
    mobius = np.empty(limit + 1, dtype=np.int8)
    large_prime_chunks: list[np.ndarray] = []
    for lo in range(0, limit + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        blk_spf, mobius[lo:hi] = _sieve_block(lo, hi, base_primes, spf_dtype)
        # primes above sqrt(limit) are exactly the entries spf left at n
        hits = np.nonzero(blk_spf == np.arange(lo, hi, dtype=spf_dtype))[0] + lo
        large_prime_chunks.append(hits[hits > root])
    mobius[0] = 0
    primes = np.concatenate([base_primes] + large_prime_chunks)
    return SieveTables(limit=limit, mobius=mobius, primes=primes)


def theta(x: float, tables: SieveTables) -> float:
    """Chebyshev theta: sum of log p over primes p <= x.

    Args:
        x: real cutoff, 0 <= x <= tables.limit.
        tables: sieve tables covering x.

    Returns:
        theta(x) as a compensated sum in ascending p, 2**16 primes at a
        time (0.0 below 2); the same bits as the log_N column of
        extrema.primorial_columns at the largest p_k <= x.
    """
    primes = tables.primes[:tables.prime_count(tables.check(x, 0))]
    return compensated_sum(np.log(c.astype(float)) for c in chunked(primes))


def segment_scan(lo: int, hi: int,
                 tables: SieveTables) -> Iterator[tuple[int, int, int]]:
    """Yield (n, spf(n), mu(n)) for every n in the inclusive range [lo, hi].

    Works above tables.limit as long as the prime list covers sqrt(hi);
    values are recomputed segment by segment with the same kernel that
    built the base table, so a scan over the base range reproduces it
    exactly.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if isqrt(hi) > tables.limit:
        raise InsufficientSieveError(
            f"segment end {hi} needs primes to {isqrt(hi)}, "
            f"but tables stop at {tables.limit}")
    root = isqrt(hi)
    need = tables.primes[:int(np.searchsorted(tables.primes, root, side="right"))]
    spf_dtype = np.int32 if hi < 2 ** 31 else np.int64
    for seg_lo in range(lo, hi + 1, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE, hi + 1)
        blk_spf, blk_mob = _sieve_block(seg_lo, seg_hi, need, spf_dtype)
        # Python ints a sub-chunk at a time: fast to iterate, small lists
        for a in range(0, seg_hi - seg_lo, _SCAN_CHUNK):
            b = a + _SCAN_CHUNK
            yield from zip(range(seg_lo + a, min(seg_lo + b, seg_hi)),
                           blk_spf[a:b].tolist(), blk_mob[a:b].tolist())


def psi_blocks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, psi) blocks that cover the half-open range [lo, hi).

    psi[i] = psi(first + i) exactly, as int64 (psi(n) < 5n here), with
    psi(0) = 0 and psi(1) = 1; blocks hold SEGMENT_SIZE values, the
    first starting at lo and the last ending at hi.  The primes come
    from a plain sieve up to sqrt(hi - 1), so no tables are needed and
    only one block is held at a time.  Raises ValueError, when first
    advanced, unless 0 <= lo <= hi and hi - 1 <= 2**40.
    """
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi or hi - 1 > MAX_LIMIT:
        raise ValueError(
            f"need 0 <= lo <= hi <= 2**40 + 1, got lo={lo}, hi={hi}")
    primes = _small_primes(isqrt(max(hi - 1, 0)))
    for first in range(lo, hi, SEGMENT_SIZE):
        psi = np.empty(min(SEGMENT_SIZE, hi - first), dtype=np.int64)
        _psi_block(first, first + len(psi), primes, psi)
        if first == 0:
            psi[0] = 0
        yield first, psi
