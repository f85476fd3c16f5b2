"""Prime and psi streams, and sieve tables (Mobius and primes).

prime_blocks and psi_blocks stream the primes and exact psi(n) below
2**40 + 1.  Each walks the blocks of _blocks, which sieves the primes
up to sqrt of the range end once, and yields one block at a time, so a
consumer that takes its rows as chunks (such as verify-psi) holds
O(block) memory whatever the range.
prime_chunks, the one prime source, cuts prime_blocks into short
chunks, or stops after the first count primes.  grid_rows is the one
walk that answers a grid of x from such a stream: it cuts the blocks at
every x and reads a running state there.

Each block fact has one kernel, and every kernel sieves one array with
one update per pass of _sieve: (ufunc, array, values) is applied at the
multiples of each step, by strided in-place ufunc calls for steps up to
1/64 of the block length and by gathered hits and ufunc.at for larger
ones.

  primes  _unmarked: bool marks written False at the multiples of
          each prime, then the n left unmarked
  mu      _mobius_block: a signed found-factor product
  psi     _psi_block: the same product over prime powers, turned into
          its last factor in place, then the psi factors multiplied
          onto it
  spf     _spf_block: np.minimum with each prime

The Mobius and psi kernels start on a wheel (Pritchard, "Explaining the
wheel sieve", Acta Informatica 1982): the factors of 2, 4, 8, 3, 5, 7,
11 and 13 repeat with period 120120, so one precomputed period is
tiled in instead of sieved, by one helper, _wheel_sieve, for both.  The
Mobius kernel divides nothing: each prime above 13 multiplies its array
by -p at its multiples, so its sign is (-1)^omega and its magnitude the
found-factor product; p^2 zeroes mu, and one comparison of that
product with n gives the last flip.  The psi kernel closes its found
product with one float64 division n / found per n, exact below 2**53;
psi_blocks holds each block in int32 while psi fits it (psi(n) < 5n,
so up to n = 2**31 // 5) and in int64 above.

_mobius_table runs the Mobius kernel over the blocks of [0, limit], each
written straight into its slice of the table, with one found-product
scratch for every block; squarefree's Q(x) and harmonic sum read it to
sqrt(x).  build_sieve fills one immutable bundle over [0, limit] for
the table readers (segment_scan, and the square-divisor counts of
squarefree given tables):

  mobius[n]       mu(n) in {-1, 0, 1}                   (mobius[0] = 0)
  primes[i]       i-th prime (ascending, all <= limit)

The primes come from prime_blocks and mu from _mobius_table.
segment_scan reruns the Mobius kernel above the table, needing only the
primes up to sqrt of the range end, and takes smallest prime factors
from _spf_block.

This module and summation are the only library modules that importing
psitools or psitools.cli loads, since every subcommand streams through
them; the others (constants, extrema, mertens, squarefree, arith) are
imported where a subcommand runs them.  So this module imports none of
them, nor dataclasses: SieveTables is a NamedTuple.
"""
from __future__ import annotations

from functools import cache
from itertools import chain
from math import isqrt, log
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .summation import _CHUNK, chunked

__all__ = [
    "SEGMENT_SIZE",
    "MAX_LIMIT",
    "InsufficientSieveError",
    "SieveTables",
    "build_sieve",
    "segment_scan",
    "psi_blocks",
    "prime_blocks",
    "prime_chunks",
    "grid_rows",
]

SEGMENT_SIZE = 1 << 20
# hits per chunk of the gathered pass of _sieve
_HIT_CHUNK = 1 << 16
MAX_LIMIT = 1 << 40
# primes per chunk of prime_chunks: larger chunks raise peak RSS, not speed
_PRIME_CHUNK = 1 << 12


class InsufficientSieveError(ValueError):
    """An operation needed primes beyond the built table."""


class SieveTables(NamedTuple):
    """Immutable arithmetic tables over [0, limit]; mobius is indexed by
    n.  build_sieve makes both arrays read-only."""

    limit: int
    mobius: np.ndarray
    primes: np.ndarray

    def prime_count(self, x: float) -> int:
        """Number of primes <= x (x may exceed limit only if no prime does)."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def check(self, x: int, name: str = "x") -> int:
        """x, if x <= limit; raises InsufficientSieveError above it."""
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


def _index_dtype(hi: int) -> type:
    """int32 when every n below hi fits it, else int64."""
    return np.int32 if hi <= 2 ** 31 else np.int64


def _psi_dtype(hi: int) -> type:
    """int32 when psi(n) fits it for every n below hi, else int64.

    psi(n) < 5n for n <= 2**40: psi(n) / n <= prod(1 + 1/p) over the
    distinct primes of n, n has at most 11 of them (N_12 > 2**40), and
    that product over the first 11 primes is below 5.  So
    5 (hi - 1) < 2**31 is enough.
    """
    return np.int32 if 5 * (hi - 1) < 2 ** 31 else np.int64


def _sieve(lo: int, hi: int, steps: np.ndarray, ufunc, array: np.ndarray,
           values: np.ndarray) -> None:
    """Apply ufunc with values at the multiples of each step in [lo, hi).

    steps is an ascending int64 array.  At every multiple m of steps[j],
    array[m - lo] becomes ufunc(array[m - lo], values[j]), or values[j]
    when ufunc is None (assignment, which is order-free only where all
    steps write the same value).  Steps up to the block length / 64 are
    applied by in-place ufunc calls on strided views.  Larger ones hit
    the block about 64 times at most: their multiples are gathered, whole
    steps and about _HIT_CHUNK hits at a time, and applied by unbuffered
    ufunc.at, so the Python loop runs once per chunk of hits rather than
    once per step.
    """
    n = hi - lo
    split = int(np.searchsorted(steps, n >> 6, side="right"))
    starts = ((-lo) % steps[:split]).tolist()
    # Python scalars: a ufunc takes them faster than numpy ones
    for start, step, value in zip(starts, steps[:split].tolist(),
                                  values[:split].tolist()):
        if ufunc is None:
            array[start::step] = value
        else:
            view = array[start::step]
            ufunc(view, value, out=view)
    large, values = steps[split:], values[split:]
    if not large.size:
        return
    first = (-lo) % large
    counts = np.maximum((n - 1 - first) // large + 1, 0)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_HIT_CHUNK, ends[-1], _HIT_CHUNK),
                           side="right")
    # a set, not np.unique, whose first call imports numpy.ma (~18 ms)
    bounds = sorted({0, *cuts.tolist(), large.size})
    for a, b in zip(bounds[:-1], bounds[1:]):
        c = counts[a:b]
        # the k-th multiple of a step sits at first + k * step
        k = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
        j = np.repeat(np.arange(a, b), c)
        index = first[j] + large[j] * k
        if ufunc is None:
            array[index] = values[j]
        else:
            ufunc.at(array, index, values[j])


def _mobius_block(lo: int, hi: int, primes: np.ndarray, mobius: np.ndarray,
                  found: np.ndarray | None = None) -> None:
    """Write mu(n) for n in [lo, hi) into mobius, an int8 array of hi - lo
    values; primes must cover sqrt(hi - 1).

    One signed array, found, carries both the sign and the found-factor
    product.  It starts from the period of _signed_wheel(): (-1)^omega(g)
    * g for g = gcd(n, 30030), and 0 at the multiples of 4.  Each sieving
    prime p > 13 then multiplies it by -p at its multiples.  |found| is
    the product of the distinct primes up to max(13, sqrt(hi - 1)) that
    divide n, a divisor of n (so it fits the int32 of _index_dtype), and
    its sign is (-1) to the number of those primes.  A squarefree n with
    |found| < n has exactly one prime factor above them, so mu(n) =
    sign(found), negated there.  That closing step writes mobius over
    _CHUNK-value slices, so found is the one block-sized array beside
    mobius.  Then each p^2 with 3 <= p <= sqrt(hi - 1) zeroes mobius at
    its multiples, as the period did for 4.  Entry n = 0 is left to the
    caller.

    found is a scratch array of at least hi - lo values, in
    _index_dtype(hi) or int64; _mobius_table passes one for all the
    blocks of its table.  Without it one is allocated.
    """
    if found is None:
        found = np.empty(hi - lo, dtype=_index_dtype(hi))
    found = found[:hi - lo]
    primes = primes[primes <= isqrt(hi - 1)]
    sieving = primes[np.searchsorted(primes, _WHEEL_PRIMES[-1], "right"):]
    _wheel_sieve(lo, hi, None, found, _signed_wheel(), sieving,
                 (-sieving).astype(found.dtype))
    for a, f, mu in zip(range(lo, hi, _CHUNK), chunked(found),
                        chunked(mobius)):
        # 1 where |found| == n, -1 where one prime factor is left
        flip = np.less(np.abs(f), np.arange(a, a + len(f), dtype=found.dtype))
        flip = flip.view(np.int8)
        flip *= -2
        flip += 1
        np.multiply(np.sign(f, out=f), flip, out=mu, casting="unsafe")
    squares = primes[1:] ** 2  # 4 is in the period
    _sieve(lo, hi, squares, None, mobius, np.zeros(len(squares), np.int8))


def _unmarked(lo: int, hi: int, steps: np.ndarray,
              marks: np.ndarray) -> np.ndarray:
    """The n in [lo, hi) that no step divides, ascending, as int64.

    marks is a bool array of hi - lo values, overwritten: one
    assignment pass of _sieve writes False there at the multiples of
    each step: the sieving primes of prime_blocks.
    """
    marks.fill(True)
    _sieve(lo, hi, steps, None, marks, np.zeros(len(steps), dtype=bool))
    found = np.flatnonzero(marks)
    found += lo
    return found


def _spf_block(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Smallest prime factor of each n in [lo, hi); primes must cover
    sqrt(hi - 1).

    Starts from n itself, and each prime lowers its multiples to it with
    np.minimum, in any order.  A block at lo = 0 gives n = 1 the value
    0, and n = 0 the least sieving prime (0 if there is none).
    """
    dtype = _index_dtype(hi)
    unset = np.iinfo(dtype).max
    spf = np.arange(lo, hi, dtype=dtype)
    head = spf[:2 if lo == 0 else 0]
    head[:] = unset
    primes = primes[primes <= isqrt(hi - 1)]
    _sieve(lo, hi, primes, np.minimum, spf, primes.astype(dtype))
    head[head == unset] = 0
    return spf


# the wheel: 2^3 * 3 * 5 * 7 * 11 * 13, whose factors _mobius_block and
# _psi_block tile in instead of sieving them
_WHEEL = 120120
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
# steps below this are sieved one wheel period at a time, in cache
_DENSE = 128


@cache
def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """One period of _psi_block's wheel factors, as read-only int32
    (psi factor, found factor) at n = 0, 1, ..., _WHEEL - 1: the factors
    of every prime power dividing _WHEEL, exactly as the sieve would
    apply them; its first pass copies the found factors, its second
    multiplies by the psi factors.  The found factor is gcd(n, _WHEEL),
    and the psi factor its psi.
    """
    psi = np.ones(_WHEEL, dtype=np.int32)
    found = np.ones(_WHEEL, dtype=np.int32)
    for p in _WHEEL_PRIMES:
        psi[::p] *= p + 1
        found[::p] *= p
        power = p * p
        while _WHEEL % power == 0:
            psi[::power] *= p
            found[::power] *= p
            power *= p
    for pattern in (psi, found):
        pattern.setflags(write=False)  # one copy serves every caller
    return psi, found


@cache
def _signed_wheel() -> np.ndarray:
    """One period of _mobius_block's starting state at n = 0, 1, ...,
    _WHEEL - 1, read-only: (-1)^omega(g) * g for g = gcd(n, 30030), and
    0 at multiples of 4.  |g| <= 30030, so it is int16.
    """
    signed = np.ones(_WHEEL, dtype=np.int16)
    for p in _WHEEL_PRIMES:
        signed[::p] *= -p
    signed[::4] = 0
    signed.setflags(write=False)
    return signed


def _wheel_sieve(lo: int, hi: int, tile, array: np.ndarray,
                 pattern: np.ndarray, steps: np.ndarray,
                 values: np.ndarray) -> None:
    """Tile one _WHEEL period of pattern into array over [lo, hi), then
    multiply array by values[j] at the multiples of each steps[j].

    tile is None to copy each period of the block from the pattern, or a
    ufunc that combines the pattern into it (np.multiply).  steps and
    values are as _sieve takes them.  Steps below _DENSE are sieved on
    each period right after it is tiled, while it is in cache; the rest
    over the whole block.
    """
    dense = int(np.searchsorted(steps, _DENSE))
    cuts = [lo, *range(lo - lo % _WHEEL + _WHEEL, hi, _WHEEL), hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        period = array[a - lo:b - lo]
        start = a % _WHEEL
        if tile is None:
            period[:] = pattern[start:start + b - a]
        else:
            tile(period, pattern[start:start + b - a], out=period)
        _sieve(a, b, steps[:dense], np.multiply, period, values[:dense])
    _sieve(lo, hi, steps[dense:], np.multiply, array, values[dense:])


def _prime_powers(primes: np.ndarray,
                  top: int) -> tuple[np.ndarray, np.ndarray]:
    """Every power p^a <= top <= 2**40 with a >= 1, ascending, and its
    p, for the ascending primes p <= sqrt(top) given."""
    powers, bases = [primes], [primes]
    while powers[-1].size:
        # p^(a + 1) <= 2**60 fits int64, and rises with p
        higher = powers[-1] * bases[-1]
        count = int(np.searchsorted(higher, top, side="right"))
        powers.append(higher[:count])
        bases.append(bases[-1][:count])
    powers = np.concatenate(powers)
    # one ascending run per exponent, which a stable sort merges
    order = np.argsort(powers, kind="stable")
    return powers[order], np.concatenate(bases)[order]


def _psi_block(lo: int, hi: int, primes: np.ndarray, out: np.ndarray) -> None:
    """Write psi(n) for n in [lo, hi) into out; primes must cover sqrt(hi - 1).

    out is int64, or the int32 of _psi_dtype(hi), and the only
    block-sized array: every product below is made in out's own dtype,
    and no value it takes at n >= 1 exceeds psi(n).

    The prime powers that divide _WHEEL = 120120 (2, 4, 8, 3, 5, 7, 11
    and 13) repeat with that period, so their factors are not sieved:
    _wheel_sieve tiles each period of the block from _wheel(), and
    sieves the other steps below _DENSE on it while the period is in
    cache; the rest are sieved over the whole block.  11 and 13 come
    from the wheel even where they exceed sqrt(hi - 1).  Two passes of
    it fill out:

    1. The found-factor product of _mobius_block, over prime powers:
       the wheel's found factors are copied in, and each other prime
       power p^a <= hi - 1 multiplies its multiples by p.  out is then
       the part of n made of those primes and the primes up to
       sqrt(hi - 1), a divisor of n.  The one division q = n / found
       leaves 1 or the one prime factor q above them, and q += (q > 1)
       turns those into the last factor, 1 or q + 1, written over found.
       The division is done in float64 and is exact: n <= 2**40 < 2**53
       and found divides n, so the quotient is an integer that float64
       holds exactly, and IEEE division rounds to it.  This closing step
       runs over _CHUNK-value slices of out.
    2. The psi factors are multiplied onto the last factor: the wheel's
       psi factors, then p + 1 at each prime p and a further p at each
       higher power.

    Entry n = 0, a multiple of every prime, is left to the caller.
    """
    primes = primes[primes <= isqrt(hi - 1)]
    powers, base = _prime_powers(primes, hi - 1)
    keep = _WHEEL % powers != 0
    powers, base = powers[keep], base[keep]
    psi_wheel, found_wheel = _wheel()
    _wheel_sieve(lo, hi, None, out, found_wheel, powers,
                 base.astype(out.dtype))
    if lo == 0:
        out[0] = 1  # so that q = 0 there
    for a, part in zip(range(lo, hi, _CHUNK), chunked(out)):
        q = np.arange(a, a + len(part), dtype=np.float64)
        q /= part
        q += q > 1
        part[:] = q  # integers no larger than n + 1: the cast is exact
    base += powers == base  # p + 1 at the primes
    _wheel_sieve(lo, hi, np.multiply, out, psi_wheel, powers,
                 base.astype(out.dtype))


def _prime_bound(x: int) -> int:
    """An upper bound on pi(x) for x >= 2: Rosser and Schoenfeld (1962)
    give pi(x) < 1.25506 x / log x for x > 1."""
    return int(1.25506 * x / log(x)) + 1


def _available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None if unreadable."""
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(limit: int) -> None:
    """Raise MemoryError if build_sieve(limit) plainly cannot fit.

    The estimate is 1 byte per n for mobius, 8 bytes per prime by
    _prime_bound, and about 32 bytes per n of one block's temporaries.
    """
    need = (limit + 1 + 8 * _prime_bound(limit)
            + 32 * min(SEGMENT_SIZE, limit + 1))
    available = _available_bytes()
    if available is not None and need > available:
        raise MemoryError(
            f"build_sieve({limit}) needs about {need / 2 ** 20:,.0f} MiB, "
            f"but only {available / 2 ** 20:,.0f} MiB are available")


def build_sieve(limit: int) -> SieveTables:
    """Build all tables for [0, limit].

    Args:
        limit: inclusive upper bound, 2 <= limit <= 2**40.  The tables
            take 1 byte per n for mobius and 8 bytes per prime.

    Returns:
        SieveTables with read-only arrays.

    The primes are copied from prime_blocks, block by block, into one
    array sized by _prime_bound and then shrunk in place; mu comes from
    _mobius_table after them.  Raises MemoryError, before allocating, if
    the estimate of _check_memory exceeds the memory available.
    """
    if not isinstance(limit, (int, np.integer)) or isinstance(limit, bool):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    limit = int(limit)
    if not 2 <= limit <= MAX_LIMIT:
        raise ValueError(f"limit must be in [2, 2**40], got {limit}")
    _check_memory(limit)

    # one array sized by the bound, filled block by block and shrunk, so
    # that no concatenated copy is made; allocated before mobius, which
    # keeps less heap resident after the prime blocks are freed
    primes = np.empty(_prime_bound(limit), dtype=np.int64)
    count = 0
    for block in prime_blocks(2, limit + 1):
        primes[count:count + len(block)] = block
        count += len(block)
    primes.resize(count, refcheck=False)  # no view of it exists yet
    # the last prime block goes before mu's found scratch: freed after
    # it, once the scratch's unmap has raised glibc's trim threshold, its
    # heap stays resident (1.4 MB more RSS after build_sieve(2_000_000))
    del block
    mobius = _mobius_table(limit)
    for table in (mobius, primes):
        table.setflags(write=False)
    return SieveTables(limit=limit, mobius=mobius, primes=primes)


def _mobius_table(limit: int) -> np.ndarray:
    """mu(n) for every n in [0, limit], limit >= 1, as int8 (mu(0) = 0):
    _mobius_block writes each block of _blocks straight into its slice
    of the table, all of them sieved in one found scratch."""
    mobius = np.empty(limit + 1, dtype=np.int8)
    # one scratch for every block: arrays freed block by block can leave
    # their heap resident once glibc raises its mmap threshold
    found = np.empty(min(SEGMENT_SIZE, limit + 1),
                     dtype=_index_dtype(limit + 1))
    for lo, hi, base in _blocks(0, limit + 1):
        _mobius_block(lo, hi, base, mobius[lo:hi], found)
    mobius[0] = 0
    return mobius


def segment_scan(lo: int, hi: int,
                 tables: SieveTables) -> Iterator[tuple[int, int, int]]:
    """Yield (n, spf(n), mu(n)) for every n in the inclusive range [lo, hi].

    Works above tables.limit as long as the prime list covers sqrt(hi);
    mu is recomputed segment by segment with the same kernel that built
    the base table, so a scan over the base range reproduces it exactly,
    and spf by the separate pass _spf_block.  lo, hi and the table are
    checked when called.  The tuples come from one zip per _CHUNK values,
    chained at C level, so no Python frame runs per n.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    root = tables.check(isqrt(hi), "sqrt(hi)")
    need = tables.primes[:tables.prime_count(root)]
    return chain.from_iterable(_scan_slices(lo, hi, need))


def _scan_slices(lo: int, hi: int,
                 primes: np.ndarray) -> Iterator[Iterator[tuple]]:
    """The zips of segment_scan, one per _CHUNK values of [lo, hi]."""
    for seg_lo in range(lo, hi + 1, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE, hi + 1)
        blk_mob = np.empty(seg_hi - seg_lo, dtype=np.int8)
        _mobius_block(seg_lo, seg_hi, primes, blk_mob)
        blk_spf = _spf_block(seg_lo, seg_hi, primes)
        # Python ints a sub-chunk at a time: fast to iterate, small lists
        for a in range(0, seg_hi - seg_lo, _CHUNK):
            b = a + _CHUNK
            yield zip(range(seg_lo + a, min(seg_lo + b, seg_hi)),
                      blk_spf[a:b].tolist(), blk_mob[a:b].tolist())


def _blocks(lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(first, last, primes) for each SEGMENT_SIZE block [first, last)
    of [lo, hi), with primes from a plain sieve up to sqrt(hi - 1).

    Raises ValueError, when first advanced, unless 0 <= lo <= hi and
    hi - 1 <= 2**40.
    """
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi or hi - 1 > MAX_LIMIT:
        raise ValueError(
            f"need 0 <= lo <= hi <= 2**40 + 1, got lo={lo}, hi={hi}")
    primes = _small_primes(isqrt(max(hi - 1, 0)))
    for first in range(lo, hi, SEGMENT_SIZE):
        yield first, min(first + SEGMENT_SIZE, hi), primes


def psi_blocks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first, psi) blocks that cover the half-open range [lo, hi).

    psi[i] = psi(first + i) exactly, with psi(0) = 0 and psi(1) = 1,
    one _blocks block at a time; no tables are needed and only one block
    is held.  psi(n) < 5n here, so a block whose last n is at most
    2**31 // 5 = 429496729 is int32, and any later block int64.  Raises
    ValueError, when first advanced, unless 0 <= lo <= hi and
    hi - 1 <= 2**40.

    Memory: the psi block, which its sieve fills in place (4 bytes per n
    up to 2**31 // 5, 8 above; 4 or 8 MiB for a whole block), the wheel
    period of _psi_block (two int32 arrays of 120120, 0.96 MB, kept for
    the process), the closing step's 2**16-value temporaries (about
    0.6 MiB), and the sieve's step arrays and gathered hits, which grow
    with sqrt(hi).  One whole block peaks at 5.0 MiB (tracemalloc, the
    wheel already built) at 1e7, 9.8 MiB just past 2**31 // 5, 11.3 MiB
    past 2**31 and 20.6 MiB at 2**40; all but the psi block and the
    wheel are freed before the block is yielded.
    """
    for first, last, primes in _blocks(lo, hi):
        psi = np.empty(last - first, dtype=_psi_dtype(last))
        _psi_block(first, last, primes, psi)
        if first == 0:
            psi[0] = 0
        yield first, psi
        # unless the consumer keeps it, freed before the next block is
        # allocated, so that the next block can reuse its memory
        del psi


def prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes of the half-open range [lo, hi), ascending, as
    int64 arrays: one per _blocks block.

    The primes up to sqrt(hi - 1) come from _blocks' plain sieve, and
    those above it are the n there that _unmarked finds no sieving prime
    divides.  No tables are needed and only one block is held at a time:
    no name here outlives the yield, so unless the consumer keeps the
    block, it is freed before the next one is sieved.  A block may hold
    no primes.  Raises ValueError, when first advanced, unless
    0 <= lo <= hi and hi - 1 <= 2**40.
    """
    root = isqrt(max(int(hi) - 1, 0))
    for first, last, base in _blocks(lo, hi):
        start = min(max(first, root + 1, 2), last)
        yield np.concatenate((
            base[(base >= first) & (base < last)],
            _unmarked(start, last, base[base <= isqrt(last - 1)],
                      np.empty(last - start, dtype=bool))))


def prime_chunks(x: int | None = None,
                 count: int | None = None) -> Iterator[np.ndarray]:
    """The primes <= x, or the first count >= 1 primes, ascending, in
    int64 chunks of at most 2**12 of prime_blocks'; the count form
    streams up to p_n < n (log n + log log n) for n >= 6 (Rosser, 1941)
    with margin (100 covers p_5).  Raises ValueError past 2**40 (x when
    first advanced, count when called).

    Each chunk is a copy, not a view of its block, so a consumer that
    holds its last chunk while it asks for the next (a for loop or a
    generator expression does) keeps 32 KiB, not a block, and each block
    is freed before the next one is sieved.
    """
    if count is not None:
        log_c = log(count + 1)
        x = max(100, int(count * (log_c + log(log_c) + 1)))
        if x > MAX_LIMIT:
            raise ValueError(f"{count} primes need a limit of {x}, but the "
                             f"limit must be in [2, 2**40]")
    chunks = _copied_chunks(prime_blocks(2, int(x) + 1))
    return chunks if count is None else _first(chunks, count)


def _copied_chunks(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Copies of each block's _PRIME_CHUNK-value slices; a block is
    dropped before the next one is asked for."""
    for block in blocks:
        yield from (c.copy() for c in chunked(block, _PRIME_CHUNK))
        del block


def _first(chunks: Iterator[np.ndarray], count: int) -> Iterator[np.ndarray]:
    """The chunks cut after their first count values."""
    for c in chunks:
        yield c[:count]
        count -= len(c)
        if count <= 0:
            return


def grid_rows(xs: Iterable[int], least: int,
              blocks: Callable[[int], Iterable[tuple[np.ndarray, ...]]],
              add: Callable[..., None],
              row: Callable[[int], tuple]) -> list:
    """One row per x in xs, in input order, from one pass over ascending
    values.

    The x are integers in [least, 2**40].  blocks(top), for top the
    largest x, yields tuples of equal-length arrays whose first holds
    ascending values n, every n <= top that counts among them.  Each
    block is cut after its last n <= x at every x, and its nonempty parts
    are handed to add(*arrays) in order of n; once every n <= x has been
    added, row(x) returns the row for x from the state that add carries.
    No block is held past its turn, so a stream that frees each block
    before it makes the next holds one at a time.
    """
    xs = _grid_xs(xs, least)
    ends = sorted(set(xs), reverse=True)  # the next x to reach is last
    rows = {}
    for arrays in blocks(ends[0]):
        # an n above x in this block: every n <= x has been seen
        while ends and len(arrays[0]) and ends[-1] < arrays[0][-1]:
            x = ends.pop()
            cut = int(np.searchsorted(arrays[0], x, side="right"))
            if cut:
                add(*(a[:cut] for a in arrays))
                arrays = tuple(a[cut:] for a in arrays)
            rows[x] = row(x)
        if len(arrays[0]):
            add(*arrays)
        # a view of the stream's block: dropped so that the block is
        # freed before the next one is made
        del arrays
    while ends:  # every n came at or below these x
        x = ends.pop()
        rows[x] = row(x)
    return [rows[x] for x in xs]


def _grid_xs(xs: Iterable[int], least: int) -> list[int]:
    """xs as a list of ints; a ValueError unless it is nonempty and each
    x is in [least, 2**40]."""
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("xs must be nonempty")
    for x in xs:
        if not least <= x <= MAX_LIMIT:
            raise ValueError(f"x must be in [{least}, 2**40], got {x}")
    return xs
