"""Squarefree counting, harmonic sums, and the primorial divisor tail.

Q(x), the count of squarefree n <= x, and S(x), the sum of their 1/n,
each have one route in the library, an exact sum over the d <= sqrt(x)
that needs mu only up to sqrt(x): Q(x) = sum mu(d) floor(x / d^2) and
S(x) = sum mu(d) H(floor(x / d^2)) / d^2, H(m) the harmonic numbers.
The tests' independent oracles count and sum the squarefree n of a
plain sieve.  The harmonic-sum identity

    sum_{n <= x, n squarefree} 1/n
        = prod_{p <= x}(1 + 1/p) - sum_{d | P(x), d > x} 1/d

(P(x) = product of primes <= x) has its left side here in floats and
its divisor tail in exact rationals.

squarefree_residual_grid and squarefree_harmonic_grid compare Q(x) with
(6/pi^2) x and S(x) with (6/pi^2) log x at every x of a grid, from one
Mobius table up to sqrt of the largest x (sieve._mobius_table): x = 2**40
reads mu to 2**20, one block; a single x is the grid [x].  Both return,
for each x, the row their subcommand writes, x first.

count_squarefree_formula splits the sum at c = x^(1/3), the simple end
of J. Pawlewicz, "Counting square-free numbers" (arXiv:1107.4890): the
d <= c directly, and the d in (c, sqrt(x)] grouped by v = floor(x / d^2)
through the Mertens function M, the prefix sum of mu, as
sum_{v <= V} M(isqrt(x // v)) - V M(c) with V = x // (c+1)^2.  Both
parts take about x^(1/3) terms.  The isqrt of a whole array is a float64
sqrt with one -1 integer fix-up, exact for x <= 2**62: the float root
is never below the true one's floor and less than 2**-20 above it, and
its square fits int64.  Above 2**62 every term is a Python integer.
"""
from __future__ import annotations

from itertools import accumulate
from math import isqrt, log
from numbers import Rational  # what a Fraction is, without loading fractions
from typing import Iterable

import numpy as np

from .constants import get_constant
from .sieve import (SieveTables, _grid_xs, _index_dtype, _mobius_table,
                    prime_chunks)
from .summation import CompensatedSum, Sample, chunked

__all__ = [
    "count_squarefree_formula",
    "count_squarefree_formula_range",
    "squarefree_residual_grid",
    "squarefree_harmonic_grid",
    "primorial_divisor_tail",
    "TAIL_PRIME_BOUND",
]

_SIX_OVER_PI_SQ = get_constant("six_over_pi_sq").value
_HEAD = 64  # the harmonic sum's d <= _HEAD are summed in decimal

# largest cutoff for the exact divisor tail: P(x) and the numerator
# sums stay inside 128 bits through x = 52
TAIL_PRIME_BOUND = 52


def count_squarefree_formula(x: int, tables: SieveTables) -> int:
    """Q(x) as the exact integer sum over square divisors.

    Only needs Mobius values up to sqrt(x), so x may exceed the table
    limit (up to limit^2).  For x <= 2**62 the sum is split at
    c = x^(1/3): the d <= c are summed directly, and the d in (c, r],
    r = isqrt(x), by the values v = floor(x / d^2) they share,

        sum_{c < d <= r} mu(d) floor(x / d^2)
            = sum_{v=1}^{V} M(isqrt(x // v)) - V M(c),  V = x // (c+1)^2,

    with M the prefix sum of mu over [0, r], held in the int32 of
    sieve._index_dtype below 2**31: d counts once for each
    v <= floor(x / d^2), that is for each v with d <= isqrt(x // v).
    Both parts take about x^(1/3) terms, and M one pass over r values.
    The isqrt of all V values x // v at once is _isqrt: a float64 sqrt
    with one -1 integer fix-up, exact for x <= 2**62.
    Beyond 2**62 each term is a Python integer.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    root = tables.check(isqrt(x), "sqrt(x)")
    return _count_squarefree(x, tables.mobius[:root + 1])


def _count_squarefree(x: int, mob: np.ndarray) -> int:
    """The sum of count_squarefree_formula, x >= 1, over the d that mob
    covers: mob holds mu over [0, isqrt(x)], or over a shorter range
    where a hand-built table ends first."""
    if x > 2 ** 62:  # keep the floor divisions exact beyond int64
        d = np.nonzero(mob)[0][1:]  # squarefree d in [2, sqrt(x)]
        return x + sum(int(mob[dd]) * (x // (int(dd) * int(dd)))
                       for dd in d.tolist())
    top = len(mob) - 1  # r, unless a hand-built table ends first
    c = min(int(x ** (1 / 3)), top)
    d = np.arange(1, c + 1, dtype=np.int64)
    total = int(np.dot(mob[1:c + 1], x // (d * d)))
    if c == top:
        return total
    prefix = mob.astype(_index_dtype(top + 1))
    np.cumsum(prefix, out=prefix)  # in place: no second r-sized array
    v = x // (c + 1) ** 2
    m = np.arange(1, v + 1, dtype=np.int64)
    np.floor_divide(x, m, out=m)
    r = np.minimum(_isqrt(m), top)
    return (total + int(prefix[r].sum(dtype=np.int64))
            - v * int(prefix[c]))


def _isqrt(m: np.ndarray) -> np.ndarray:
    """isqrt of every int64 m in [0, 2**62], exactly.

    The floor of the float64 sqrt, lowered by one where its square
    exceeds m.  It is never too low: for k = isqrt(m), float64(m) is at
    least float64(k^2) = k^2 (1 + e) with |e| <= 2**-53, whose sqrt lies
    within k * 2**-54 of k or above it, less than half the float spacing
    below k, so it rounds to k or more.  It is at most one too high: the
    float root is off by less than 2**-20, as m <= 2**62 and the root is
    at most 2**31, so its square fits int64 too.
    """
    r = np.sqrt(m).astype(np.int64)
    r -= r * r > m
    return r


def count_squarefree_formula_range(xmax: int, tables: SieveTables) -> np.ndarray:
    """The square-divisor sum evaluated for every x in [1, xmax] at once.

    Returns an array F with F[x] = sum_{d <= sqrt(x)} mu(d) *
    floor(x / d^2) (index 0 unused), in sieve._index_dtype(xmax + 1):
    int32 up to xmax = 2**31 - 1, since 0 <= F[x] <= x, and int64 above.
    F(x) - F(x - 1) is the sum of mu(d) over the d with d^2 | x, so
    mu(d) is added at every multiple of d^2 for each squarefree
    d <= sqrt(xmax) and one cumulative sum, in place, yields all values,
    in O(xmax) work; the result for each x is identical to
    count_squarefree_formula(x).
    """
    xmax = int(xmax)
    if xmax < 1:
        raise ValueError(f"xmax must be >= 1, got {xmax}")
    root = tables.check(isqrt(xmax), "sqrt(xmax)")
    out = np.zeros(xmax + 1, dtype=_index_dtype(xmax + 1))
    mob = tables.mobius[:root + 1]
    for d in np.nonzero(mob)[0].tolist():
        dd = d * d
        out[dd::dd] += int(mob[d])
    return np.cumsum(out, out=out)


def squarefree_residual_grid(
        xs: Iterable[int]
) -> list[tuple[int, int, float, float, float, float]]:
    """(x, Q, main, residual, residual / x**0.5, residual / x**0.25):
    Q(x) against its main term (6/pi^2) x, for every x in xs
    (1 <= x <= 2**40, checked as sieve.grid_rows checks its x).

    Each Q(x) is the square-divisor sum of count_squarefree_formula, an
    int, read from one Mobius table up to isqrt(max(xs)): 2**20 + 1
    bytes at most, with no sieve tables and no pass over the squarefree
    n.  residual is float(Q) - main.
    """
    xs = _grid_xs(xs, 1)
    mobius = _mobius_table(isqrt(max(xs)))
    rows = []
    for x in xs:
        q = _count_squarefree(x, mobius[:isqrt(x) + 1])
        main = _SIX_OVER_PI_SQ * x
        residual = float(q) - main
        rows.append((x, q, main, residual, residual / float(x) ** 0.5,
                     residual / float(x) ** 0.25))
    return rows


def squarefree_harmonic_grid(xs: Iterable[int]) -> list[Sample]:
    """S(x), the sum of 1/n over the squarefree n <= x, against
    (6/pi^2) log x, for every x in xs (1 <= x <= 2**40), from one Mobius
    table up to isqrt(max(xs)), as squarefree_residual_grid reads it.

    The squarefree d <= 64 of the square-divisor sum are summed in
    decimal at 34 digits: H(m) a decimal sum below 256, and _harmonic to
    1/(132 m^10) above (remainder below 3e-31), with the registry's 35
    digits of gamma.  The d > 64 go to one CompensatedSum in float64, a
    chunked slice of the table at a time: H(m) is _harmonic to
    1/(252 m^6) for m >= 64 (remainder below 2e-17), and the float of
    the decimal H(m) below.  Each tail term is below (log x + 1) / d^2
    and sum_{d > 64} 1/d^2 < 1/64, so the float tail adds a few
    u (log x + 1) / 64, u = 2**-53: far below half an ulp of
    S(x) ~ 0.61 log x.  The value is the float of head + tail.
    """
    from decimal import Context, Decimal, localcontext  # only this needs it

    xs = _grid_xs(xs, 1)
    mobius = _mobius_table(isqrt(max(xs)))
    gamma = get_constant("gamma")
    rows = []
    with localcontext(Context(prec=34)):  # Python 3.10 has no prec=
        exact = [Decimal(0), *accumulate(  # H(m) for m < 256
            Decimal(1) / k for k in range(1, 256))]
        small = np.array([float(h) for h in exact[:_HEAD]])

        def harmonic(m: int) -> Decimal:
            return exact[m] if m < len(exact) else _harmonic(
                Decimal(m), Decimal(m).ln(), Decimal(gamma.decimal), 5)

        for x in xs:
            r = isqrt(x)
            head = sum((mu * harmonic(x // (d * d)) / (d * d) for d, mu in
                        enumerate(mobius[:min(r, _HEAD) + 1].tolist()) if mu),
                       Decimal(0))
            tail, start = CompensatedSum(), _HEAD + 1
            for mu in chunked(mobius[start:r + 1]):
                d = np.flatnonzero(mu)
                sign, d, start = mu[d], (d + start) ** 2, start + len(mu)
                m = x // d
                h = _harmonic(m, np.log(m), gamma.value, 3)
                h = np.where(m < _HEAD, small[np.minimum(m, _HEAD - 1)], h)
                tail.add(sign * h / d)
            value = float(head + Decimal(tail.value))
            main = _SIX_OVER_PI_SQ * log(x)
            rows.append(Sample(x, value, main, value - main))
    return rows


def _harmonic(m, log_m, gamma, terms: int):
    """H(m) = log m + gamma + 1/(2m) - 1/(12 m^2) + 1/(120 m^4) - ...
    (Euler-Maclaurin) to 1/m^(2 terms), terms <= 5, for m a Decimal or
    an int64 array with m^2 < 2**63."""
    s, c = 1 / (m * m), (12, -120, 252, -240, 132)
    return log_m + gamma + 1 / (2 * m) - sum(
        s ** (k + 1) / c[k] for k in range(terms))


def primorial_divisor_tail(x: int) -> Rational:
    """sum of 1/d over divisors d > x of P(x) = prod of primes <= x.

    All 2^r divisors of the squarefree P(x) are visited by Gray-code
    order, one multiply or divide per step, accumulating P(x)/d
    numerators over the common denominator P(x); the fraction reduces
    once at the end.

    Args:
        x: cutoff with 2 <= x <= 52 (beyond 52 the exact integers
            outgrow 128 bits).

    Returns:
        The tail as an exact reduced Fraction.
    """
    from fractions import Fraction  # imports decimal; only this needs it

    x = int(x)
    if x > TAIL_PRIME_BOUND:
        raise ValueError(
            f"exact tail limited to x <= {TAIL_PRIME_BOUND}, got {x}")
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    primes = [p for c in prime_chunks(x) for p in c.tolist()]
    big_p = 1
    for p in primes:
        big_p *= p
    r = len(primes)
    divisor = 1
    in_set = [False] * r
    numerator = 0  # d = 1 is never > x for x >= 2
    for step in range(1, 1 << r):
        bit = (step & -step).bit_length() - 1  # Gray code: flip lowest bit of step
        if in_set[bit]:
            divisor //= primes[bit]
        else:
            divisor *= primes[bit]
        in_set[bit] = not in_set[bit]
        if divisor > x:
            numerator += big_p // divisor
    return Fraction(numerator, big_p)
