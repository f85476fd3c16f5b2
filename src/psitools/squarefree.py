"""Squarefree counting, harmonic sums, and the primorial divisor tail.

Two independent routes to Q(x), the count of squarefree n <= x, are
kept deliberately separate: a direct tally of nonzero Mobius values,
and the inclusion-exclusion sum over square divisors
sum_{d <= sqrt(x)} mu(d) * floor(x / d^2), which is an exact identity
rather than an approximation.  The harmonic-sum identity

    sum_{n <= x, n squarefree} 1/n
        = prod_{p <= x}(1 + 1/p) - sum_{d | P(x), d > x} 1/d

(P(x) = product of primes <= x) is evaluated both in floats and in
exact rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, log

import numpy as np

from .constants import get_constant
from .residual import ResidualSample, make_sample
from .sieve import InsufficientSieveError, SieveTables
from .summation import _CHUNK, compensated_sum

__all__ = [
    "count_squarefree_exact",
    "count_squarefree_formula",
    "count_squarefree_formula_range",
    "squarefree_residual",
    "squarefree_harmonic",
    "squarefree_harmonic_exact",
    "psi_product_exact",
    "primorial_divisor_tail",
    "TAIL_PRIME_BOUND",
]

_SIX_OVER_PI_SQ = get_constant("six_over_pi_sq").value

# largest cutoff for the exact divisor tail: P(x) and the numerator
# sums stay inside 128 bits through x = 52
TAIL_PRIME_BOUND = 52


def count_squarefree_exact(x: int, tables: SieveTables) -> int:
    """Q(x) by direct tally of n <= x with mu(n) != 0."""
    tables.check(x, 1)
    return int(np.count_nonzero(tables.mobius[1:int(x) + 1]))


def count_squarefree_formula(x: int, tables: SieveTables) -> int:
    """Q(x) as the exact integer sum over square divisors.

    Only needs Mobius values up to sqrt(x), so x may exceed the table
    limit (up to limit^2).
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    root = isqrt(x)
    if root > tables.limit:
        raise InsufficientSieveError(
            f"formula at x={x} needs Mobius to {root}, "
            f"tables stop at {tables.limit}")
    mob = tables.mobius[:root + 1]
    d = np.nonzero(mob)[0][1:]  # squarefree d in [2, sqrt(x)]
    if d.size == 0:
        return x
    if x > 2 ** 62:  # keep the floor divisions exact beyond int64
        return x + sum(int(mob[dd]) * (x // (int(dd) * int(dd)))
                       for dd in d.tolist())
    sq = d * d
    np.floor_divide(x, sq, out=sq)
    return x + int(np.dot(mob[d], sq))


def count_squarefree_formula_range(xmax: int, tables: SieveTables) -> np.ndarray:
    """The square-divisor sum evaluated for every x in [1, xmax] at once.

    Returns an int64 array F with F[x] = sum_{d <= sqrt(x)} mu(d) *
    floor(x / d^2) (index 0 unused).  F(x) - F(x - 1) is the sum of
    mu(d) over the d with d^2 | x, so mu(d) is added at every multiple
    of d^2 for each squarefree d <= sqrt(xmax) and one cumulative sum
    yields all values, in O(xmax) work; the result for each x is
    identical to count_squarefree_formula(x).
    """
    xmax = int(xmax)
    if xmax < 1:
        raise ValueError(f"xmax must be >= 1, got {xmax}")
    root = isqrt(xmax)
    if root > tables.limit:
        raise InsufficientSieveError(
            f"range formula to {xmax} needs Mobius to {root}, "
            f"tables stop at {tables.limit}")
    out = np.zeros(xmax + 1, dtype=np.int64)
    mob = tables.mobius[:root + 1]
    for d in np.nonzero(mob)[0].tolist():
        dd = d * d
        out[dd::dd] += int(mob[d])
    return np.cumsum(out, out=out)


def squarefree_residual(
        x: int, tables: SieveTables) -> tuple[ResidualSample, ResidualSample]:
    """Q(x) against its main term (6/pi^2) x, scaled two ways.

    Returns samples at scale exponents 0.5 and 0.25; they share x,
    value, main term, and raw residual.
    """
    q = count_squarefree_exact(x, tables)
    main = _SIX_OVER_PI_SQ * x
    return (make_sample(x, q, main, scale_exponent=0.5),
            make_sample(x, q, main, scale_exponent=0.25))


def squarefree_harmonic(x: int, tables: SieveTables) -> ResidualSample:
    """sum of 1/n over squarefree n <= x, against (6/pi^2) log x.

    Terms are summed in ascending n, one chunk of the Mobius table at a
    time, with compensated prefix summation: within a few ulp of exact.
    """
    tables.check(x, 1)
    mobius = tables.mobius[:int(x) + 1]
    reciprocals = (1.0 / (np.flatnonzero(mobius[lo:lo + _CHUNK]) + lo)
                   for lo in range(1, mobius.size, _CHUNK))
    value = compensated_sum(reciprocals)
    return make_sample(x, value, _SIX_OVER_PI_SQ * log(x))


def squarefree_harmonic_exact(x: int, tables: SieveTables) -> Fraction:
    """The same squarefree harmonic sum as an exact rational."""
    tables.check(x, 1)
    ns = (np.nonzero(tables.mobius[1:int(x) + 1])[0] + 1).tolist()
    total = Fraction(0)
    for n in ns:
        total += Fraction(1, int(n))
    return total


def psi_product_exact(x: int, tables: SieveTables) -> Fraction:
    """prod_{p <= x} (1 + 1/p) as an exact rational."""
    tables.check(x, 0)
    total = Fraction(1)
    for p in tables.primes[tables.primes <= x].tolist():
        total *= Fraction(p + 1, p)
    return total


def primorial_divisor_tail(x: int, tables: SieveTables) -> Fraction:
    """sum of 1/d over divisors d > x of P(x) = prod of primes <= x.

    All 2^r divisors of the squarefree P(x) are visited by Gray-code
    order, one multiply or divide per step, accumulating P(x)/d
    numerators over the common denominator P(x); the fraction reduces
    once at the end.

    Args:
        x: cutoff with 2 <= x <= 52 (beyond 52 the exact integers
            outgrow 128 bits).
        tables: sieve tables covering x.

    Returns:
        The tail as an exact reduced Fraction.
    """
    x = int(x)
    if x > TAIL_PRIME_BOUND:
        raise ValueError(
            f"exact tail limited to x <= {TAIL_PRIME_BOUND}, got {x}")
    tables.check(x, 2)
    primes = [int(p) for p in tables.primes[tables.primes <= x]]
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
