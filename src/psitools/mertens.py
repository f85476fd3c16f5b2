"""Prime harmonic sums, Mertens products, B1, and the error-bound checks.

All finite prime products are evaluated as exp of a compensated sum of
log terms; a naive running float product over ~10^6 factors would
accumulate visible rounding drift, the log path keeps relative error at
a few ulp.

Each prime sum but compute_B1 is a grid form: one pass over ascending
primes (sieve.grid_rows) answers every x of a grid, carrying one
CompensatedSum over sieve.prime_chunks, in block-sized memory, and
reading it at each x.  A single x is the grid [x], so the sum and
everything after it exist once.  Each grid returns, for each x, the row
its subcommand writes: a summation.Sample, a ProgressionSum, a
DusartResult or (x, g).  The product of (1 + 1/p) over the primes
p <= x is the psi_ratio column of extrema.primorial_stream.
"""
from __future__ import annotations

from itertools import chain
from math import fsum, gcd, log, pi, sqrt
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .constants import get_constant
from .sieve import MAX_LIMIT, _grid_xs, grid_rows, prime_chunks
from .summation import CompensatedSum, Sample

__all__ = [
    "ProgressionSum",
    "DusartResult",
    "DUSART_VALIDITY_THRESHOLD",
    "prime_harmonic_grid",
    "prime_harmonic_progression_grid",
    "euler_product_inv_grid",
    "oscillation_grid",
    "compute_B1",
    "dusart_bound_grid",
]

_GAMMA = get_constant("gamma").value
_B1 = get_constant("B1").value
_E_GAMMA = get_constant("e_gamma").value

# smallest x for which the explicit |R(x)| bound below is known to be
# proven; smaller x get a below-validity flag instead of pass/fail
DUSART_VALIDITY_THRESHOLD = 2_278_383


class ProgressionSum(NamedTuple):
    """Reciprocal prime sum restricted to p = a (mod q)."""

    q: int
    a: int
    x: int
    sum: float
    b_estimate: float  # sum - log log x / phi(q)


class DusartResult(NamedTuple):
    """Outcome of the explicit error-bound check at one x."""

    x: int
    holds: bool
    slack: float          # bound - |R(x)|
    deviation: float      # R(x) = sum 1/p - log log x - B1
    bound: float          # 1/(10 log^2 x) + 4/(15 log^3 x)
    rh_bound: float       # (3 log x + 4)/(8 pi sqrt(x)); reported only
    below_validity: bool


def _prime_sums(xs: Iterable[int],
                terms: Callable[[np.ndarray], np.ndarray]) -> list[float]:
    """For each x in xs, the compensated sum of terms(p) over the primes
    p <= x, in ascending p: one sieve.grid_rows pass over
    sieve.prime_chunks.

    terms maps an int64 chunk of primes to float64 terms, elementwise or
    by a mask; every split of the primes gives the same bits.
    """
    total = CompensatedSum()

    return grid_rows(xs, 2, lambda top: ((p,) for p in prime_chunks(top)),
                     lambda p: total.add(terms(p)), lambda x: total.value)


def prime_harmonic_grid(xs: Iterable[int]) -> list[Sample]:
    """sum_{p <= x} 1/p against its main term log log x + B1, for every
    x in xs (2 <= x <= 2**40), from one pass over the primes up to
    max(xs)."""
    xs = _grid_xs(xs, 2)
    return [Sample(x, value, main, value - main) for x, value, main in
            zip(xs, _prime_sums(xs, lambda p: 1.0 / p),
                [log(log(x)) + _B1 for x in xs])]


def prime_harmonic_progression_grid(xs: Iterable[int], q: int,
                                    a: int) -> list[ProgressionSum]:
    """The reciprocal sum over the primes p <= x with p = a (mod q), for
    every x in xs, from one pass over the primes up to max(xs).

    b_estimate subtracts the progression's share log log x / phi(q) of
    the main term, leaving the analogue of B1 for the class (a, q).
    phi(q) comes from trial division by the primes up to sqrt(q) alone,
    for q <= 2**40.
    """
    from .arith import profile

    q, a = int(q), int(a)
    if not 1 <= a < q:
        raise ValueError(f"need 1 <= a < q, got a={a}, q={q}")
    if gcd(a, q) != 1:
        raise ValueError(f"residue {a} not coprime to modulus {q}")
    if q > MAX_LIMIT:
        raise ValueError(f"q must be <= 2**40, got {q}")
    phi_q = profile(q).phi
    xs = _grid_xs(xs, 2)
    sums = _prime_sums(xs, lambda p: 1.0 / p[p % q == a])
    return [ProgressionSum(q, a, x, total, total - log(log(x)) / phi_q)
            for x, total in zip(xs, sums)]


def euler_product_inv_grid(xs: Iterable[int]) -> list[Sample]:
    """prod_{p <= x} (1 - 1/p)^(-1) against e^gamma log x, for every x
    in xs, from one pass over the primes up to max(xs)."""
    xs = _grid_xs(xs, 2)
    sums = _prime_sums(xs, lambda p: -np.log1p(-1.0 / p))
    return [Sample(x, value, main, value - main) for x, value, main in
            zip(xs, [float(np.exp(total)) for total in sums],
                [_E_GAMMA * log(x) for x in xs])]


def oscillation_grid(xs: Iterable[int]) -> list[tuple[int, float]]:
    """(x, g) with g = sqrt(x) * (prod_{p <= x}(1 - 1/p)^(-1) - e^gamma
    log x) for every x in xs, from one pass over the primes up to
    max(xs).

    The scaled deviation of the inverse Euler product from its limit
    law; its sign and size over an x grid trace the product's slow
    oscillation around e^gamma log x.
    """
    return [(s.x, sqrt(s.x) * s.residual) for s in euler_product_inv_grid(xs)]


def compute_B1(prime_limit: int) -> tuple[float, float]:
    """B1 from gamma minus the prime series, with a rigorous tail bound.

    B1 = gamma - sum_p (-log(1 - 1/p) - 1/p); each term is the closed
    form of sum_{n>=2} 1/(n p^n), so the only truncation is the primes
    above prime_limit.  That tail is below sum_{p > L} 1/(p(p-1)),
    itself below 1/(L - 1).  math.fsum takes the terms of
    sieve.prime_chunks and is exact, so the chunking cannot change the
    result.

    Returns:
        (value, tail_bound).
    """
    prime_limit = int(prime_limit)
    if prime_limit < 2:
        return _GAMMA, 1.0
    invs = (1.0 / c for c in prime_chunks(prime_limit))
    correction = fsum(chain.from_iterable(
        (-np.log1p(-inv) - inv).tolist() for inv in invs))
    return _GAMMA - correction, 1.0 / (prime_limit - 1)


def dusart_bound_grid(xs: Iterable[int]) -> list[DusartResult]:
    """Check |sum_{p<=x} 1/p - log log x - B1| against the explicit bound
    for every x in xs, from one pass over the primes up to max(xs).

    The unconditional bound 1/(10 log^2 x) + 4/(15 log^3 x) is asserted
    only at x >= DUSART_VALIDITY_THRESHOLD; smaller x are evaluated but
    flagged below_validity.  The stronger square-root form is reported
    alongside as an observation, never asserted (it assumes the zeta
    zeros lie on the critical line).
    """
    results = []
    for x, _, _, deviation in prime_harmonic_grid(xs):
        lx = log(x)
        bound = 1.0 / (10 * lx ** 2) + 4.0 / (15 * lx ** 3)
        results.append(DusartResult(
            x=x,
            holds=abs(deviation) <= bound,
            slack=bound - abs(deviation),
            deviation=deviation,
            bound=bound,
            rh_bound=(3 * lx + 4) / (8 * pi * sqrt(x)),
            below_validity=x < DUSART_VALIDITY_THRESHOLD,
        ))
    return results

