"""Prime harmonic sums, Mertens products, B1, and the error-bound checks.

All finite prime products are evaluated as exp of a compensated sum of
log terms; a naive running float product over ~10^6 factors would
accumulate visible rounding drift, the log path keeps relative error at
a few ulp.  Every prime sum reads the prime list 2**16 primes at a
time, so its temporaries stay that size whatever x is.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import fsum, log, pi, sqrt

import numpy as np

from .constants import get_constant
from .residual import ResidualSample, make_sample
from .sieve import InsufficientSieveError, SieveTables
from .summation import chunked, compensated_sum

__all__ = [
    "ProgressionSum",
    "DusartResult",
    "DUSART_VALIDITY_THRESHOLD",
    "prime_harmonic",
    "prime_harmonic_progression",
    "euler_product_inv",
    "psi_product",
    "oscillation_g",
    "compute_B1",
    "dusart_bound_check",
]

_GAMMA = get_constant("gamma").value
_B1 = get_constant("B1").value
_E_GAMMA = get_constant("e_gamma").value
_THRESHOLD = get_constant("threshold").value

# smallest x for which the explicit |R(x)| bound below is known to be
# proven; smaller x get a below-validity flag instead of pass/fail
DUSART_VALIDITY_THRESHOLD = 2_278_383


@dataclass(frozen=True)
class ProgressionSum:
    """Reciprocal prime sum restricted to p = a (mod q)."""

    q: int
    a: int
    x: float
    sum: float
    b_estimate: float  # sum - log log x / phi(q)


@dataclass(frozen=True)
class DusartResult:
    """Outcome of the explicit error-bound check at one x."""

    x: float
    holds: bool
    slack: float          # bound - |R(x)|
    deviation: float      # R(x) = sum 1/p - log log x - B1
    bound: float          # 1/(10 log^2 x) + 4/(15 log^3 x)
    rh_bound: float       # (3 log x + 4)/(8 pi sqrt(x)); reported only
    below_validity: bool


def _primes_upto(x: float, tables: SieveTables) -> np.ndarray:
    return tables.primes[:tables.prime_count(tables.check(x, 2))]


def prime_harmonic(x: float, tables: SieveTables) -> ResidualSample:
    """sum_{p <= x} 1/p against its main term log log x + B1."""
    value = compensated_sum(1.0 / c for c in chunked(_primes_upto(x, tables)))
    return make_sample(x, value, log(log(x)) + _B1)


def prime_harmonic_progression(x: float, q: int, a: int,
                               tables: SieveTables) -> ProgressionSum:
    """Reciprocal sum over primes p <= x with p = a (mod q).

    b_estimate subtracts the progression's share log log x / phi(q) of
    the main term, leaving the analogue of B1 for the class (a, q).
    """
    from .arith import profile

    q, a = int(q), int(a)
    if not 1 <= a < q:
        raise ValueError(f"need 1 <= a < q, got a={a}, q={q}")
    if np.gcd(a, q) != 1:
        raise ValueError(f"residue {a} not coprime to modulus {q}")
    ps = _primes_upto(x, tables)
    total = compensated_sum(1.0 / c[c % q == a] for c in chunked(ps))
    phi_q = profile(q, tables).phi
    return ProgressionSum(q=q, a=a, x=float(x), sum=total,
                          b_estimate=total - log(log(x)) / phi_q)


def euler_product_inv(x: float, tables: SieveTables) -> ResidualSample:
    """prod_{p <= x} (1 - 1/p)^(-1) against e^gamma log x."""
    ps = _primes_upto(x, tables)
    value = np.exp(compensated_sum(-np.log1p(-1.0 / c) for c in chunked(ps)))
    return make_sample(x, float(value), _E_GAMMA * log(x))


def psi_product(x: float, tables: SieveTables) -> ResidualSample:
    """prod_{p <= x} (1 + 1/p) against (6 e^gamma / pi^2) log x."""
    ps = _primes_upto(x, tables)
    value = np.exp(compensated_sum(np.log1p(1.0 / c) for c in chunked(ps)))
    return make_sample(x, float(value), _THRESHOLD * log(x))


def oscillation_g(x: float, tables: SieveTables) -> float:
    """sqrt(x) * (prod_{p <= x}(1 - 1/p)^(-1) - e^gamma log x).

    The scaled deviation of the inverse Euler product from its limit
    law; its sign and size over an x grid trace the product's slow
    oscillation around e^gamma log x.
    """
    return sqrt(x) * euler_product_inv(x, tables).residual


def compute_B1(prime_limit: int, tables: SieveTables) -> tuple[float, float]:
    """B1 from gamma minus the prime series, with a rigorous tail bound.

    B1 = gamma - sum_p (-log(1 - 1/p) - 1/p); each term is the closed
    form of sum_{n>=2} 1/(n p^n), so the only truncation is the primes
    above prime_limit.  That tail is below sum_{p > L} 1/(p(p-1)),
    itself below 1/(L - 1).  math.fsum takes the terms 2**16 primes at
    a time and is exact, so the chunking cannot change the result.

    Returns:
        (value, tail_bound).
    """
    prime_limit = int(prime_limit)
    if prime_limit > tables.limit:
        raise InsufficientSieveError(
            f"prime_limit {prime_limit} beyond table limit {tables.limit}")
    if prime_limit < 2:
        return _GAMMA, 1.0
    invs = (1.0 / c for c in chunked(_primes_upto(prime_limit, tables)))
    correction = fsum(chain.from_iterable(
        (-np.log1p(-inv) - inv).tolist() for inv in invs))
    return _GAMMA - correction, 1.0 / (prime_limit - 1)


def dusart_bound_check(x: float, tables: SieveTables) -> DusartResult:
    """Check |sum_{p<=x} 1/p - log log x - B1| against the explicit bound.

    The unconditional bound 1/(10 log^2 x) + 4/(15 log^3 x) is asserted
    only at x >= DUSART_VALIDITY_THRESHOLD; smaller x are evaluated but
    flagged below_validity.  The stronger square-root form is reported
    alongside as an observation, never asserted (it assumes the zeta
    zeros lie on the critical line).
    """
    deviation = prime_harmonic(x, tables).residual
    lx = log(x)
    bound = 1.0 / (10 * lx ** 2) + 4.0 / (15 * lx ** 3)
    rh_bound = (3 * lx + 4) / (8 * pi * sqrt(x))
    return DusartResult(
        x=float(x),
        holds=abs(deviation) <= bound,
        slack=bound - abs(deviation),
        deviation=deviation,
        bound=bound,
        rh_bound=rh_bound,
        below_validity=x < DUSART_VALIDITY_THRESHOLD,
    )
