"""Multiplicative arithmetic functions of one n by trial division.

phi, sigma, psi are computed in exact integer arithmetic from a
factorization by trial division over a plain sieve's primes up to
sqrt(n); ratios like psi(n)/n only become floats at the caller's
boundary.
"""
from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .sieve import MAX_LIMIT, _small_primes

__all__ = [
    "Factorization",
    "ArithProfile",
    "factor",
    "profile",
]


class Factorization(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


class ArithProfile(NamedTuple):
    n: int
    mu: int
    omega: int       # distinct prime factors
    big_omega: int   # prime factors with multiplicity
    phi: int
    sigma: int
    psi: int


def factor(n: int) -> Factorization:
    """Factor n, 1 <= n <= 2**40, by trial division over the primes up
    to sqrt(n), from a plain sieve to sqrt(n) alone.

    One vectorised n % p == 0 picks out the prime divisors up to sqrt(n);
    a cofactor above 1 after they are divided out is the one prime
    factor above sqrt(n).
    """
    n = int(n)
    if not 1 <= n <= MAX_LIMIT:
        raise ValueError(f"n must be in [1, 2**40], got {n}")
    small = _small_primes(isqrt(n))
    m = n
    parts: list[tuple[int, int]] = []
    for p in small[n % small == 0].tolist():
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        parts.append((p, e))
    if m > 1:
        parts.append((m, 1))
    return Factorization(n=n, factors=tuple(parts))


def profile(n: int) -> ArithProfile:
    """mu, omega, Omega, phi, sigma, psi of n, all exact; n is factored
    by factor.

    psi(n) = n * prod_{p|n}(1 + 1/p) = prod p^(e-1) * (p + 1);
    on squarefree n it coincides with sigma.
    """
    fac = factor(n)
    mu = 1
    phi = sigma = psi = 1
    big_omega = 0
    for p, e in fac.factors:
        big_omega += e
        mu = 0 if e > 1 else -mu
        pe1 = p ** (e - 1)
        phi *= pe1 * (p - 1)
        sigma *= (p ** (e + 1) - 1) // (p - 1)
        psi *= pe1 * (p + 1)
    return ArithProfile(n=fac.n, mu=mu, omega=len(fac.factors),
                        big_omega=big_omega, phi=phi, sigma=sigma, psi=psi)
