import math
import random

import numpy as np
import pytest
import sympy

from psitools.arith import (
    ArithProfile,
    factor,
    profile,
)
from psitools.sieve import MAX_LIMIT, SEGMENT_SIZE, psi_blocks

from conftest import all_primes_psi, psi_phi_identity_holds


def brute_profile(n):
    facs = {}
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            facs[d] = facs.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        facs[m] = facs.get(m, 0) + 1
    phi = sigma = psi = 1
    for p, e in facs.items():
        phi *= p ** (e - 1) * (p - 1)
        sigma *= (p ** (e + 1) - 1) // (p - 1)
        psi *= p ** (e - 1) * (p + 1)
    mu = 0 if any(e > 1 for e in facs.values()) else (-1) ** len(facs)
    return mu, len(facs), sum(facs.values()), phi, sigma, psi


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factor(97).factors == ((97, 1),)


def assert_factor_matches_sympy(n):
    assert factor(n).factors == tuple(
        sorted(sympy.factorint(n).items())), n


@pytest.mark.parametrize("fixture", ["tables_1e4", "tables_1e6"])
def test_factor_edges_against_sympy(request, fixture):
    # edges read from the tables: the largest prime, the square of the
    # last prime below sqrt(limit), and prime pairs near the limit
    tables = request.getfixturevalue(fixture)
    limit, primes = tables.limit, tables.primes
    root_prime = int(primes[tables.prime_count(math.isqrt(limit)) - 1])
    edges = [1, 2, limit, int(primes[-1]), root_prime ** 2]
    for p in (2, 3, 97, root_prime):
        # p * q with q the largest prime <= limit / p
        edges.append(p * int(primes[tables.prime_count(limit // p) - 1]))
    for n in edges:
        assert 1 <= n <= limit
        assert_factor_matches_sympy(n)


def test_factor_random_against_sympy():
    rng = random.Random(20261018)
    for n in rng.sample(range(1, 1_000_001), 2_000):
        assert_factor_matches_sympy(n)


def test_factor_domain():
    for n in (0, -1, MAX_LIMIT + 1):
        with pytest.raises(ValueError, match="2\\*\\*40"):
            factor(n)


def test_factor_without_tables_against_sympy():
    # the primes up to sqrt(n) from a plain sieve: squares of primes, a
    # prime times the largest prime below 2^40 / p, and 2^40 itself
    rng = random.Random(16)
    edges = [1, 2, 3, 4, 1_000_003 ** 2, 2 * 549_755_813_881, MAX_LIMIT,
             MAX_LIMIT - 1, 100_000_007, *rng.sample(range(1, MAX_LIMIT), 50)]
    for n in edges:
        assert_factor_matches_sympy(n)
    assert profile(100_000_007).phi == 100_000_006


def test_profile_examples():
    p10 = profile(10)
    assert p10 == ArithProfile(n=10, mu=1, omega=2, big_omega=2, phi=4, sigma=18, psi=18)
    p12 = profile(12)
    assert (p12.phi, p12.sigma, p12.psi) == (4, 28, 24)
    assert p12.mu == 0
    p1 = profile(1)
    assert (p1.mu, p1.omega, p1.big_omega, p1.phi, p1.sigma, p1.psi) == (1, 0, 0, 1, 1, 1)


def test_profile_against_trial_division():
    for n in range(1, 2_001):
        p = profile(n)
        assert (p.mu, p.omega, p.big_omega, p.phi, p.sigma, p.psi) == brute_profile(n), n


def test_sigma_equals_psi_iff_squarefree(tables_1e4):
    mu = tables_1e4.mobius
    for n in range(1, 10_001):
        p = profile(n)
        if mu[n] != 0:
            assert p.sigma == p.psi, n
        else:
            assert p.sigma != p.psi, n


def test_multiplicative_on_coprime_pairs():
    pairs = [(m, n) for m in range(2, 101) for n in range(2, 101)
             if m * n <= 10_000 and math.gcd(m, n) == 1]
    for m, n in pairs:
        pm, pn, pmn = profile(m), profile(n), profile(m * n)
        assert pmn.phi == pm.phi * pn.phi
        assert pmn.sigma == pm.sigma * pn.sigma
        assert pmn.psi == pm.psi * pn.psi


def test_psi_phi_identity():
    # psi(n)/n * phi(n)/n is prod_{p|n} (1 - 1/p^2), exactly
    for n in range(1, 10_001):
        assert psi_phi_identity_holds(n), n


def test_psi_phi_identity_values():
    p = profile(10)
    assert p.psi * p.phi / 100 == pytest.approx(0.72, abs=0.0)
    p = profile(8)
    assert p.psi * p.phi / 64 == pytest.approx(0.75, abs=0.0)


def test_mobius_square_counts_squarefree(tables_1e5):
    # mu(n)^2 = sum_{d^2 | n} mu(d)
    limit = 100_000
    mu = tables_1e5.mobius
    acc = np.zeros(limit + 1, dtype=np.int64)
    d = 1
    while d * d <= limit:
        acc[d * d::d * d] += mu[d]
        d += 1
    assert np.array_equal(acc[1:], (mu[1:] != 0).astype(np.int64))


def psi_table(lo, hi):
    """psi over [lo, hi) from psi_blocks, checking how the blocks tile it."""
    blocks = list(psi_blocks(lo, hi))
    firsts = [first for first, _ in blocks]
    assert firsts == list(range(lo, hi, SEGMENT_SIZE))
    for first, psi in blocks:
        # the documented rule: int32 while psi(n) < 5n stays below 2**31
        last = first + len(psi) - 1
        assert psi.dtype == (np.int32 if 5 * last < 2 ** 31 else np.int64)
    return np.concatenate([psi for _, psi in blocks])


def test_psi_table_matches_profiles():
    vals = psi_table(0, 5_001)
    assert vals[0] == 0
    assert vals[1] == 1
    for n in range(1, 5_001):
        assert vals[n] == profile(n).psi, n


def test_psi_table_domain():
    for lo, hi in ((-1, 5), (0, MAX_LIMIT + 2), (6, 5)):
        with pytest.raises(ValueError):
            next(psi_blocks(lo, hi))
    # the top of the domain: hi - 1 = 2**40 is allowed and exact
    lo = MAX_LIMIT - 2
    expect = [math.prod(p ** (e - 1) * (p + 1)
                        for p, e in sympy.factorint(n).items())
              for n in range(lo, MAX_LIMIT + 1)]
    assert psi_table(lo, MAX_LIMIT + 1).tolist() == expect


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 1_000])
def test_psi_table_small_x_matches_oracle(x):
    assert np.array_equal(psi_table(0, x + 1), all_primes_psi(x))


def test_psi_table_across_segments_matches_oracle(psi_past_two_segments):
    x = 2 * SEGMENT_SIZE + 5
    assert np.array_equal(psi_table(0, x + 1), psi_past_two_segments)


def test_psi_blocks_unaligned_range_matches_oracle(psi_past_two_segments):
    # blocks start at lo, so here every block straddles a multiple of
    # SEGMENT_SIZE
    lo, hi = SEGMENT_SIZE - 7, 2 * SEGMENT_SIZE + 3
    assert np.array_equal(psi_table(lo, hi), psi_past_two_segments[lo:hi])
