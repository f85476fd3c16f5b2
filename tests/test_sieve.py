import math

import numpy as np
import pytest

from psitools import InsufficientSieveError, build_sieve, segment_scan, theta


def brute_mobius(n):
    if n == 1:
        return 1
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    if n > 1:
        sign = -sign
    return sign


def brute_spf(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def test_mobius_against_trial_division(tables_1e5):
    mu = tables_1e5.mobius
    for n in range(1, 100_001):
        assert mu[n] == brute_mobius(n), n


def test_spf_against_trial_division(tables_1e5):
    spf = tables_1e5.spf
    for n in range(2, 5_001):
        assert spf[n] == brute_spf(n), n


def test_prime_counts(tables_1e5):
    assert tables_1e5.prime_count(10) == 4
    assert tables_1e5.prime_count(100) == 25
    assert tables_1e5.prime_count(10_000) == 1229
    assert tables_1e5.prime_count(100_000) == 9592


def test_mobius_divisor_sums(tables_1e4):
    # sum_{d|n} mu(d) vanishes for n > 1 and equals 1 at n = 1
    limit = 10_000
    mu = tables_1e4.mobius
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sums[d::d] += mu[d]
    assert sums[1] == 1
    assert not sums[2:].any()


def test_theta_values(tables_1e5):
    assert theta(1, tables_1e5) == 0.0
    assert theta(2, tables_1e5) == pytest.approx(math.log(2), abs=0.0)
    expect10 = math.fsum(math.log(p) for p in (2, 3, 5, 7))
    assert theta(10, tables_1e5) == pytest.approx(expect10, rel=1e-15)
    expect = math.fsum(math.log(int(p)) for p in tables_1e5.primes)
    assert theta(100_000, tables_1e5) == pytest.approx(expect, rel=1e-14)


def test_theta_prefix_steps_are_prime_logs(tables_1e5):
    prefix = tables_1e5.theta_prefix
    steps = np.diff(prefix)
    logs = np.log(tables_1e5.primes[1:].astype(np.float64))
    assert np.max(np.abs(steps - logs)) <= 1e-10


def test_theta_domain(tables_1e4):
    assert theta(0, tables_1e4) == 0.0
    with pytest.raises(ValueError):
        theta(-1, tables_1e4)
    with pytest.raises(ValueError):
        theta(10_001, tables_1e4)


def test_segment_scan_matches_tables(tables_1e5):
    spf = tables_1e5.spf
    mu = tables_1e5.mobius
    for n, s, m in segment_scan(2, 100_000, tables_1e5):
        assert s == spf[n]
        assert m == mu[n]


def test_segment_scan_beyond_limit(tables_1e4):
    # only sqrt(hi) must fit inside the sieve
    got = list(segment_scan(1_000_000, 1_000_100, tables_1e4))
    assert len(got) == 101
    for n, s, m in got:
        assert s == brute_spf(n)
        assert m == brute_mobius(n)


def test_segment_scan_single_value(tables_1e4):
    assert list(segment_scan(25, 25, tables_1e4)) == [(25, 5, 0)]


def test_segment_scan_domain(tables_1e4):
    with pytest.raises(ValueError):
        list(segment_scan(1, 10, tables_1e4))
    with pytest.raises(ValueError):
        list(segment_scan(10, 9, tables_1e4))
    with pytest.raises(InsufficientSieveError):
        list(segment_scan(2, 10_001 ** 2, tables_1e4))


def test_build_small():
    tables = build_sieve(10)
    assert tables.primes.tolist() == [2, 3, 5, 7]
    assert tables.mobius[:11].tolist() == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert tables.spf[:11].tolist() == [0, 0, 2, 3, 2, 5, 2, 7, 2, 3, 2]

    tiny = build_sieve(2)
    assert tiny.primes.tolist() == [2]


def test_build_validation():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(ValueError):
        build_sieve((1 << 40) + 1)
    with pytest.raises(ValueError):
        build_sieve(100.0)


def test_build_deterministic():
    a = build_sieve(3_000)
    b = build_sieve(3_000)
    assert np.array_equal(a.spf, b.spf)
    assert np.array_equal(a.mobius, b.mobius)
    assert np.array_equal(a.primes, b.primes)
    assert np.array_equal(a.theta_prefix, b.theta_prefix)


def test_tables_immutable(tables_1e4):
    with pytest.raises(ValueError):
        tables_1e4.spf[4] = 7
    with pytest.raises(ValueError):
        tables_1e4.mobius[4] = 1
