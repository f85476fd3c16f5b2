import functools
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psitools import (InsufficientSieveError, SieveTables, build_sieve,
                      segment_scan)
from psitools import cli, mertens, sieve
from psitools.sieve import (MAX_LIMIT, SEGMENT_SIZE, _mobius_block,
                            _psi_block, _psi_dtype, _small_primes, _spf_block,
                            _unmarked)
from psitools.squarefree import count_squarefree_formula
from psitools.summation import CompensatedSum

from conftest import plain_primes, primorial_columns


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
    for n, spf, _ in segment_scan(2, 5_000, tables_1e5):
        assert spf == brute_spf(n), n


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


def sieve_info_theta(limit):
    """The theta column of sieve-info --limit limit: the compensated sum
    of log p over the primes p <= limit."""
    args = cli.build_parser().parse_args(["sieve-info", "--limit",
                                          str(limit)])
    (chunk,) = cli.COMMANDS["sieve-info"].rows(args)
    return chunk[3][0]


def test_theta_values(tables_1e5):
    assert sieve_info_theta(2) == math.log(2)
    expect10 = math.fsum(math.log(p) for p in (2, 3, 5, 7))
    assert sieve_info_theta(10) == pytest.approx(expect10, rel=1e-15)
    expect = math.fsum(math.log(int(p)) for p in tables_1e5.primes)
    assert sieve_info_theta(100_000) == pytest.approx(expect, rel=1e-14)


def test_theta_prefix_steps_are_prime_logs(tables_1e5):
    # the theta prefix is the log_N column of the primorials
    prefix = primorial_columns(100_000)["log_N"]
    steps = np.diff(prefix)
    logs = np.log(tables_1e5.primes[1:].astype(np.float64))
    assert np.max(np.abs(steps - logs)) <= 1e-10


def test_theta_and_log_n_match_one_prefix_pass(tables_2e6):
    # bitwise against one compensated prefix over every prime's log, at
    # sampled counts i, among them either side of 2**16 and 2**17:
    # sieve-info at the edge counts and the grid walk of the prime sums
    # at every sampled count, each at p_i and just below p_{i+1}, and the
    # log_N column at every k
    primes = tables_2e6.primes
    reference = CompensatedSum().add(np.log(primes.astype(np.float64)))
    assert len(primes) > 2 ** 17 + 1
    rng = random.Random(20261018)
    edges = {1, 2, 3, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17,
             2 ** 17 + 1, len(primes)}
    counts = sorted(edges | {rng.randrange(1, len(primes))
                             for _ in range(300)})

    def cuts(i):
        """p_i, and the last x before p_{i+1} (the limit after the last)."""
        after = (int(primes[i]) - 1 if i < len(primes)
                 else tables_2e6.limit)
        return int(primes[i - 1]), after

    for i in sorted(edges):
        for x in cuts(i):
            assert sieve_info_theta(x) == reference[i - 1], (i, x)
    xs = [x for i in counts for x in cuts(i)]
    sums = mertens._prime_sums(xs, lambda p: np.log(p.astype(np.float64)))
    assert sums == [float(reference[i - 1]) for i in counts for _ in cuts(i)]
    assert np.array_equal(
        primorial_columns(tables_2e6.limit)["log_N"], reference)
    for i in (2 ** 16 - 1, 2 ** 16 + 1, 100_003):
        log_n = primorial_columns(int(primes[i - 1]))["log_N"]
        assert np.array_equal(log_n, reference[:i]), i


def test_segment_scan_matches_tables(tables_1e5):
    mu = tables_1e5.mobius
    primes = set(tables_1e5.primes.tolist())
    for n, s, m in segment_scan(2, 100_000, tables_1e5):
        assert n % s == 0
        assert (s == n) == (n in primes)
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
    # checked when called, before any value is asked for
    with pytest.raises(ValueError):
        segment_scan(1, 10, tables_1e4)
    with pytest.raises(ValueError):
        segment_scan(10, 9, tables_1e4)
    with pytest.raises(InsufficientSieveError):
        segment_scan(2, 10_001 ** 2, tables_1e4)


def test_build_small():
    tables = build_sieve(10)
    assert tables.primes.tolist() == [2, 3, 5, 7]
    assert tables.mobius[:11].tolist() == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert list(SieveTables._fields) == ["limit", "mobius", "primes"]

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
    assert np.array_equal(a.mobius, b.mobius)
    assert np.array_equal(a.primes, b.primes)


@pytest.mark.parametrize("call", [
    lambda t: count_squarefree_formula(10_001 ** 2, t),
], ids=["count_squarefree_formula"])
def test_past_the_table_raises_insufficient_sieve(tables_1e4, call):
    assert len(tables_1e4.primes) == 1_229
    with pytest.raises(InsufficientSieveError):
        call(tables_1e4)


def test_tables_immutable(tables_1e4):
    with pytest.raises(ValueError):
        tables_1e4.mobius[4] = 1
    with pytest.raises(ValueError):
        tables_1e4.primes[0] = 3


# ---------------------------------------------------------------------------
# the segment kernel at random offsets, against independent factorisations

TOP = MAX_LIMIT  # tables_2e6 holds the primes up to its square root


def factorint_spf_mu(n):
    """Smallest prime factor and Mobius value of n >= 2 from sympy."""
    exps = sympy.factorint(n)
    mu = 0 if max(exps.values()) > 1 else (-1) ** len(exps)
    return min(exps), mu


def trial_spf_mu(n, primes):
    """Smallest prime factor and Mobius value of n >= 2 by trial division."""
    small = primes[:int(np.searchsorted(primes, math.isqrt(n), side="right"))]
    divisors = small[n % small == 0].tolist()
    if any(n % (p * p) == 0 for p in divisors):
        return divisors[0], 0
    # what is left is 1 or one prime above sqrt(n)
    rest = n // math.prod(divisors)
    return (divisors[0] if divisors else n), (-1) ** (len(divisors) + (rest > 1))


def check_window(lo, hi, tables, sample):
    """segment_scan over [lo, hi]: every n once, squarefree count equal
    to the square-divisor formula, sampled n equal to sympy."""
    got = list(segment_scan(lo, hi, tables))
    assert [n for n, _, _ in got] == list(range(lo, hi + 1))
    assert all(type(v) is int for v in got[0])
    squarefree = sum(1 for _, _, mu in got if mu)
    assert squarefree == (count_squarefree_formula(hi, tables)
                          - count_squarefree_formula(lo - 1, tables))
    for i in sample:
        n, spf, mu = got[i % len(got)]
        assert (spf, mu) == factorint_spf_mu(n), n


# offsets spread over every bit length up to 40, not bunched near 2
offsets = st.integers(2, 40).flatmap(
    lambda bits: st.integers(1 << (bits - 1), min((1 << bits), TOP - 4096)))


@settings(max_examples=60, deadline=None)
@given(lo=offsets, length=st.integers(1, 4096),
       sample=st.lists(st.integers(0, 4095), min_size=4, max_size=12))
@example(lo=2, length=4096, sample=[0, 1, 2, 4094])
@example(lo=2 ** 31 - 2000, length=4000, sample=[1999, 2000, 3999])
@example(lo=2 ** 31 - 1, length=1, sample=[0])  # spf = int32 max
@example(lo=2 ** 31 - 4096, length=4096, sample=[4095])
def test_segment_scan_random_windows(tables_2e6, lo, length, sample):
    check_window(lo, lo + length - 1, tables_2e6, sample)


@settings(max_examples=20, deadline=None)
@given(p_index=st.integers(0, 10 ** 4), before=st.integers(0, 3000),
       after=st.integers(0, 3000))
def test_segment_scan_window_holding_large_prime_square(
        tables_2e6, p_index, before, after):
    # the window is at most 6001 long, so the kernel's cutoff between
    # strided and gathered primes lies below 94 and p sits above it
    below = tables_2e6.prime_count(math.isqrt(TOP))
    p = int(tables_2e6.primes[below - 1 - p_index])
    lo, hi = p * p - before, p * p + after
    check_window(lo, hi, tables_2e6, [before])
    n, spf, mu = next(segment_scan(p * p, p * p, tables_2e6))
    assert (n, spf, mu) == (p * p, p, 0)


def reference_sieve_block(lo, hi, primes, spf_dtype):
    """spf, Mobius, psi and prime marks of [lo, hi) from the old kernel:
    a strided-write loop over every prime that divides some n here and a
    residual divided at every prime power.  _spf_block, _mobius_block,
    _psi_block and _unmarked over the sieving primes must match it."""
    n = hi - lo
    spf = np.zeros(n, dtype=spf_dtype)
    mobius = np.ones(n, dtype=np.int8)
    psi = np.ones(n, dtype=np.int64)
    marks = np.ones(n, dtype=bool)
    rem = np.arange(lo, hi, dtype=np.int64)
    top = hi - 1
    small = primes[primes <= math.isqrt(top)]
    # a prime that divides no n here, and so none of its powers does,
    # changes nothing
    small = small[(-lo) % small < n]
    for p in small[::-1].tolist():
        spf[(-lo) % p::p] = p
    for p in small.tolist():
        start = (-lo) % p
        mobius[start::p] = -mobius[start::p]
        psi[start::p] *= p + 1
        marks[start::p] = False
        rem[start::p] //= p
        power = p * p
        if power <= top:
            mobius[(-lo) % power::power] = 0
        while power <= top:
            psi[(-lo) % power::power] *= p
            rem[(-lo) % power::power] //= p
            power *= p
    large = rem > 1
    mobius[large] = -mobius[large]
    psi[large] *= rem[large] + 1
    unmarked = spf == 0
    if lo == 0:
        unmarked[:min(2, n)] = False
    spf[unmarked] = (np.nonzero(unmarked)[0] + lo).astype(spf_dtype)
    return spf, mobius, psi, marks


def assert_block_matches_reference(lo, length, primes):
    hi = lo + length
    dtype = np.int32 if hi <= 2 ** 31 else np.int64
    # the dtype psi_blocks gives: int32 up to 2**31 // 5, sieved in place
    psi = np.empty(length, dtype=_psi_dtype(hi))
    _psi_block(lo, hi, primes, psi)
    got = (_spf_block(lo, hi, primes), _mobius_block(lo, hi, primes), psi)
    spf, mu, psi_want, marks = reference_sieve_block(lo, hi, primes, dtype)
    n = np.arange(lo, hi)
    for name, g, w in zip(("spf", "mu", "psi"), got, (spf, mu, psi_want)):
        # psi against the int64 reference by value, never cast
        assert g.dtype == (_psi_dtype(hi) if name == "psi" else w.dtype), name
        # psi(0) and mu(0) are left to the caller
        at = n > 0 if name in ("psi", "mu") else slice(None)
        assert np.array_equal(g[at], w[at]), (name, lo, hi)
    # the n that no sieving prime divides
    unmarked = _unmarked(lo, hi, primes[primes <= math.isqrt(hi - 1)],
                         np.empty(length, dtype=bool))
    assert unmarked.dtype == np.int64
    assert np.array_equal(unmarked, n[marks]), (lo, hi)


# the reference loops only over the primes that divide some n in the
# window, so windows reach 2^40; those shorter than 64 send every prime
# down the gathered pass
@settings(max_examples=40, deadline=None)
@given(lo=offsets, length=st.one_of(st.integers(1, 63),
                                    st.integers(64, 1 << 14)))
@example(lo=0, length=1 << 14)
@example(lo=2 ** 31 - 5000, length=10_000)
# the last int32 psi window, and one a step past it
@example(lo=2 ** 31 // 5 - 9_999, length=10_000)
@example(lo=2 ** 31 // 5 - 9_998, length=10_000)
@example(lo=TOP - 63, length=63)
def test_sieve_block_matches_reference(tables_2e6, lo, length):
    assert_block_matches_reference(lo, length, tables_2e6.primes)


# _psi_block closes 2^16 values at a time: lengths 2^16 - 1, 2^16 + 1 and
# 70,001 give one short slice, and two with a short last one, at the
# start, low and at the top of the domain
@pytest.mark.parametrize("lo, length", [
    (0, 1), (0, 2), (0, 11), (10 ** 12, 1 << 12), (TOP - (1 << 12), 1 << 12),
    *((lo, length) for length in ((1 << 16) - 1, (1 << 16) + 1, 70_001)
      for lo in (0, 10 ** 8, TOP - 70_001))])
def test_sieve_block_matches_reference_fixed(tables_2e6, lo, length):
    assert_block_matches_reference(lo, length, tables_2e6.primes)


@pytest.mark.parametrize("lo", [0, 1, 2])
@pytest.mark.parametrize("length", [1, 2, 3, 64, 200, 4096])
def test_sieve_block_at_start(tables_1e4, lo, length):
    hi = lo + length
    mu = _mobius_block(lo, hi, tables_1e4.primes)
    spf = _spf_block(lo, hi, tables_1e4.primes)
    assert spf.dtype == np.int32 and mu.dtype == np.int8
    assert spf.shape == mu.shape == (length,)
    for n in range(max(lo, 2), hi):
        assert (spf[n - lo], mu[n - lo]) == factorint_spf_mu(n), n
    if lo <= 1 < hi:
        assert mu[1 - lo] == 1
    if lo == 0:  # the kernel sets spf to 0 below 2
        assert spf[1] == 0 if length > 1 else spf[0] == 0


def test_segment_scan_full_window_near_1e12(tables_2e6):
    # one whole SEGMENT_SIZE block around p^2 with p = 1000003, far above
    # the block's cutoff between strided and gathered primes
    p = 1_000_003
    lo = p * p - (1 << 19)
    hi = lo + (1 << 20) - 1
    rng = random.Random(7)
    sample = set(rng.sample(range(lo, hi + 1), 200)) | {lo, p * p, hi}
    squarefree = 0
    seen = {}
    for n, spf, mu in segment_scan(lo, hi, tables_2e6):
        squarefree += mu != 0
        if n in sample:
            seen[n] = (spf, mu)
    assert squarefree == (count_squarefree_formula(hi, tables_2e6)
                          - count_squarefree_formula(lo - 1, tables_2e6))
    assert seen.keys() == sample
    for n in sample:
        assert seen[n] == trial_spf_mu(n, tables_2e6.primes), n
    assert seen[p * p] == (p, 0)
    # psi over the same block, where both the strided and the gathered
    # passes apply
    (first, psi), = sieve.psi_blocks(lo, hi + 1)
    assert first == lo and len(psi) == 1 << 20
    for n in sample:
        assert psi[n - lo] == factorint_psi(n), n


def factorint_psi(n):
    """psi(n) for n >= 1 from sympy."""
    return math.prod(p ** (a - 1) * (p + 1)
                     for p, a in sympy.factorint(n).items())


@pytest.mark.parametrize("hi", [2 ** 31, 2 ** 31 + 1])
@pytest.mark.parametrize("length", [1, 2, 3000])
def test_kernels_at_the_int32_edge(tables_2e6, hi, length):
    # windows ending just below and just past 2**31 = 2147483648: the
    # first keeps int32 (its last n is the prime 2**31 - 1), the second
    # holds 2**31 and needs int64
    lo = hi - length
    assert_block_matches_reference(lo, length, tables_2e6.primes)
    (first, psi), = sieve.psi_blocks(lo, hi)
    assert first == lo and psi.dtype == np.int64
    assert psi.tolist() == [factorint_psi(n) for n in range(lo, hi)]
    if lo < 2 ** 31:
        mu = _mobius_block(lo, hi, tables_2e6.primes)
        (primes,) = sieve.prime_blocks(lo, hi)
        i = 2 ** 31 - 1 - lo
        assert (mu[i], psi[i], primes[-1]) == (-1, 2 ** 31, 2 ** 31 - 1)


PSI32_TOP = 2 ** 31 // 5  # the last n of an int32 psi block


@pytest.mark.parametrize("last, dtype", [(PSI32_TOP, np.int32),
                                         (PSI32_TOP + 1, np.int64)])
@pytest.mark.parametrize("length", [1, 2, 3000, sieve._WHEEL + 1])
def test_psi_blocks_at_the_int32_psi_edge(last, dtype, length):
    # psi(n) < 5n, so a block whose last n is 2**31 // 5 = 429496729 is
    # int32 (5n = 2**31 - 3) and one ending one later is int64; every
    # value against the reference pass, and the last 3000 against sympy
    lo = last + 1 - length
    (first, psi), = sieve.psi_blocks(lo, last + 1)
    assert first == lo and psi.dtype == dtype
    want = reference_sieve_block(lo, last + 1, plain_primes(math.isqrt(last)),
                                 np.int64)[2]
    assert np.array_equal(psi, want)
    tail = range(max(lo, last - 2999), last + 1)
    assert psi[tail.start - lo:].tolist() == list(map(factorint_psi, tail))


def test_psi_of_the_ninth_primorial_in_an_int32_block():
    # N_9 = 223092870 has the largest psi(n)/n below 2**31 // 5:
    # psi(N_9) = 3 * 4 * 6 * ... * 24 = 836075520 < 2**31
    n9 = math.prod(sympy.primerange(2, 24))
    assert n9 == 223_092_870
    (first, psi), = sieve.psi_blocks(n9 - 3, n9 + 4)
    assert psi.dtype == np.int32
    assert psi[n9 - first] == math.prod(p + 1 for p in
                                        sympy.primerange(2, 24)) == 836075520
    assert psi.tolist() == [factorint_psi(n) for n in range(n9 - 3, n9 + 4)]


def test_psi_below_5n_to_the_top_of_the_domain():
    # psi(n) / n <= prod(1 + 1/p) over the primes of n; an n <= 2**40 has
    # at most 11 of them, since N_12 > 2**40, so psi(n) < 5n there
    primes = list(sympy.primerange(2, 38))
    assert len(primes) == 12 and math.prod(primes) > MAX_LIMIT
    assert math.prod(Fraction(p + 1, p) for p in primes[:11]) < 5


W = sieve._WHEEL
# a multiple m of the wheel's period at 0, near 1e8, just below 2^31 (so
# that every window below holds 2^31 - 1 and 2^31) and just below TOP
WHEEL_EDGES = [W, round(1e8 / W) * W, 2 ** 31 - 2 ** 31 % W,
               (TOP - 2 * W - 3) // W * W]


def test_wheel_period_is_the_gcd_and_its_psi():
    # the tiled starting state: found = gcd(n, W) and psi of it, shared
    # read-only by every block
    psi, found = sieve._wheel()
    assert np.array_equal(found, np.gcd(np.arange(W), W))
    psi_of = {d: factorint_psi(d) for d in sympy.divisors(W)}
    assert psi.tolist() == [psi_of[d] for d in found.tolist()]
    assert not psi.flags.writeable and not found.flags.writeable


def wheel_edge_windows(m):
    """(lo, hi) from lo = m - 1, m and m + 1 (and lo = 0 and 1 near 0),
    of lengths W - 1, W, W + 1 and 2W + 3: the tiled period starts, ends
    and repeats at every offset."""
    starts = (m - 1, m, m + 1) if m > W else (0, 1, m - 1, m, m + 1)
    return [(lo, lo + length) for lo in starts
            for length in (W - 1, W, W + 1, 2 * W + 3)]


@functools.cache
def wheel_edge_reference(m):
    """span_lo and reference_sieve_block's spf, Mobius and psi over the
    span of every wheel_edge_windows(m): spf(n), mu(n) and psi(n) do not
    depend on the window, so one reference pass serves them all."""
    windows = wheel_edge_windows(m)
    span_lo, span_hi = windows[0][0], windows[-1][1]
    assert span_hi - 1 <= TOP
    spf, mobius, psi, _ = reference_sieve_block(
        span_lo, span_hi, plain_primes(math.isqrt(TOP)), np.int64)
    return span_lo, spf, mobius, psi


@pytest.mark.parametrize("m", WHEEL_EDGES, ids=["0", "1e8", "2^31", "TOP"])
def test_psi_block_at_wheel_boundaries(tables_2e6, m):
    # every n against one reference pass over all the windows, and the
    # window edges against sympy
    span_lo, _, _, want = wheel_edge_reference(m)
    for lo, hi in wheel_edge_windows(m):
        psi = np.empty(hi - lo, dtype=np.int64)
        _psi_block(lo, hi, tables_2e6.primes, psi)
        at = 1 if lo == 0 else 0  # psi(0) is left to the caller
        assert np.array_equal(psi[at:], want[lo + at - span_lo:
                                             hi - span_lo]), (lo, hi)
        for n in {max(lo, 1), m - 1, m, m + 1, hi - 1} & {*range(lo, hi)}:
            assert psi[n - lo] == factorint_psi(n), n


@pytest.mark.parametrize("m", WHEEL_EDGES, ids=["0", "1e8", "2^31", "TOP"])
def test_mobius_block_at_wheel_boundaries(tables_2e6, m):
    # mu against the reference pass for every window
    span_lo, _, mobius, _ = wheel_edge_reference(m)
    for lo, hi in wheel_edge_windows(m):
        mu = _mobius_block(lo, hi, tables_2e6.primes)
        assert mu.dtype == np.int8
        at = 1 if lo == 0 else 0  # mu(0) is left to the caller
        assert np.array_equal(mu[at:], mobius[lo + at - span_lo:
                                              hi - span_lo]), (lo, hi)


def test_mobius_wheel_pattern():
    # _mobius_block's starting state: (-1)^omega(g) g for g = gcd(n,
    # 30030), and 0 at multiples of 4, shared read-only by every block
    signed = sieve._signed_wheel()
    g = np.gcd(np.arange(W), 30030)
    sign = {d: (-1) ** len(sympy.primefactors(d))
            for d in sympy.divisors(30030)}
    want = np.array([sign[d] * d for d in g.tolist()])
    want[::4] = 0
    assert np.array_equal(signed, want)
    assert not signed.flags.writeable


def test_build_sieve_small_limits_match_plain_sieve_and_sympy():
    # below 169 the wheel primes 11 and 13 exceed sqrt(limit), though
    # the Mobius kernel's period still holds their factors
    mu = [0] + [sympy.mobius(n) for n in range(1, 401)]
    for limit in range(2, 401):
        tables = build_sieve(limit)
        assert np.array_equal(tables.primes, plain_primes(limit)), limit
        assert tables.mobius.tolist() == mu[:limit + 1], limit


@pytest.mark.parametrize("lo, hi", [
    (0, 2), (0, 12), (1, 14), (10, 14), (11, 12), (13, 14), (2, 120),
    (0, 121), (100, 121), (120, 121)])
def test_psi_block_where_11_and_13_are_not_sieving_primes(tables_1e4, lo, hi):
    # hi <= 121: 11 and 13 are above sqrt(hi - 1), so they are not
    # sieving primes, but their factors come from the tiled period
    psi = np.empty(hi - lo, dtype=np.int64)
    _psi_block(lo, hi, tables_1e4.primes, psi)
    want = reference_sieve_block(lo, hi, tables_1e4.primes, np.int32)[2]
    n = np.arange(lo, hi)
    assert np.array_equal(psi[n > 0], want[n > 0]), (lo, hi)
    assert psi[n > 0].tolist() == [factorint_psi(k) for k in n[n > 0]]


@pytest.mark.parametrize("limit", [2, 3, 4, 1000, 2 ** 20 - 1, 2 ** 20,
                                   2 ** 20 + 1, 3 * 2 ** 20 + 7])
def test_build_primes_match_plain_sieve(limit):
    primes = build_sieve(limit).primes
    assert primes.dtype == np.int64
    assert np.array_equal(primes, _small_primes(limit))
    assert len(primes) < 1.25506 * limit / math.log(limit)


@pytest.mark.parametrize("limit", [2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1,
                                   3 * 2 ** 20 + 7])
def test_build_sieve_reuses_one_workspace(monkeypatch, limit):
    # build_sieve hands every block the same workspace; its mobius must
    # equal separate _mobius_block calls, the short last block included,
    # its primes the plain sieve's, and neither share memory with that
    # workspace
    works = []

    def recording(lo, hi, primes, work=None):
        works.append(work)
        return _mobius_block(lo, hi, primes, work)

    monkeypatch.setattr(sieve, "_mobius_block", recording)
    tables = build_sieve(limit)
    monkeypatch.undo()
    starts = range(0, limit + 1, SEGMENT_SIZE)
    assert len(works) == len(starts)
    work = works[0]
    assert all(w is work for w in works)
    assert [len(a) for a in work] == [min(SEGMENT_SIZE, limit + 1)] * 2
    base = _small_primes(math.isqrt(limit))
    parts = [_mobius_block(lo, min(lo + SEGMENT_SIZE, limit + 1), base)
             for lo in starts]
    mobius = np.concatenate(parts)
    mobius[0] = 0
    assert len(parts[-1]) == ((limit + 1) % SEGMENT_SIZE or SEGMENT_SIZE)
    assert np.array_equal(tables.mobius, mobius)
    assert np.array_equal(tables.primes, plain_primes(limit))
    for table in (tables.mobius, tables.primes):
        assert not table.flags.writeable
        assert not any(np.shares_memory(table, a) for a in work)


@pytest.mark.parametrize("limit", [2, 3, 4, 1000, 2 ** 20 - 1, 2 ** 20,
                                   2 ** 20 + 1, 3 * 2 ** 20 + 7])
def test_prime_blocks_match_build_sieve(limit):
    # build_sieve reads its primes from prime_blocks, so both are held to
    # the plain sieve
    primes = plain_primes(limit)
    assert np.array_equal(build_sieve(limit).primes, primes)
    for lo in [lo for lo in (0, 2, 7) if lo <= limit]:
        blocks = list(sieve.prime_blocks(lo, limit + 1))
        assert len(blocks) == -(-(limit + 1 - lo) // SEGMENT_SIZE)
        assert all(block.dtype == np.int64 for block in blocks)
        assert np.array_equal(np.concatenate(blocks), primes[primes >= lo])


@pytest.mark.parametrize("lo, hi", [
    (2 ** 31 - 5000, 2 ** 31 + 5000),
    (10 ** 12 - 12_345, 10 ** 12 + SEGMENT_SIZE + 6_789),
    # empty, starting at 0 to 3, across the block seams, and at 1e8,
    # 1e12, 2^31 and the top of the domain
    (5, 5), (0, 1), (0, 2), (0, 3), (1, 4), (2, 200), (3, 5000),
    (SEGMENT_SIZE - 3, SEGMENT_SIZE + 3), (0, 2 * SEGMENT_SIZE + 1),
    (10 ** 8 - 1000, 10 ** 8 + 1000), (10 ** 12 - 1000, 10 ** 12 + 1000),
    (2 ** 31 - 1000, 2 ** 31 + 1000), (MAX_LIMIT - 1000, MAX_LIMIT + 1)])
def test_prime_and_squarefree_blocks_match_reference(lo, hi):
    # the primes are the n >= 2 that are their own smallest prime factor,
    # and the squarefree n of the Mobius kernel the n >= 1 with mu != 0
    spf, mobius, _, _ = reference_sieve_block(
        lo, hi, plain_primes(math.isqrt(max(hi - 1, 0))), np.int64)
    n = np.arange(lo, hi)
    blocks = list(sieve.prime_blocks(lo, hi))
    assert len(blocks) == -(-(hi - lo) // SEGMENT_SIZE)
    assert all(block.dtype == np.int64 for block in blocks)
    squarefree = [first + np.flatnonzero(_mobius_block(first, last, base))
                  for first, last, base in sieve._blocks(lo, hi)]
    for got, want in ((blocks, (spf == n) & (n >= 2)),
                      (squarefree, (mobius != 0) & (n >= 1))):
        assert np.array_equal(np.concatenate([n[:0], *got]), n[want])


def test_prime_blocks_count_to_1e8():
    assert sum(map(len, sieve.prime_blocks(2, 10 ** 8 + 1))) == 5_761_455


def test_prime_blocks_domain():
    (top,) = sieve.prime_blocks(MAX_LIMIT - 200, MAX_LIMIT + 1)
    assert top.tolist() == [n for n in range(MAX_LIMIT - 200, MAX_LIMIT + 1)
                            if sympy.isprime(n)]
    assert list(sieve.prime_blocks(5, 5)) == []
    # sqrt(2**40) = 2**20, so the first block holds no n above the root
    first = next(sieve.prime_blocks(0, MAX_LIMIT + 1))
    assert np.array_equal(first, plain_primes(SEGMENT_SIZE - 1))
    for lo, hi in [(0, MAX_LIMIT + 2), (-1, 5), (5, 4)]:
        with pytest.raises(ValueError, match="2\\*\\*40"):
            next(sieve.prime_blocks(lo, hi))


_PI_2_20 = 82_025  # pi(2^20); p_82026 = 1,048,583 opens the second block


@pytest.mark.parametrize("x", [2, 3, 4, 100, 2 ** 20 - 1, 2 ** 20,
                               2 ** 20 + 1, 2 ** 21 - 1, 2 ** 21, 2 ** 21 + 1])
def test_prime_chunks_x_form_matches_build_sieve(tables_2e6, x):
    chunks = list(sieve.prime_chunks(x))
    assert all(c.dtype == np.int64 and 0 < len(c) <= 2 ** 12 for c in chunks)
    primes = tables_2e6.primes
    assert np.array_equal(np.concatenate(chunks), primes[primes <= x])


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 2 ** 12, 2 ** 12 + 1,
                                   _PI_2_20, _PI_2_20 + 1, _PI_2_20 + 2])
def test_prime_chunks_count_form_matches_build_sieve(tables_2e6, count):
    # the Rosser bound must reach p_n, and _first must cut right after it
    assert tables_2e6.primes[_PI_2_20] == 1_048_583 > 2 ** 20
    chunks = list(sieve.prime_chunks(count=count))
    assert all(c.dtype == np.int64 and 0 < len(c) <= 2 ** 12 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), tables_2e6.primes[:count])


def test_prime_chunks_domain():
    # the count form sizes its stream when called, before any sieving
    with pytest.raises(ValueError, match="2\\*\\*40"):
        sieve.prime_chunks(count=10 ** 11)
    with pytest.raises(ValueError, match="2\\*\\*40"):
        next(sieve.prime_chunks(MAX_LIMIT + 1))
    assert list(sieve.prime_chunks(1)) == []


def test_grid_rows_cuts_every_block_at_each_x():
    # empty blocks, an x between blocks, on a value, past the last value,
    # repeated and unsorted
    blocks = [np.array([2, 3, 5]), np.array([], np.int64), np.array([11, 13]),
              np.array([17])]
    seen = []
    xs = [13, 4, 5, 12, 2, 4, 20, 11]
    rows = sieve.grid_rows(
        xs, 2, lambda top: ((b,) for b in blocks),
        lambda part: seen.extend(part.tolist()), lambda x: sum(seen))
    assert rows == [sum(v for v in (2, 3, 5, 11, 13, 17) if v <= x)
                    for x in xs]
    assert seen == [2, 3, 5, 11, 13, 17]


@pytest.mark.parametrize("xs, message", [
    ([], "nonempty"), ([5, 1], "x must be in \\[2, 2\\*\\*40\\], got 1"),
    ([MAX_LIMIT + 1], "got 1099511627777")])
def test_grid_rows_domain(xs, message):
    with pytest.raises(ValueError, match=message):
        sieve.grid_rows(xs, 2, lambda top: iter(()), print, print)


def test_build_refuses_limit_beyond_available_memory(monkeypatch):
    # the estimate is made, and refused, before any table is allocated
    monkeypatch.setattr(sieve, "_available_bytes", lambda: 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=r"build_sieve\(10000000\) "
                           r"needs about 47 MiB, but only 1 MiB"):
            build_sieve(10 ** 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # with the figure unknown, or large enough, the tables are built
    monkeypatch.setattr(sieve, "_available_bytes", lambda: None)
    assert len(build_sieve(1000).primes) == 168
    monkeypatch.setattr(sieve, "_available_bytes", lambda: 2 ** 22)
    assert len(build_sieve(1000).primes) == 168


def test_memory_estimate_covers_build_peak(monkeypatch):
    # _check_memory's estimate, read from its refusal, against the
    # tracemalloc peak of the build it guards
    limit = 3 * 2 ** 20
    monkeypatch.setattr(sieve, "_available_bytes", lambda: 0)
    with pytest.raises(MemoryError) as refusal:
        build_sieve(limit)
    need_mib = float(refusal.value.args[0].split("needs about ")[1]
                     .split(" MiB")[0].replace(",", ""))
    monkeypatch.setattr(sieve, "_available_bytes", lambda: None)
    tracemalloc.start()
    try:
        build_sieve(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < need_mib * 2 ** 20, (peak, need_mib)


def test_available_bytes_reads_meminfo():
    available = sieve._available_bytes()
    if os.path.exists("/proc/meminfo"):
        assert 0 < available
    else:
        assert available is None
