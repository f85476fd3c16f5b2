import math
import random
import typing
from fractions import Fraction
from functools import cache
from numbers import Rational

import mpmath
import numpy as np
import pytest
import sympy

from psitools import InsufficientSieveError, build_sieve, sieve, squarefree
from psitools.sieve import SieveTables
from psitools.squarefree import (
    count_squarefree_formula,
    count_squarefree_formula_range,
    primorial_divisor_tail,
    squarefree_harmonic_grid,
    squarefree_residual_grid,
)
from psitools.summation import CompensatedSum

from conftest import (count_squarefree_exact, plain_primes, psi_product_exact,
                      squarefree_harmonic_exact, squarefree_upto, traced_peak)


def brute_squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_counts_small():
    assert count_squarefree_exact(10) == 7
    assert count_squarefree_exact(100) == 61
    brute = 0
    for x in range(1, 1_001):
        brute += brute_squarefree(x)
        assert count_squarefree_exact(x) == brute, x


def test_formula_matches_exact(tables_1e4):
    for x in range(1, 10_001):
        assert count_squarefree_formula(x, tables_1e4) == count_squarefree_exact(x), x


def test_formula_range_matches_scalar(tables_1e4):
    table = count_squarefree_formula_range(10_000, tables_1e4)
    assert table.dtype == np.int64
    assert table.shape == (10_001,)
    assert table[0] == 0
    for x in range(1, 10_001):
        assert table[x] == count_squarefree_formula(x, tables_1e4), x


@pytest.mark.parametrize("xmax, values", [(1, [0, 1]), (3, [0, 1, 2, 3]),
                                          (4, [0, 1, 2, 3, 3])])
def test_formula_range_small_xmax(tables_1e4, xmax, values):
    assert count_squarefree_formula_range(xmax, tables_1e4).tolist() == values


def test_formula_range_matches_mobius_tally():
    tables = build_sieve(4_000_000)
    table = count_squarefree_formula_range(4_000_000, tables)
    tally = np.cumsum(tables.mobius[1:] != 0)
    assert np.array_equal(table[1:], tally)


def test_formula_range_domain(tables_1e4):
    with pytest.raises(ValueError):
        count_squarefree_formula_range(0, tables_1e4)
    with pytest.raises(InsufficientSieveError):
        count_squarefree_formula_range(10_001 ** 2, tables_1e4)


def test_formula_beyond_table_limit(tables_1e4):
    # only sqrt(x) of sieve is needed
    assert count_squarefree_formula(100_000_000, tables_1e4) == 60_792_694
    with pytest.raises(InsufficientSieveError):
        count_squarefree_formula(10_001 ** 2, tables_1e4)
    with pytest.raises(ValueError):
        count_squarefree_formula(0, tables_1e4)


def test_formula_exact_beyond_2_62():
    # x in (2^62, 2^64] takes the Python-int path; a limit of 2^32 passes
    # the sqrt(x) check while the short Mobius table ends the sum at d < 3000
    small = build_sieve(3000)
    tables = SieveTables(2 ** 32, small.mobius, small.primes)
    mu = small.mobius.tolist()
    for x in (2 ** 62 + 1, 2 ** 62 + 123_456_789, 3 * 2 ** 62 - 7,
              2 ** 63, 2 ** 64 - 1, 2 ** 64):
        expect = x + sum(mu[d] * (x // (d * d)) for d in range(2, len(mu)))
        assert count_squarefree_formula(x, tables) == expect, x


def plain_mobius(x):
    """mu(n) for n in [0, x] (mu(0) = 0) as int64, by a plain sieve over
    plain_primes, independent of psitools."""
    mu = np.ones(x + 1, dtype=np.int64)
    mu[0] = 0
    for p in plain_primes(x).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def direct_sum(x, mu):
    """sum_{1 <= d <= sqrt(x), d < len(mu)} mu(d) floor(x / d^2) for
    x <= 2**62.  In int64 the sum wraps modulo 2**64 at worst, and the
    exact value lies in [0, x], so the result is exact."""
    d = np.arange(1, min(math.isqrt(x), len(mu) - 1) + 1, dtype=np.int64)
    return int(np.dot(mu[d], x // (d * d)))


def test_formula_matches_direct_sum_to_20000(tables_1e4):
    # both parts of the split, and the switch between them, at small x
    mu = plain_mobius(math.isqrt(20_000))
    xs = np.arange(20_001, dtype=np.int64)
    want = sum(int(mu[d]) * (xs // (d * d)) for d in range(1, len(mu)))
    for x in range(1, 20_001):
        assert count_squarefree_formula(x, tables_1e4) == want[x], x


# k^3 - 1, k^3, k^3 + 1 move the split c = x^(1/3), and k^2 - 1, k^2,
# k^2 + 1 the top of the Mertens part, up to 4e12
_CUBE_ROOTS = sorted({int(1.25 ** i) for i in range(44)} | {15_874})
_SQUARE_ROOTS = sorted({int(1.4 ** i) for i in range(44)} | {2_000_000})


def test_formula_around_the_split(tables_2e6):
    mu = plain_mobius(math.isqrt(4 * 10 ** 12 + 1))
    xs = {k ** e + step for e, ks in ((3, _CUBE_ROOTS), (2, _SQUARE_ROOTS))
          for k in ks for step in (-1, 0, 1)}
    for x in sorted(xs - {0}):
        assert x <= 4 * 10 ** 12 + 1
        assert count_squarefree_formula(x, tables_2e6) == direct_sum(x, mu), x


@pytest.mark.parametrize("limit", [3000, 2_200_000])
@pytest.mark.parametrize("x", [2 ** 62 - 1, 2 ** 62], ids=["2^62-1", "2^62"])
def test_formula_at_2_62_reads_inside_a_short_table(tables_2e6, limit, x):
    # the last x of the int64 path, with the fake table of
    # test_formula_exact_beyond_2_62: at 3000 the table ends below
    # x^(1/3), at 2.2e6 above it, so isqrt(x // v) runs past the table's
    # end for the small v and the Mertens part must stop at it
    small = tables_2e6 if limit == tables_2e6.limit else build_sieve(limit)
    tables = SieveTables(2 ** 32, small.mobius, small.primes)
    want = direct_sum(x, plain_mobius(limit))
    assert count_squarefree_formula(x, tables) == want


def test_isqrt_exact_to_2_62():
    # k^2 - 1, k^2 and k^2 + 1 up to 2^62, where float64 rounds m: the
    # float root's floor is one too high for some k^2 - 1 near 2^31, so
    # the fix-up is needed, and never too low, as _isqrt shows
    rng = random.Random(22)
    ks = [0, 1, 2, 3, 2 ** 26, 2 ** 26 + 1, 2 ** 31 - 1, 2 ** 31,
          *(rng.randrange(2, 2 ** 31) for _ in range(3000))]
    m = np.array(sorted({k * k + e for k in ks for e in (-1, 0, 1)
                         if 0 <= k * k + e <= 2 ** 62}), dtype=np.int64)
    want = np.array([math.isqrt(v) for v in m.tolist()])
    assert np.array_equal(squarefree._isqrt(m), want)
    floor = np.sqrt(m).astype(np.int64)
    assert (floor > want).any() and (floor >= want).all()


def test_known_density_point(tables_1e6):
    assert count_squarefree_formula(1_000_000, tables_1e6) == 607_926


# A071172: the number of squarefree n <= 10^k, for k = 1..12
A071172 = [7, 61, 608, 6083, 60794, 607926, 6079291, 60792694, 607927124,
           6079270942, 60792710280, 607927102274]


def test_residual_grid_counts_equal_the_squarefree_stream():
    # Q from the square-divisor sum against the tests' oracle, a count
    # of the squarefree n of a plain sieve: every x to 300, either side
    # of the block seams 2^20 and 2^21, and last 1733^2, whose root is
    # prime, so the Mobius table must reach isqrt(max(xs)) itself
    xs = [*range(1, 301), 2 ** 20 - 1, 2 ** 20 + 1, 2 ** 21 - 1,
          2 ** 21 + 1, 3 * 10 ** 6, 1733 ** 2]
    got = [q for _, q, *_ in squarefree_residual_grid(xs)]
    assert got == [count_squarefree_exact(x) for x in xs]


def test_residual_grid_gives_a071172_without_tables(monkeypatch):
    def no_tables(limit):
        raise AssertionError(f"build_sieve({limit}) called")

    monkeypatch.setattr(sieve, "build_sieve", no_tables)
    rows = squarefree_residual_grid([10 ** k for k in range(1, 13)])
    assert [q for _, q, *_ in rows] == A071172


def test_residual_pair():
    ((x, q, main, residual, half, quarter),) = squarefree_residual_grid([10])
    assert x == 10
    assert q == 7 and type(q) is int
    assert residual == float(q) - main
    assert main == pytest.approx(6.0792710185402663, rel=1e-15)
    assert residual == pytest.approx(0.9207289814597337, rel=1e-12)
    assert half == pytest.approx(residual / math.sqrt(10), rel=1e-14)
    assert quarter == pytest.approx(residual / 10 ** 0.25, rel=1e-14)


def test_harmonic_values():
    one, ten = squarefree_harmonic_grid([1, 10])
    assert one.value == 1.0
    # 1 + 1/2 + 1/3 + 1/5 + 1/6 + 1/7 + 1/10 = 513/210
    assert ten.value == pytest.approx(513 / 210, rel=1e-15)
    assert ten.main == pytest.approx((6 / math.pi ** 2) * math.log(10), rel=1e-15)
    assert ten.residual == pytest.approx(1.0430532605009883, abs=1e-12)


def test_harmonic_exact():
    assert squarefree_harmonic_exact(1) == Fraction(1)
    assert squarefree_harmonic_exact(10) == Fraction(171, 70)
    assert Fraction(171, 70) == Fraction(513, 210)


def test_harmonic_formula_within_half_an_ulp_of_mpmath():
    # sum mu(d) H(x // d^2) / d^2 at 40 digits, on 60 x log-uniform to
    # 1e7 and two x where a compensated sum of the 1/n rounds apart
    rng = random.Random(31)
    xs = {29787, 4279349}
    while len(xs) < 62:
        xs.add(int(10 ** rng.uniform(0, 7)))
    mu = [0, *sympy.sieve.mobiusrange(1, math.isqrt(10 ** 7) + 1)]
    with mpmath.workdps(40):
        harmonic = cache(mpmath.harmonic)
        for x, row in zip(xs, squarefree_harmonic_grid(xs)):
            exact = mpmath.fsum(mu[d] * harmonic(x // (d * d)) / (d * d)
                                for d in range(1, math.isqrt(x) + 1) if mu[d])
            ulp = math.ulp(row.value)
            assert abs(row.value - exact) <= 0.51 * ulp, x
            streamed = CompensatedSum().add(1.0 / squarefree_upto(x))[-1]
            assert abs(streamed - row.value) <= 2 * ulp, x


def test_harmonic_at_2_40_peaks_no_higher_than_squarefree(tmp_path):
    # both peak while the same Mobius table to 2^20 is built (6.95 MB
    # traced); interpreter state moves either peak by up to 16 kB
    peaks = {}
    for command in ("squarefree", "harmonic"):
        code, peaks[command] = traced_peak(
            command, "--x", "1099511627776", "--output", str(tmp_path / "o"))
        assert code == 0
    assert (tmp_path / "o").read_text().count("\n1099511627776,") == 1
    assert peaks["harmonic"] <= peaks["squarefree"] + 2 ** 16, peaks


def test_harmonic_residual_settles():
    # residual approaches a constant near 1.0439; successive decades agree to ~1e-2
    r5, r6 = [s.residual
              for s in squarefree_harmonic_grid([100_000, 1_000_000])]
    assert abs(r6 - r5) < 1e-2
    assert r6 == pytest.approx(1.0439, abs=1e-3)


def test_psi_product_exact():
    assert psi_product_exact(10) == Fraction(96, 35)
    # prod_{p<=x} (1 + 1/p) over 2,3,5,7: (3/2)(4/3)(6/5)(8/7)
    assert psi_product_exact(2) == Fraction(3, 2)


def test_rational_identity():
    # sum_{n<=x squarefree} 1/n = prod_{p<=x} (1+1/p) - sum over the
    # squarefree divisors of prod p exceeding x of 1/d
    for x in range(2, 21):
        lhs = squarefree_harmonic_exact(x)
        rhs = psi_product_exact(x) - primorial_divisor_tail(x)
        assert lhs == rhs, x


def test_tail_values():
    assert primorial_divisor_tail(2) == Fraction(0)
    assert primorial_divisor_tail(6) == Fraction(1, 5)
    assert primorial_divisor_tail(10) == Fraction(3, 10)


def test_tail_type_hints_resolve():
    assert typing.get_type_hints(primorial_divisor_tail) == {
        "x": int, "return": Rational}


def test_tail_domain():
    with pytest.raises(ValueError):
        primorial_divisor_tail(1)
    with pytest.raises(ValueError):
        primorial_divisor_tail(53)
