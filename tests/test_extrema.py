import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from psitools import build_sieve, extrema
from psitools.arith import profile
from psitools.constants import get_constant
from psitools.extrema import (
    classify_counts,
    distribution_tail,
    jump_chunks,
    loglog_gap_chunks,
    psi_ratio_extremes_grid,
    worst_gap,
)
from psitools.sieve import MAX_LIMIT, SEGMENT_SIZE, psi_blocks
from psitools.summation import CompensatedSum

from conftest import plain_primes, primorial_columns


def _row(cols, k):
    """Row k (from 1) of the primorial columns as Python numbers by
    column."""
    return {name: col[k - 1].item() for name, col in cols.items()}


def test_primorial_first_records():
    cols = primorial_columns(7)
    assert sorted(cols) == sorted(
        ["p", "log_N", "psi_ratio", "loglog_N", "threshold", "margin"])
    assert all(len(col) == 4 for col in cols.values())
    k1, k2, k3, k4 = (_row(cols, k) for k in range(1, 5))

    assert k1["p"] == 2
    assert k1["log_N"] == pytest.approx(math.log(2), abs=0.0)
    assert k1["psi_ratio"] == 1.5
    assert k1["loglog_N"] == pytest.approx(-0.36651292058166435, rel=1e-14)
    assert k1["threshold"] == pytest.approx(-0.39684633374746997, rel=1e-14)
    assert k1["margin"] == pytest.approx(1.89684633374747, rel=1e-14)

    assert (k2["p"], k3["p"], k4["p"]) == (3, 5, 7)
    assert k2["psi_ratio"] == pytest.approx(2.0, rel=1e-15)
    assert k2["margin"] == pytest.approx(1.368535166946206, rel=1e-13)
    assert k4["psi_ratio"] == pytest.approx(96 / 35, rel=1e-15)
    assert k4["log_N"] == pytest.approx(math.fsum(math.log(p) for p in (2, 3, 5, 7)), rel=1e-15)
    assert k4["margin"] == pytest.approx(0.9275459442779923, rel=1e-13)
    # reference table rounds the k=4 threshold to 1.815301; true value differs ~1e-5
    assert k4["threshold"] == pytest.approx(1.8153111985791506, rel=1e-13)
    assert k4["threshold"] == pytest.approx(1.815301, abs=5e-5)


def test_primorial_columns_exact_oracle(tables_1e4):
    # every k <= 1000 against exact rationals and correctly rounded sums
    cols = primorial_columns(int(tables_1e4.primes[999]))
    assert len(cols["p"]) == 1000
    primes = tables_1e4.primes[:1000].tolist()
    logs = [math.log(p) for p in primes]
    product = Fraction(1)
    for k, p in enumerate(primes, start=1):
        product *= Fraction(p + 1, p)
        ratio = Fraction(float(cols["psi_ratio"][k - 1]))
        assert abs(ratio - product) <= Fraction(1e-14) * product, k
        log_n = math.fsum(logs[:k])
        assert abs(float(cols["log_N"][k - 1]) - log_n) <= 1e-14 * log_n, k


def _whole_columns(primes):
    """The primorial columns over the int64 primes, each sum one
    compensated prefix over the whole array: the stream's reference."""
    ps = primes.astype(np.float64)
    log_n = CompensatedSum().add(np.log(ps))
    psi_ratio = np.exp(CompensatedSum().add(np.log1p(1.0 / ps)))
    threshold = get_constant("threshold").value * np.log(log_n)
    return {"p": primes, "log_N": log_n, "psi_ratio": psi_ratio,
            "loglog_N": np.log(log_n), "threshold": threshold,
            "margin": psi_ratio - threshold}


def _assert_same_bits(got, expect):
    assert list(got) == list(expect)
    for name, column in expect.items():
        assert got[name].dtype == column.dtype, name
        assert np.array_equal(got[name].view(np.int64),
                              column.view(np.int64)), name


def test_primorial_stream_gives_the_same_bits_for_any_cut(tables_1e5):
    # the whole-array prefix sums are the reference; the stream carries
    # both compensated sums across uneven cuts and skips empty chunks
    primes = tables_1e5.primes
    expect = _whole_columns(primes)
    cuts = [0, 1, 1, 2, 3, 100, 4096, 4097, 9000, len(primes)]
    chunks = list(extrema.primorial_stream(
        primes[a:b] for a, b in zip(cuts[:-1], cuts[1:])))
    assert [len(c["p"]) for c in chunks] == [1, 1, 1, 97, 3996, 1, 4903,
                                             len(primes) - 9000]
    _assert_same_bits({name: np.concatenate([c[name] for c in chunks])
                       for name in expect}, expect)


@pytest.mark.parametrize("p_limit", [
    2, 38_867, 38_873, 38_891, SEGMENT_SIZE + 100,
], ids=["2", "p_4095", "p_4096", "p_4097", "past_one_block"])
def test_primorial_columns_match_the_joined_stream_at_seams(p_limit):
    # p_4096 = 38873 ends the first 2^12-prime chunk exactly; its
    # neighbours end one short of it and one into the next chunk.  The
    # stream over prime_chunks' own cuts, joined, has the bits of the
    # columns computed whole over a plain sieve's primes
    cols = primorial_columns(p_limit)
    assert len(cols["p"]) == sympy.primepi(p_limit)
    _assert_same_bits(cols, _whole_columns(plain_primes(p_limit)))


def test_primorial_monotonicity():
    cols = primorial_columns(1_000_000)
    assert len(cols["p"]) == 78_498
    assert bool(np.all(np.diff(cols["psi_ratio"]) > 0))
    assert bool(np.all(np.diff(cols["log_N"]) > 0))
    assert bool(np.all(np.diff(cols["margin"][9:]) < 0))


def test_upper_bound_violations_per_n():
    # R(n) = psi(n) / (n log log n) < e^gamma for every n >= 31 (Sole and
    # Planat): per-n over [3, 1e6], independent of the primorial columns
    e_gamma = get_constant("e_gamma").value
    above, best = [], (0.0, 0)
    for first, psi in psi_blocks(3, 10 ** 6 + 1):
        n = np.arange(first, first + len(psi))
        r = psi / (n * np.log(np.log(n)))
        above += n[r >= e_gamma].tolist()
        i = int(np.argmax(np.where(n >= 31, r, 0.0)))
        best = max(best, (float(r[i]), int(n[i])))
    assert above == [3, 4, 5, 6, 8, 10, 12, 18, 30]
    # the largest R past 30 is at 42 = 2 * 3 * 7, not at a primorial
    assert best[1] == 42
    assert best[0] == pytest.approx(1.73362, abs=1e-5)


def test_upper_bound_on_primorial_columns():
    # R is largest on [N_k, N_{k+1}) at N_k, so R(N_k) < e^gamma for k >= 4
    # (N_4 = 210) covers every n in [210, N_78499)
    cols = primorial_columns(1_000_000)
    r = cols["psi_ratio"] / cols["loglog_N"]
    e_gamma = get_constant("e_gamma").value
    assert bool(np.all(r[3:] < e_gamma))
    # N_2 = 6 and N_3 = 30 are among the exceptions (R(2) < 0)
    assert bool(np.all(r[1:3] >= e_gamma))
    assert float(r[3:].max()) == pytest.approx(1.63601, abs=1e-5)


def _upper_ratio(psi_over_n: Fraction, log_n) -> mpmath.mpf:
    """R = (psi(n) / n) / log log n in mpmath, from the exact psi(n) / n."""
    return (mpmath.mpf(psi_over_n.numerator) / psi_over_n.denominator
            / mpmath.log(log_n))


def test_upper_bound_finite_part_exact():
    # the finite part of the proof that R(n) = psi(n) / (n log log n) <
    # e^gamma for every n >= 31, in exact rationals and mpmath at 30
    # digits.  R is largest on [N_k, N_{k+1}) at N_k, so n >= 210 needs
    # R(N_k) < e^gamma for k >= 4; the tail covers p_k >= 286, that is
    # k >= 62 (p_61 = 283, p_62 = 293)
    assert (sympy.prime(61), sympy.prime(62)) == (283, 293)
    with mpmath.workdps(30):
        e_gamma = mpmath.exp(mpmath.euler)
        ratio, log_n, primorial = Fraction(1), mpmath.mpf(0), {}
        for k, p in enumerate(sympy.primerange(2, 294), 1):
            ratio *= Fraction(p + 1, p)
            log_n += mpmath.log(p)
            if k >= 4:
                primorial[k] = _upper_ratio(ratio, log_n)
        below = {n: _upper_ratio(math.prod(Fraction(p + 1, p) for p in
                                           sympy.primefactors(n)),
                                 mpmath.log(n))
                 for n in range(31, 210)}
    assert sorted(primorial) == list(range(4, 63))
    k, worst = max(primorial.items(), key=lambda item: item[1])
    assert k == 4 and worst < e_gamma
    assert mpmath.nstr(worst, 8) == "1.6360071"  # R(210)
    assert mpmath.nstr(e_gamma - worst, 5) == "0.14507"
    n, worst = max(below.items(), key=lambda item: item[1])
    assert n == 42 and worst < e_gamma
    assert mpmath.nstr(worst, 8) == "1.7336212"


def test_upper_bound_tail_majorant():
    # the tail of that proof: for x >= 286, Rosser and Schoenfeld (1962)
    # give prod_{p <= x} p / (p - 1) < e^gamma L (1 + 1 / (2 L^2)), L =
    # log x, and theta(x) > x (1 - 1 / L) for x >= 41; with prod (1 -
    # 1 / p^2) <= 3 / 4, R(N_k) < f(p_k) e^gamma for p_k >= 286, where
    # f(x) = 3/4 L (1 + 1 / (2 L^2)) / log(x (1 - 1 / L))
    def f(x):
        big_l = mpmath.log(x)
        return (mpmath.mpf(3) / 4 * big_l * (1 + 1 / (2 * big_l ** 2))
                / mpmath.log(x * (1 - 1 / big_l)))

    with mpmath.workdps(30):
        spot = [f(mpmath.mpf(x)) for x in (286, 10 ** 3, 10 ** 6, 10 ** 12)]
        # a geometric grid of 400 points from 286 to 1e12
        grid = [f(mpmath.exp(t)) for t in mpmath.linspace(
            mpmath.log(286), mpmath.log(10 ** 12), 400)]
    assert [mpmath.nstr(v, 6) for v in spot] == [
        "0.788858", "0.775413", "0.756077", "0.751494"]
    assert spot[0] < 0.789
    assert all(a > b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("x, argmax_set", [
    (100, [30, 60, 90]),
    (10 ** 4, [2_310, 4_620, 6_930, 9_240]),
    (10 ** 6, [510_510]),
])
def test_psi_ratio_maximisers_are_the_primorial_radicals(x, argmax_set):
    # the n <= x that maximise psi(n)/n are exactly those with rad(n) = N_k,
    # N_k the largest primorial <= x; equal rationals round to equal floats
    best, at = 0.0, []
    for first, psi in psi_blocks(2, x + 1):
        n = np.arange(first, first + len(psi))
        ratios = psi / n
        top = float(ratios.max())
        if top > best:
            best, at = top, []
        if top == best:
            at += n[ratios == top].tolist()
    assert at == argmax_set
    primorial = 1
    for p in sympy.primerange(2, x):
        if primorial * p > x:
            break
        primorial *= p
    assert at == [n for n in range(primorial, x + 1, primorial)
                  if math.prod(sympy.primefactors(n)) == primorial]


def jump_delta_reference(k, tables):
    """The former per-k jump, O(k) work for one k: jump_chunks reference."""
    ps = tables.primes[:k].astype(np.float64)
    ratio_k = float(np.exp(CompensatedSum().add(np.log1p(1.0 / ps))[-1]))
    p_next = int(tables.primes[k])
    difference = ratio_k * math.expm1(math.log1p(1.0 / p_next))
    closed = ratio_k / p_next
    assert abs(difference - closed) <= 1e-12 * closed
    return closed


def test_jump_delta(tables_1e4):
    _, _, deltas = next(jump_chunks(3))
    assert deltas[0] == pytest.approx(0.5, rel=1e-15)
    assert deltas[1] == pytest.approx(0.4, rel=1e-15)
    assert deltas[2] == pytest.approx(2.4 / 7, rel=1e-14)
    with pytest.raises(ValueError):
        next(jump_chunks(0))
    with pytest.raises(ValueError, match="2\\*\\*40"):
        next(jump_chunks(10 ** 11))
    # the last prime below 1e4, p_1229, is the look-ahead of k = 1228
    _, p_next, deltas = next(jump_chunks(len(tables_1e4.primes) - 1))
    assert len(deltas) == 1228 and p_next[-1] == tables_1e4.primes[-1]


def test_jump_deltas_match_per_k_reference(tables_1e6):
    # bitwise equal to the per-k computation, every k <= 2000 and sampled
    # k up to the last one the 1e6 tables allow
    deltas = np.concatenate([delta for *_, delta in jump_chunks(78_497)])
    assert len(deltas) == 78_497
    sampled = list(range(1, 2001)) + list(range(2001, 78_497, 997)) + [78_497]
    for k in sampled:
        assert deltas[k - 1] == jump_delta_reference(k, tables_1e6), k


def test_jump_deltas_cross_check_names_first_bad_k(monkeypatch):
    # a column that breaks the expm1/log1p form from k = 3 on
    real = extrema.primorial_stream

    def skewed(prime_chunks):
        for cols in real(prime_chunks):
            cols["psi_ratio"][2:] = np.nan
            yield cols

    monkeypatch.setattr(extrema, "primorial_stream", skewed)
    with pytest.raises(FloatingPointError, match="k=3:"):
        next(jump_chunks(10))


def test_jump_matches_columns():
    ratios = primorial_columns(100)["psi_ratio"]
    _, _, deltas = next(jump_chunks(24))
    assert deltas == pytest.approx(np.diff(ratios), rel=1e-12)


def test_extremes():
    assert psi_ratio_extremes_grid([10, 100, 2, 4]) == [
        (10, 6, 2.0, 7, pytest.approx(8 / 7)),
        (100, 30, pytest.approx(2.4), 97, pytest.approx(1.0103092783505154)),
        (2, 2, 1.5, 2, 1.5),
        # ties resolve to the smallest n: psi(2)/2 = psi(4)/4 = 3/2
        (4, 2, 1.5, 3, pytest.approx(4 / 3))]


def test_extremes_hit_primorials_and_primes():
    # maxima occur at primorials, minima at the largest prime
    [(_, max_n, max_ratio, min_n, min_ratio)] = psi_ratio_extremes_grid(
        [10_000])
    assert max_n == 2 * 3 * 5 * 7 * 11
    assert max_ratio == pytest.approx(profile(max_n).psi / max_n, rel=1e-15)
    assert min_n == 9973  # largest prime below 10^4
    assert min_ratio == pytest.approx(1 + 1 / 9973, rel=1e-15)


def test_classify_counts():
    assert classify_counts([10, 1_000]) == [
        (10, 9, 0, 10 / math.log(10)),
        (1_000, 199, 800, 1_000 / math.log(1_000))]


def above_steps(x):
    """n -> whether n is above, for n in [2, x], from the steps of the counts."""
    aboves = [0] + [above for _, above, _, _ in
                    classify_counts(range(2, x + 1))]
    return {n: aboves[n - 1] > aboves[n - 2] for n in range(2, x + 1)}


def test_classify_records():
    steps = above_steps(20)
    [(_, above, below, _)] = classify_counts([20])
    assert len(steps) == above + below == 19
    assert sum(steps.values()) == above
    assert steps[2] and steps[13] and not steps[17]
    threshold = get_constant("threshold").value
    assert 14 / 13 > threshold * math.log(math.log(13))
    assert 18 / 17 < threshold * math.log(math.log(17))


def test_classify_strict_inequality(monkeypatch):
    # a flat threshold of 2 is met exactly by psi(6)/6 = psi(12)/12 = 2,
    # and exact equality counts as below: the comparison is strict
    monkeypatch.setattr(extrema, "_thresholds", lambda ns: np.full_like(ns, 2.0))
    steps = above_steps(100)
    assert not steps[6] and not steps[12] and steps[30]
    for n, above in steps.items():
        assert above == (Fraction(profile(n).psi, n) > 2), n


def test_classify_counts_match_a_brute_count_over_every_n():
    # every n against the whole _thresholds array of its psi block, with
    # no lower bound taken first: classify_counts' prefilter skips none,
    # n = 2 (negative threshold) included
    xs = [2, 3, 1 << 16, (1 << 16) + 1, 10 ** 6, 10 ** 7]
    above, counts = 0, {}
    for first, psi in psi_blocks(2, xs[-1] + 1):
        ns = np.arange(first, first + len(psi), dtype=np.float64)
        hits = np.cumsum(psi / ns > extrema._thresholds(ns)) + above
        for x in xs:
            if first <= x < first + len(psi):
                counts[x] = int(hits[x - first])
        above = int(hits[-1])
    assert extrema._thresholds(np.array([2.0]))[0] < 0 < counts[2] == 1
    assert classify_counts(xs) == [
        (x, counts[x], x - 1 - counts[x], x / math.log(x)) for x in xs]


def test_classify_domain():
    with pytest.raises(ValueError):
        classify_counts([1])


GRID = [500, 2, 97, 500, 30, 2_310, 1_000, 97]  # unsorted, repeated, x = 2


def brute_extremes(x):
    # exact rationals; max/min keep the first, so ties go to the smallest n
    ratios = [(Fraction(profile(n).psi, n), n)
              for n in range(2, x + 1)]
    hi = max(ratios, key=lambda r: r[0])
    lo = min(ratios, key=lambda r: r[0])
    return x, hi[1], float(hi[0]), lo[1], float(lo[0])


def test_extremes_grid_matches_scalar_and_oracle():
    assert psi_ratio_extremes_grid(GRID) == [brute_extremes(x) for x in GRID]


def test_extremes_grid_ties_across_intervals():
    # psi(12)/12 = psi(18)/18 = 2 = psi(6)/6: the later interval keeps 6
    assert psi_ratio_extremes_grid([10, 20]) == [
        (10, 6, 2.0, 7, 8 / 7), (20, 6, 2.0, 19, 20 / 19)]


def test_classify_counts_match_scalar_and_records():
    rows = classify_counts(GRID)
    assert rows == [classify_counts([x])[0] for x in GRID]
    labels = list(above_steps(max(GRID)).values())
    assert rows == [(x, sum(labels[:x - 1]), x - 1 - sum(labels[:x - 1]),
                     x / math.log(x)) for x in GRID]


def test_grids_stream_psi_once(monkeypatch):
    # one pass over [2, max(xs)], cut at every x, however many xs
    calls = []

    def counting(lo, hi):
        calls.append((lo, hi))
        return psi_blocks(lo, hi)

    monkeypatch.setattr(extrema, "psi_blocks", counting)
    psi_ratio_extremes_grid(GRID)
    classify_counts(range(2, 101))
    assert calls == [(2, max(GRID) + 1), (2, 101)]


def test_grids_across_segments_match_whole_arrays(psi_past_two_segments):
    # the pre-block reading: one float array over [2, x], one argmax/argmin,
    # with psi from the oracle; the x cut blocks, and 2^16-value slices
    # one and two past an edge, on one and one short of a block's end
    xs = [2 * SEGMENT_SIZE + 5, SEGMENT_SIZE + 1, 3, SEGMENT_SIZE + 1,
          (1 << 16) + 1, (1 << 16) + 2, 3 << 16, SEGMENT_SIZE - 1]
    psi = psi_past_two_segments
    expected_ext, expected_cls = [], []
    ts = [0.0, 1.5, 2.0]
    for x in xs:
        ns = np.arange(2, x + 1, dtype=np.float64)
        ratios = psi[2:x + 1] / ns
        hi, lo = int(np.argmax(ratios)), int(np.argmin(ratios))
        expected_ext.append((x, hi + 2, float(ratios[hi]),
                             lo + 2, float(ratios[lo])))
        threshold = get_constant("threshold").value * np.log(np.log(ns))
        above = int(np.count_nonzero(ratios > threshold))
        expected_cls.append((x, above, x - 1 - above, x / math.log(x)))
        # t = 0 counts every n: a block that skipped one would read < 1
        assert distribution_tail(x, ts) == [
            (x, t, np.count_nonzero(ratios > t) / (x - 1)) for t in ts]
    assert psi_ratio_extremes_grid(xs) == expected_ext
    assert classify_counts(xs) == expected_cls


@pytest.mark.parametrize("grid", [
    lambda x: classify_counts([x]),
    lambda x: psi_ratio_extremes_grid([x]),
    lambda x: distribution_tail(x, [1.9]),
], ids=["classify_counts", "psi_ratio_extremes_grid", "distribution_tail"])
def test_ratio_grids_hold_one_psi_block(grid):
    # one int32 psi block (4 bytes per n), sieved in place, is the only
    # block-sized array; the n, the ratios and the thresholds come 2^16
    # values at a time, and each block is freed before the next is
    # sieved (a found product beside it, or two blocks, pass 10)
    tracemalloc.start()
    try:
        grid(3 * SEGMENT_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * SEGMENT_SIZE, peak


def test_grid_domain():
    for grid in (psi_ratio_extremes_grid, classify_counts):
        with pytest.raises(ValueError):
            grid([])
        with pytest.raises(ValueError):
            grid([10, 1])
        with pytest.raises(ValueError):
            grid([10, MAX_LIMIT + 1])
    with pytest.raises(ValueError):
        distribution_tail(MAX_LIMIT + 1, [2.0])


def test_loglog_gap():
    _, _, (g2, g3, g4) = next(loglog_gap_chunks(ks=[2, 3, 4]))
    assert g2 == pytest.approx(0.6332762167488643, rel=1e-13)
    assert g3 == pytest.approx(0.2736566167458503, rel=1e-13)
    assert g4 == pytest.approx(0.14898826071745164, rel=1e-13)
    # reference digits 0.273699 / 0.14909 carry ~1e-4 rounding slack
    assert g3 == pytest.approx(0.273699, abs=1e-4)
    assert g4 == pytest.approx(0.14909, abs=2e-4)
    # the ks come back in their own order, repeats included
    ks, _, gaps = next(loglog_gap_chunks(ks=[4, 2, 4]))
    assert ks.tolist() == [4, 2, 4] and gaps.tolist() == [g4, g2, g4]
    for ks in ([1], [3, 1], []):
        with pytest.raises(ValueError):
            next(loglog_gap_chunks(ks=ks))


def loglog_gap_reference(k, tables):
    """The former per-k gap, O(k) work for one k: loglog_gap_chunks
    reference."""
    ps = tables.primes[:k].astype(np.float64)
    log_n = float(CompensatedSum().add(np.log(ps))[-1])
    return math.log(math.log(int(tables.primes[k - 1]))) - math.log(
        math.log(log_n))


def test_loglog_gap_matches_per_k_reference(tables_1e5):
    # bitwise, every k <= 2000
    _, _, gaps = next(loglog_gap_chunks(ks=range(2, 2_001)))
    assert gaps.tolist() == [loglog_gap_reference(k, tables_1e5)
                             for k in range(2, 2_001)]


def test_loglog_gap_holds_one_log_n_column():
    # p_k and log_N are read chunk by chunk at the ks wanted: one
    # chunk's temporaries, far below 16 bytes per prime, and not the six
    # whole primorial columns
    tables = build_sieve(10 ** 7)
    top = len(tables.primes)
    tracemalloc.start()
    try:
        _, _, (gap,) = next(loglog_gap_chunks(ks=[top]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * top, peak
    assert gap == loglog_gap_reference(top, tables)


def test_loglog_gap_shrinks():
    # positive everywhere; oscillates with the gaps, but the envelope decays
    _, _, gaps = next(loglog_gap_chunks(ks=range(2, 200)))
    assert all(g > 0 for g in gaps)
    assert max(gaps[100:]) < min(gaps[:3])


def test_distribution_tail():
    out = distribution_tail(10, [1.0, 1.9, 2.0])
    assert out[0] == (10, 1.0, pytest.approx(1.0))
    assert out[1] == (10, 1.9, pytest.approx(1 / 9))
    assert out[2] == (10, 2.0, 0.0)  # psi(6)/6 = 2 exactly: strict tail excludes it
    with pytest.raises(ValueError):
        distribution_tail(10, [])


def test_distribution_tail_infinite_and_nan_thresholds():
    inf = math.inf
    assert distribution_tail(10, [-inf, inf]) == [(10, -inf, 1.0),
                                                  (10, inf, 0.0)]
    for ts in ([math.nan], [2.0, float("nan")]):
        with pytest.raises(ValueError, match="NaN"):
            distribution_tail(10, ts)


def test_distribution_tail_monotone():
    grid = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 2.75]
    out = distribution_tail(1_000, grid)
    fracs = [f for _, _, f in out]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[0] == 1.0
    # n = 210 reaches 96/35 = 2.7428...; nothing below 1000 clears 2.75
    assert fracs[-2] == pytest.approx(12 / 999)
    assert fracs[-1] == 0.0


def test_gap_exponent_check():
    # the bound p_{k+1} < p_k + p_k^0.526 holds for every pair exactly
    # when the worst score is below 1; (worst score < 1, worst k) per
    # p_limit: the first pair stays within it ...
    checks = [(score < 1, k) for k, _, _, score in
              map(worst_gap, (3, 5, 11, 150, 10_000))]
    # ... but (3,5) and then (7,11) exceed it: honest small-range violations
    assert checks == [(True, 1), (False, 2), (False, 4), (False, 4),
                      (False, 4)]
    assert worst_gap(11)[1:3] == (7, 11)
    with pytest.raises(ValueError):
        worst_gap(2)
