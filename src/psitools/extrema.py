"""Primorial scan, threshold classification, and extreme-value checks.

The primorial N_k = 2*3*...*p_k overflows fixed-width integers near
k = 15, so everything here stays in the log domain: log N_k = theta(p_k)
is a compensated prefix sum of log p, and the ratio psi(N_k)/N_k =
prod(1 + 1/p) lives as exp of a compensated log sum.  primorial_stream
is the one source of every per-k value: it turns the chunks of
sieve.prime_chunks into chunks of rows, each sum one CompensatedSum
carried across chunks.  Its consumers (verify-psi, jump_chunks and
loglog_gap_chunks) hold one chunk at a time, and nothing here fills a
whole column.  N_k/phi(N_k) is mertens.euler_product_inv_grid at
x = p_k.

The per-n psi(n)/n functions (extremes, classification, tail fractions)
stream sieve.psi_blocks and read each block in 2**16-value slices; each
returns the rows its subcommand writes, x first.
"""
from __future__ import annotations

from math import isnan, log
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .constants import get_constant
from .sieve import grid_rows, prime_chunks, psi_blocks
from .summation import _CHUNK, CompensatedSum, chunked

__all__ = [
    "primorial_stream",
    "jump_chunks",
    "psi_ratio_extremes_grid",
    "classify_counts",
    "loglog_gap_chunks",
    "distribution_tail",
    "worst_gap",
]

_THRESHOLD = get_constant("threshold").value
_GAP_ALPHA = get_constant("gap_alpha").value


def primorial_stream(prime_chunks: Iterable[np.ndarray]
                     ) -> Iterator[dict[str, np.ndarray]]:
    """Per-k columns of the primorials N_k, one chunk per chunk of primes.

    prime_chunks are the primes p_1 = 2, p_2 = 3, ... in ascending
    order, cut anywhere; empty chunks are skipped.  Each column chunk
    holds p (= p_k, the chunk itself), log_N (theta(p_k), the
    compensated prefix of log p), psi_ratio (prod_{p <= p_k}(1 + 1/p) as
    exp of a compensated log sum), loglog_N, threshold
    ((6 e^gamma / pi^2) loglog_N) and margin (psi_ratio - threshold), in
    that order.  Both compensated sums carry across chunks, so every cut
    gives the same bits.
    """
    log_n_sum, ratio_sum = CompensatedSum(), CompensatedSum()
    for p in filter(len, prime_chunks):
        f = p.astype(np.float64)
        log_n = log_n_sum.add(np.log(f))
        psi_ratio = np.exp(ratio_sum.add(np.log1p(1.0 / f)))
        loglog_n = np.log(log_n)
        threshold = _THRESHOLD * loglog_n
        yield {"p": p, "log_N": log_n, "psi_ratio": psi_ratio,
               "loglog_N": loglog_n, "threshold": threshold,
               "margin": psi_ratio - threshold}


def jump_chunks(kmax: int
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(k, p_{k+1}, delta) chunks for k = 1..kmax: delta, the increase
    of psi(N)/N from primorial k to k+1, is (psi(N_k)/N_k) / p_{k+1},
    from one primorial_stream over the first kmax + 1 primes.

    Each delta is checked against ratio_k * expm1(log1p(1/p_{k+1})), the
    difference by its exact exponent increment (subtracting two rounded
    ratios loses the jump in rounding noise once p_{k+1} is large); a
    disagreement beyond 1e-12 relative, or a NaN, raises
    FloatingPointError naming the first such k."""
    kmax = int(kmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    # row k pairs ratio_k with p_{k+1}: a chunk's primes follow the last
    # ratio of the chunk before (none before the first)
    k, last = 1, np.zeros(0)
    for cols in primorial_stream(prime_chunks(count=kmax + 1)):
        ratio = np.concatenate((last, cols["psi_ratio"][:-1]))
        p_next = cols["p"][len(cols["p"]) - len(ratio):]
        last = cols["psi_ratio"][-1:]
        after = p_next.astype(np.float64)
        difference = ratio * np.expm1(np.log1p(1.0 / after))
        closed = ratio / after
        bad = np.flatnonzero(~(np.abs(difference - closed) <= 1e-12 * closed))
        if bad.size:
            i = int(bad[0])
            raise FloatingPointError(
                f"jump forms disagree at k={k + i}: "
                f"{difference[i]} vs {closed[i]}")
        yield np.arange(k, k + len(closed)), p_next, closed
        k += len(closed)


def _ratio_blocks(lo: int, hi: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(n as float64, psi(n)/n) for n in [lo, hi), _CHUNK values at a time.

    Each psi block is cut into _CHUNK-value slices, and the n and ratios
    are made per slice, so the only block-sized array is the psi block,
    which its sieve fills in place; the finished block is dropped before
    the next one is sieved.
    """
    for first, psi in psi_blocks(lo, hi):
        for a, part in zip(range(first, first + len(psi), _CHUNK),
                           chunked(psi)):
            ns = np.arange(a, a + len(part), dtype=np.float64)
            yield ns, part / ns
        del psi, part


def _thresholds(ns: np.ndarray) -> np.ndarray:
    """_THRESHOLD * log log n, made in one array."""
    t = np.log(ns)
    np.log(t, out=t)
    t *= _THRESHOLD
    return t


def _ratio_grid(xs: Iterable[int],
                add: Callable[[np.ndarray, np.ndarray], None],
                row: Callable[[int], tuple]) -> list[tuple]:
    """sieve.grid_rows over the _ratio_blocks of [2, max(xs)]."""
    return grid_rows(xs, 2, lambda top: _ratio_blocks(2, top + 1), add, row)


def psi_ratio_extremes_grid(
        xs: Iterable[int]) -> list[tuple[int, int, float, int, float]]:
    """Brute-force argmax/argmin of psi(n)/n over 2 <= n <= x, for every
    x in xs (x <= 2**40), from one pass over psi.

    A running argmax and argmin over the sorted xs.  A later run of n
    replaces the best only when strictly better, so ties resolve to the
    smallest n as in a single argmax/argmin over [2, x] (equal rationals
    round to identical floats, and argmax/argmin take the first hit).

    Returns:
        (x, max_n, max_ratio, min_n, min_ratio) for each x, in the order
        of xs.
    """
    max_n = min_n = 0
    max_ratio, min_ratio = -np.inf, np.inf

    def add(ns: np.ndarray, ratios: np.ndarray) -> None:
        nonlocal max_n, max_ratio, min_n, min_ratio
        hi = int(np.argmax(ratios))
        lo = int(np.argmin(ratios))
        if ratios[hi] > max_ratio:
            max_n, max_ratio = int(ns[hi]), float(ratios[hi])
        if ratios[lo] < min_ratio:
            min_n, min_ratio = int(ns[lo]), float(ratios[lo])

    return _ratio_grid(xs, add,
                       lambda x: (x, max_n, max_ratio, min_n, min_ratio))


def classify_counts(
        xs: Iterable[int]) -> list[tuple[int, int, int, float]]:
    """Split [2, x] by psi(n)/n against its threshold, for every x in xs.

    above counts the n with psi(n)/n > (6 e^gamma / pi^2) log log n,
    strictly; exact float equality lands in below.  n = 2 starts the
    domain (log log is undefined at 1) and its negative threshold puts
    it above.  One pass over psi to max(xs) <= 2**40; the above counts
    of the intervals between the sorted xs are summed.

    Returns:
        (x, above, below, x / log x) for each x, in the order of xs.
    """
    above = 0

    def add(ns: np.ndarray, ratios: np.ndarray) -> None:
        nonlocal above
        # the thresholds rise with n, so only a ratio above the first
        # n's threshold (less 1e-9 for the rounding of log) can beat its
        # own: about 0.8% of the n to 1e7
        near = ratios > _thresholds(ns[:1])[0] - 1e-9
        above += int(np.count_nonzero(ratios[near] > _thresholds(ns[near])))

    return _ratio_grid(xs, add,
                       lambda x: (x, above, x - 1 - above, x / log(x)))


def _gaps(p: np.ndarray, log_n: np.ndarray) -> np.ndarray:
    """log log p - log log log_n by math.log, as np.log may round apart."""
    return np.array([log(log(q)) - log(log(n))
                     for q, n in zip(p.tolist(), log_n.tolist())])


def loglog_gap_chunks(kmax: int | None = None, ks: Sequence[int] = ()
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(k, p_k, gap) chunks of log log p_k - log log log N_k: one chunk
    for the ks, in their own order, then every k in [2, kmax] ascending.

    Defined for k >= 2 only: at k = 1, log N_1 = log 2 < 1 makes the
    innermost logarithm negative.  Each part is one primorial_stream
    pass over sieve.prime_chunks, and both are sized and checked before
    any row is built.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if not ks.size and kmax is None:
        raise ValueError("ks must be nonempty, or kmax given")
    if (ks < 2).any():
        raise ValueError(
            f"k must be >= 2 (inner log undefined), got {ks[ks < 2][0]}")
    if kmax is not None and kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    passes = []
    if ks.size:  # a set, not np.unique, which imports numpy.ma (~18 ms)
        passes.append((np.array(sorted(set(ks.tolist())), np.int64),
                       prime_chunks(count=int(ks.max()))))
    if kmax is not None:
        passes.append((None, prime_chunks(count=kmax)))
    for want, primes in passes:
        start, parts = 0, []
        for cols in primorial_stream(primes):
            end = start + len(cols["p"])
            k = (np.arange(max(start, 1) + 1, end + 1) if want is None else
                 want[np.searchsorted(want, start, "right"):
                      np.searchsorted(want, end, "right")])
            p, log_n = cols["p"][k - 1 - start], cols["log_N"][k - 1 - start]
            parts.append((k, p, _gaps(p, log_n)))
            if want is None:
                yield parts.pop()
            start = end
        if want is not None:  # back to the order of ks, repeats included
            at = np.searchsorted(want, ks)
            yield ks, *(np.concatenate(c)[at] for c in list(zip(*parts))[1:])


def distribution_tail(x: int, t_grid) -> list[tuple[int, float, float]]:
    """(x, t, fraction): the fraction of n in [2, x] with psi(n)/n > t,
    for each t in t_grid.

    Strict inequality: an exact hit like psi(6)/6 = 2 at t = 2 is
    excluded.  x runs to 2**40; t = -inf and +inf give fractions 1 and
    0, and a NaN t is a ValueError.
    """
    t_list = [float(t) for t in t_grid]
    if not t_list:
        raise ValueError("t_grid must be nonempty")
    if any(isnan(t) for t in t_list):
        raise ValueError(f"t must not be NaN, got {t_list}")
    counts = [0] * len(t_list)

    def add(_, ratios: np.ndarray) -> None:
        for i, t in enumerate(t_list):
            counts[i] += int(np.count_nonzero(ratios > t))

    (fractions,) = _ratio_grid([x], add, lambda x: [
        (x, t, count / (x - 1)) for t, count in zip(t_list, counts)])
    return fractions


def worst_gap(p_limit: int) -> tuple[int, int, int, float]:
    """(k, p_k, p_{k+1}, score) at the first k that maximizes the score
    (p_{k+1} - p_k) / p_k^0.526 over consecutive primes <= p_limit >= 3,
    from one pass over sieve.prime_chunks that carries each chunk's last
    prime into the next.

    p_{k+1} < p_k + p_k^0.526 holds for every pair exactly when the score
    is below 1.  The bound is asymptotic, so small ranges contain honest
    violations (already at the pair 7, 11), which the score reports
    rather than masks.
    """
    p_limit = int(p_limit)
    if p_limit < 3:
        raise ValueError(f"p_limit must be >= 3, got {p_limit}")
    best, k, last = (0, 0, 0, -np.inf), 0, np.zeros(0)
    for c in prime_chunks(p_limit):
        f = np.concatenate((last, c))  # float64, exact below 2**53
        scores = (f[1:] - f[:-1]) / f[:-1] ** _GAP_ALPHA
        i = int(np.argmax(scores))
        if scores[i] > best[3]:
            best = (k + i + 1, int(f[i]), int(f[i + 1]), float(scores[i]))
        k, last = k + len(scores), f[-1:]
    return best

