import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from psitools import build_sieve
from psitools.arith import profile
from psitools.cli import main
from psitools.extrema import primorial_stream
from psitools.sieve import SEGMENT_SIZE, prime_chunks


@pytest.fixture(scope="session")
def tables_1e4():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def tables_1e5():
    return build_sieve(100_000)


@pytest.fixture(scope="session")
def tables_1e6():
    return build_sieve(1_000_000)


@pytest.fixture(scope="session")
def tables_2e6():
    # just over two SEGMENT_SIZE blocks, so block-wise code crosses two
    # block boundaries
    return build_sieve(2_200_000)


def plain_primes(x):
    """The primes <= x by a plain bool sieve, independent of psitools."""
    marks = np.ones(x + 1, dtype=bool)
    marks[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if marks[p]:
            marks[p * p::p] = False
    return np.flatnonzero(marks)


def squarefree_upto(x):
    """The squarefree n in [1, x] (mu(n) != 0), ascending: a plain bool
    sieve strikes the multiples of p^2 for each prime p <= sqrt(x)."""
    marks = np.ones(x + 1, dtype=bool)
    marks[0] = False
    for p in plain_primes(math.isqrt(x)).tolist():
        marks[p * p::p * p] = False
    return np.flatnonzero(marks)


def all_primes_psi(x):
    """Exact psi(n) for n in [0, x] (psi(0) = 0), independent of psitools.

    Each prime up to x, from plain_primes, multiplies its multiples by
    p + 1 and each higher power by a further p, with no residual step
    and no blocks.
    """
    vals = np.ones(x + 1, dtype=np.int64)
    for p in plain_primes(x).tolist():
        vals[p::p] *= p + 1
        power = p * p
        while power <= x:
            vals[power::power] *= p
            power *= p
    vals[0] = 0
    return vals


def psi_phi_identity_holds(n):
    """Whether psi(n) phi(n) prod_{p|n} p^2 == n^2 prod_{p|n} (p^2 - 1)
    in integers, psi and phi from arith.profile, the primes of n from
    sympy."""
    prof, primes = profile(n), sympy.primefactors(n)
    return (prof.psi * prof.phi * math.prod(p * p for p in primes)
            == n * n * math.prod(p * p - 1 for p in primes))


# exact oracles of the squarefree and primorial identities, read from
# the plain sieves above rather than from the library's kernels


def count_squarefree_exact(x):
    """Q(x), the number of squarefree n <= x, for x >= 1."""
    return len(squarefree_upto(x))


def squarefree_harmonic_exact(x):
    """The sum of 1/n over the squarefree n <= x, as an exact rational."""
    return sum((Fraction(1, n) for n in squarefree_upto(x).tolist()),
               Fraction(0))


def psi_product_exact(x):
    """prod_{p <= x} (1 + 1/p) as an exact rational."""
    return math.prod((Fraction(p + 1, p) for p in plain_primes(x).tolist()),
                     start=Fraction(1))


def primorial_columns(p_limit):
    """The chunks of primorial_stream over the primes <= p_limit joined
    into whole columns by name: row i holds k = i + 1.  For small
    p_limit only; the library itself never holds a whole column."""
    chunks = list(primorial_stream(prime_chunks(p_limit)))
    return {name: np.concatenate([c[name] for c in chunks])
            for name in chunks[0]}


def traced_peak(*argv):
    """(exit code, tracemalloc peak in bytes) of one subcommand, main(argv)
    run in this process.  Its output goes to stdout unless argv names an
    --output."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.fixture(scope="session")
def psi_past_two_segments():
    # psi over [0, 2 * SEGMENT_SIZE + 5]: block-wise code crosses two
    # block boundaries and ends in a short block
    return all_primes_psi(2 * SEGMENT_SIZE + 5)
