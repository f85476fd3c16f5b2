import math

import numpy as np
import pytest

from psitools import build_sieve
from psitools.sieve import SEGMENT_SIZE


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


def all_primes_psi(x):
    """Exact psi(n) for n in [0, x] (psi(0) = 0), independent of psitools.

    A plain bool sieve gives every prime up to x; each prime multiplies
    its multiples by p + 1 and each higher power by a further p, with no
    residual step and no blocks.
    """
    marks = np.ones(x + 1, dtype=bool)
    marks[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if marks[p]:
            marks[p * p::p] = False
    vals = np.ones(x + 1, dtype=np.int64)
    for p in np.nonzero(marks)[0].tolist():
        vals[p::p] *= p + 1
        power = p * p
        while power <= x:
            vals[power::power] *= p
            power *= p
    vals[0] = 0
    return vals


@pytest.fixture(scope="session")
def psi_past_two_segments():
    # psi over [0, 2 * SEGMENT_SIZE + 5]: block-wise code crosses two
    # block boundaries and ends in a short block
    return all_primes_psi(2 * SEGMENT_SIZE + 5)
