import pytest

from psitools import build_sieve


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
