import math

import numpy as np
import pytest

from psitools.summation import compensated_cumsum


def test_compensated_cumsum_prefixes_match_fsum():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(50_000) * 1e-3 + 1e-7
    prefixes = compensated_cumsum(values)
    for idx in (0, 1, 999, 12_345, 49_999):
        expect = math.fsum(values[:idx + 1].tolist())
        assert prefixes[idx] == pytest.approx(expect, rel=5e-16, abs=1e-300)


def test_compensated_cumsum_log_terms():
    # the shape used for theta prefixes: many small positive logs
    values = np.log1p(1.0 / np.arange(2.0, 20_002.0))
    prefixes = compensated_cumsum(values)
    expect = math.fsum(values.tolist())
    assert prefixes[-1] == pytest.approx(expect, rel=2e-16)


def test_compensated_cumsum_empty_and_single():
    assert compensated_cumsum(np.array([])).size == 0
    out = compensated_cumsum(np.array([3.25]))
    assert out.tolist() == [3.25]
