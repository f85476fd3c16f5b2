import math

import numpy as np
import pytest

from psitools.summation import CompensatedSum, chunked


def test_compensated_cumsum_prefixes_match_fsum():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(50_000) * 1e-3 + 1e-7
    prefixes = CompensatedSum().add(values)
    for idx in (0, 1, 999, 12_345, 49_999):
        expect = math.fsum(values[:idx + 1].tolist())
        assert prefixes[idx] == pytest.approx(expect, rel=5e-16, abs=1e-300)


def test_compensated_cumsum_log_terms():
    # the shape of the primorial log sums: many small positive logs
    values = np.log1p(1.0 / np.arange(2.0, 20_002.0))
    prefixes = CompensatedSum().add(values)
    expect = math.fsum(values.tolist())
    assert prefixes[-1] == pytest.approx(expect, rel=2e-16)


def test_compensated_cumsum_empty_and_single():
    total = CompensatedSum()
    assert total.add(np.array([])).size == 0
    assert total.value == 0.0
    assert total.add(np.array([3.25])).tolist() == [3.25]
    assert total.value == 3.25


def _one_pass_reference(values):
    """The unchunked compensated prefix sums, over full-length arrays."""
    a = np.asarray(values, dtype=np.float64)
    s = np.cumsum(a)
    prev = np.concatenate(([0.0], s[:-1]))
    z = s - prev
    return s + np.cumsum((prev - (s - z)) + (a - z))


@pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 16])
def test_compensated_cumsum_chunks_are_bit_identical(chunk):
    # the carried sum and error total make every chunk split give the
    # bits of one pass, zeros of either sign included
    rng = np.random.default_rng(5)
    values = np.concatenate((
        [-0.0, 0.0, -0.0], rng.standard_normal(200) * 1e8,
        rng.random(300) * 1e-9, [0.0, -0.0, 1e300, -1e300, 3.0]))
    total = CompensatedSum()
    out = np.concatenate([total.add(c) for c in chunked(values, chunk)])
    assert out.tobytes() == _one_pass_reference(values).tobytes()


def test_compensated_chunks_carry_across_uneven_chunks():
    values = np.log1p(1.0 / np.arange(2.0, 5_002.0))
    pieces = np.split(values, [0, 1, 17, 17, 2_000, 4_999])
    total = CompensatedSum()
    joined = np.concatenate([total.add(p) for p in pieces])
    assert joined.tobytes() == _one_pass_reference(values).tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_compensated_sum_is_the_last_prefix(chunk):
    # the whole sum over chunked slices has the bits of one pass's last
    # prefix, for any chunk length
    values = np.log1p(1.0 / np.arange(2.0, 5_002.0))
    pieces = list(chunked(values, chunk))
    assert [len(p) for p in pieces[:-1]] == [chunk] * (len(pieces) - 1)
    assert np.concatenate(pieces).tobytes() == values.tobytes()
    total = CompensatedSum()
    for piece in pieces:
        total.add(piece)
    assert total.value.hex() == float(_one_pass_reference(values)[-1]).hex()


def _concatenating_add(carried, a):
    """CompensatedSum.add by its one-expression formula, as a pure
    function of the carried (sum, error): (prefixes, (sum, error))."""
    total, error = carried
    buf = np.cumsum(np.concatenate(([total], a)))
    prev, s = buf[:-1], buf[1:]
    z = s - prev
    err = (prev - (s - z)) + (a - z)
    err[0] += error
    np.cumsum(err, out=err)
    return s + err, (s[-1], err[-1])


@pytest.mark.parametrize("cuts", [
    [], [1], [0, 0, 3, 3, 4], [2, 7, 500], list(range(1, 1_001, 37)),
    [999, 1_000]])
def test_compensated_sum_add_matches_the_concatenating_formula(cuts):
    # add fills one buffer and writes its TwoSum terms in place; each
    # prefix and value keeps the bits of the expression it replaces, for
    # every split, empty pieces and zeros of either sign included
    rng = np.random.default_rng(19)
    values = np.concatenate((
        [-0.0, 0.0], rng.standard_normal(400) * 1e8, rng.random(400) * 1e-9,
        1.0 / np.arange(1.0, 199.0), [1e300, -1e300, -0.0]))
    total, carried, value = CompensatedSum(), (0.0, 0.0), 0.0
    for piece in np.split(values, cuts):
        got, want = total.add(piece), np.zeros(0)
        if len(piece):
            want, carried = _concatenating_add(carried, piece)
            value = float(want[-1])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert total.value.hex() == value.hex()
