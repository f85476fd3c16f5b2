import math

import pytest
from mpmath import mp, mpf

from psitools.constants import (_DECIMALS, constant_names,
                                crosscheck_constants, get_constant)


def test_registry_names():
    assert set(constant_names()) == {
        "gamma", "B1", "six_over_pi_sq", "e_gamma", "threshold", "zeta2", "gap_alpha",
    }
    assert len(constant_names()) == 7


def test_decimal_precision():
    for name in constant_names():
        c = get_constant(name)
        digits = c.decimal.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 30, name
        assert c.value == float(c.decimal), name


def test_decimals_against_mpmath():
    # every printed digit is correct: each registry decimal lies within
    # half a unit of its last digit of the value at 50 digits
    with mp.workdps(50):
        oracles = {
            "gamma": mp.euler,
            "B1": mp.mertens,
            "six_over_pi_sq": 6 / mp.pi ** 2,
            "e_gamma": mp.exp(mp.euler),
            "threshold": 6 * mp.exp(mp.euler) / mp.pi ** 2,
            "zeta2": mp.zeta(2),
        }
        assert set(oracles) == set(_DECIMALS) - {"gap_alpha"}  # definitional
        for name, oracle in oracles.items():
            decimal = _DECIMALS[name]
            half_unit = mpf(10) ** -len(decimal.split(".")[1]) / 2
            assert abs(mpf(decimal) - oracle) <= half_unit, name


def test_unknown_name():
    with pytest.raises(KeyError):
        get_constant("pi")


def test_known_first_digits():
    assert get_constant("gamma").decimal.startswith("0.5772156649015328")
    assert get_constant("B1").decimal.startswith("0.2614972128476427")
    assert get_constant("six_over_pi_sq").decimal.startswith("0.6079271018540266")
    assert get_constant("e_gamma").decimal.startswith("1.781072417990197")
    assert get_constant("zeta2").decimal.startswith("1.644934066848226")
    assert get_constant("gap_alpha").value == 0.526


def test_threshold_consistency():
    # the primorial threshold is exactly (6/pi^2) e^gamma
    c = get_constant("threshold").value
    product = get_constant("six_over_pi_sq").value * get_constant("e_gamma").value
    assert abs(c - product) <= math.ulp(c)
    assert c == pytest.approx(1.082762193260924, rel=1e-15)


def test_zeta2_inverse():
    z = get_constant("zeta2").value
    s = get_constant("six_over_pi_sq").value
    assert abs(z * s - 1.0) <= 1e-14
    assert z == pytest.approx(math.pi ** 2 / 6, rel=1e-15)


def test_crosscheck():
    results = dict(crosscheck_constants())
    assert set(results) == {"gamma", "B1", "six_over_pi_sq", "threshold"}
    # H_n - log n - 1/(2n) at n = 1e8 is within 1e-17 of gamma; the rest
    # is float error, which chunked pairwise sums keep near 1e-15
    assert results["gamma"] <= 1e-13
    assert results["B1"] <= 5e-8
    assert results["six_over_pi_sq"] <= 1e-5
    assert results["threshold"] <= 1e-14
