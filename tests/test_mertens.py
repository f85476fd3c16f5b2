import math

import pytest

from psitools.constants import get_constant
from psitools.mertens import (
    DUSART_VALIDITY_THRESHOLD,
    compute_B1,
    dusart_bound_grid,
    euler_product_inv_grid,
    oscillation_grid,
    prime_harmonic_grid,
    prime_harmonic_progression_grid,
)

from conftest import primorial_columns


def psi_product(x):
    """prod_{p <= x} (1 + 1/p): the psi_ratio column of the primorials at
    the last p <= x."""
    return float(primorial_columns(x)["psi_ratio"][-1])


def test_prime_harmonic_values():
    two, ten, hundred = prime_harmonic_grid([2, 10, 100])
    assert two.value == 0.5
    # 1/2 + 1/3 + 1/5 + 1/7 = 247/210
    assert ten.value == pytest.approx(247 / 210, rel=1e-15)
    assert hundred.value == pytest.approx(1.802817201048871, rel=1e-15)


def test_prime_harmonic_main_term():
    s = prime_harmonic_grid([100])[0]
    expect = math.log(math.log(100)) + get_constant("B1").value
    assert s.main == pytest.approx(expect, rel=1e-14)
    assert s.residual == pytest.approx(s.value - expect, abs=1e-15)
    assert s.residual == pytest.approx(0.014140362393327166, abs=1e-12)


def test_prime_harmonic_domain():
    with pytest.raises(ValueError):
        prime_harmonic_grid([1])
    with pytest.raises(ValueError, match="2\\*\\*40"):
        prime_harmonic_grid([2 ** 40 + 1])


def test_progression_values():
    # p = 1 mod 4 up to 100: 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97
    (s41,) = prime_harmonic_progression_grid([100], 4, 1)
    assert s41.sum == pytest.approx(0.4921518665799316, rel=1e-14)
    # p = 3 mod 4 up to 100: 3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83
    (s43,) = prime_harmonic_progression_grid([100], 4, 3)
    assert s43.sum == pytest.approx(0.8106653344689393, rel=1e-14)
    # the two odd classes plus 1/2 recover the full prime sum
    full = prime_harmonic_grid([100])[0].value
    assert s41.sum + s43.sum + 0.5 == pytest.approx(full, rel=1e-14)
    # q = 2 keeps every odd prime
    (s21,) = prime_harmonic_progression_grid([10], 2, 1)
    assert s21.sum == pytest.approx(71 / 105, rel=1e-15)
    assert (s21.q, s21.a, s21.x) == (2, 1, 10)


def test_progression_b_estimate():
    # phi(4) = 2 residue classes share the main term equally
    (s,) = prime_harmonic_progression_grid([100], 4, 1)
    expect = s.sum - math.log(math.log(100)) / 2
    assert s.b_estimate == pytest.approx(expect, rel=1e-14)
    assert s.b_estimate == pytest.approx(-0.27143794632401896, abs=1e-12)


def test_progression_domain():
    with pytest.raises(ValueError):
        prime_harmonic_progression_grid([100], 4, 2)  # gcd > 1
    with pytest.raises(ValueError):
        prime_harmonic_progression_grid([100], 4, 5)  # a >= q
    with pytest.raises(ValueError):
        prime_harmonic_progression_grid([100], 1, 0)


def test_euler_product_inv():
    two, ten = euler_product_inv_grid([2, 10])
    assert two.value == pytest.approx(2.0, rel=1e-15)
    # (1-1/2)(1-1/3)(1-1/5)(1-1/7) inverted = 35/8
    assert ten.value == pytest.approx(4.375, rel=1e-14)
    assert ten.main == pytest.approx(get_constant("e_gamma").value * math.log(10), rel=1e-14)
    assert ten.residual == pytest.approx(0.27392920079291017, abs=1e-12)


def test_psi_product():
    ten = psi_product(10)
    # (3/2)(4/3)(6/5)(8/7) = 96/35
    assert ten == pytest.approx(96 / 35, rel=1e-14)
    # against (6 e^gamma / pi^2) log x
    residual = ten - get_constant("threshold").value * math.log(10)
    assert residual == pytest.approx(0.24970505739699966, abs=1e-12)


def test_product_identity(tables_1e4):
    # prod (1+1/p) * prod (1-1/p) = prod (1-1/p^2), at the first 100
    # primes (the primorials N_1..N_100) and at round x
    xs = tables_1e4.primes[:100].tolist() + [10, 100, 1_000, 10_000]
    for x, inv in zip(xs, euler_product_inv_grid(xs)):
        plus = psi_product(x)
        minus_inv = inv.value
        expect = math.exp(math.fsum(
            math.log1p(-1.0 / (int(p) * int(p)))
            for p in tables_1e4.primes if p <= x))
        assert plus / minus_inv == pytest.approx(expect, rel=1e-12), x


def test_psi_product_dominates():
    # prod (1+1/p) > (6/pi^2) * prod (1-1/p)^{-1}
    six = get_constant("six_over_pi_sq").value
    xs = (2, 10, 100, 1_000, 10_000)
    for x, inv in zip(xs, euler_product_inv_grid(xs)):
        assert psi_product(x) > six * inv.value


def test_zeta2_partial_product():
    # prod_{p<=x} (1-1/p^2) approaches 6/pi^2 with error < 1/x
    six = get_constant("six_over_pi_sq").value
    xs = (10, 100, 1_000, 10_000)
    for x, inv in zip(xs, euler_product_inv_grid(xs)):
        prod = psi_product(x) / inv.value
        assert abs(prod - six) < 1.0 / x, x


def test_oscillation_values():
    (x2, g2), (x3, g3), (x10, g10) = oscillation_grid([2, 3, 10])
    assert (x2, x3, x10) == (2, 3, 10)
    assert g2 == pytest.approx(1.0825163829040825, rel=1e-12)
    assert g3 == pytest.approx(1.8070346724745068, rel=1e-12)
    assert g10 == pytest.approx(0.8662401921351982, rel=1e-12)
    # tabulated reference digits carry ~1e-4 rounding slack
    assert g2 == pytest.approx(1.08258, abs=2e-4)
    assert g3 == pytest.approx(1.80713, abs=2e-4)


def test_compute_b1():
    value, tail = compute_B1(1_000_000)
    assert abs(value - 0.2614972128) <= 5e-8
    assert tail == pytest.approx(1.0 / 999_999, rel=1e-12)
    gamma = get_constant("gamma").value
    small_value, small_tail = compute_B1(1)
    assert small_value == gamma
    assert small_tail == 1.0


def test_b1_tail_shrinks():
    v4, t4 = compute_B1(10_000)
    v6, t6 = compute_B1(1_000_000)
    assert t6 < t4
    # estimates at the two scales agree within the coarser tail bound
    assert abs(v4 - v6) < t4


def test_dusart_below_validity():
    (res,) = dusart_bound_grid([1_000])
    assert res.below_validity is True
    assert res.x == 1_000
    # x stays the int it came as, as the CLI writes it
    (s,) = prime_harmonic_progression_grid([100], 4, 1)
    assert (type(res.x), type(s.x), s.x) == (int, int, 100)
    log_x = math.log(1_000)
    assert res.bound == pytest.approx(
        1 / (10 * log_x ** 2) + 4 / (15 * log_x ** 3), rel=1e-14)
    assert res.rh_bound == pytest.approx(
        (3 * log_x + 4) / (8 * math.pi * math.sqrt(1_000)), rel=1e-14)
    # the unconditional bound is not claimed this low; the remainder can exceed it
    assert res.holds is False
    assert res.deviation <= res.rh_bound


def test_dusart_fields():
    (res,) = dusart_bound_grid([1_000_000])
    assert res.below_validity is True  # threshold is 2,278,383
    assert DUSART_VALIDITY_THRESHOLD == 2_278_383
    assert res.slack == pytest.approx(res.bound - res.deviation, abs=1e-15)
    assert res.holds == (res.deviation <= res.bound)


def test_residual_positive_at_desk_scale():
    # the full-sum remainder keeps one sign through this range
    xs = (100, 1_000, 10_000, 100_000, 1_000_000)
    for x, s in zip(xs, prime_harmonic_grid(xs)):
        assert s.residual > 0, x
