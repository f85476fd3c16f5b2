"""High-precision constants and their independent numerical cross-checks.

Values are stored as 35-significant-digit decimal strings and parsed
once at import; nothing here is recomputed at build time.
crosscheck_constants recomputes the non-definitional ones from scratch
(prime sums, Euler products, the harmonic-minus-log limit) so a wrong
registry digit cannot survive the test suite.
"""
from __future__ import annotations

from itertools import chain
from math import fsum, log
from typing import NamedTuple

import numpy as np

from .sieve import prime_chunks
from .summation import _CHUNK

__all__ = ["PrecisionConstant", "get_constant", "constant_names",
           "crosscheck_constants"]


class PrecisionConstant(NamedTuple):
    name: str
    decimal: str   # >= 30 significant digits
    value: float   # decimal parsed to nearest float64


_DECIMALS = {
    # Euler-Mascheroni constant, lim (sum 1/n - log x)
    "gamma": "0.57721566490153286060651209008240243",
    # constant term of sum_{p<=x} 1/p = log log x + B1 + R(x)
    "B1": "0.26149721284764278375542683860869586",
    # density of the squarefree integers, 1/zeta(2)
    "six_over_pi_sq": "0.60792710185402662866327677925836583",
    "e_gamma": "1.7810724179901979852365041031071795",
    # 6 e^gamma / pi^2, the slope in front of log log N in the
    # primorial lower bound
    "threshold": "1.0827621932609245801221880381909266",
    "zeta2": "1.6449340668482264364724151666460252",
    # prime-gap exponent: p_{k+1} - p_k << p_k^0.526 (asymptotic)
    "gap_alpha": "0.52600000000000000000000000000000000",
}

_REGISTRY = {
    name: PrecisionConstant(name=name, decimal=dec, value=float(dec))
    for name, dec in _DECIMALS.items()
}


def get_constant(name: str) -> PrecisionConstant:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown constant {name!r}; "
                       f"registered: {sorted(_REGISTRY)}") from None


def constant_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _gamma_from_harmonic(n: int = 10 ** 8) -> float:
    """gamma via H_n - log n - 1/(2n); truncation error is O(1/n^2).

    The harmonic sum is accumulated in pairwise-summed chunks of _CHUNK
    terms, each 1/n taken in place, whose totals are combined exactly,
    keeping float error ~1e-13.
    """
    totals = []
    for lo in range(1, n + 1, _CHUNK):
        terms = np.arange(lo, min(lo + _CHUNK, n + 1), dtype=np.float64)
        totals.append(float(np.sum(np.reciprocal(terms, out=terms))))
    return fsum(totals) - log(n) - 1.0 / (2 * n)


def crosscheck_constants() -> list[tuple[str, float]]:
    """Recompute checkable constants independently; return residuals.

    The prime sums stream the primes up to 10**6 (fewer leave tails too
    large to certify).

    Returns:
        (name, |recomputed - registry|) for gamma, B1, six_over_pi_sq,
        and threshold.
    """
    from .mertens import compute_B1  # late import; mertens uses this module

    limit = 10 ** 6
    out = []
    out.append(("gamma",
                abs(_gamma_from_harmonic() - _REGISTRY["gamma"].value)))
    b1, _ = compute_B1(limit)
    out.append(("B1", abs(b1 - _REGISTRY["B1"].value)))
    prod = float(np.exp(fsum(chain.from_iterable(
        np.log1p(-1.0 / c.astype(np.float64) ** 2).tolist()
        for c in prime_chunks(limit)))))
    out.append(("six_over_pi_sq",
                abs(prod - _REGISTRY["six_over_pi_sq"].value)))
    product = _REGISTRY["e_gamma"].value * _REGISTRY["six_over_pi_sq"].value
    out.append(("threshold", abs(product - _REGISTRY["threshold"].value)))
    return out
