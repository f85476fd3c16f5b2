"""Numerical toolkit around the Dedekind psi function.

The package streams primes, psi(n) and squarefree n in sieve blocks to
evaluate and cross-check the classical identities tying psi(n)/n =
prod_{p|n}(1 + 1/p) to squarefree densities, Mertens-type prime sums
and products, and the primorial inequality psi(N_k)/N_k > (6 e^gamma /
pi^2) log log N_k.  Every sum is one summation.CompensatedSum; the sieve
tables serve only segment_scan and the square-divisor counts.
"""

from .sieve import SieveTables, build_sieve, segment_scan, InsufficientSieveError
from .constants import get_constant

__version__ = "0.1.0"

__all__ = [
    "SieveTables",
    "build_sieve",
    "segment_scan",
    "InsufficientSieveError",
    "get_constant",
    "__version__",
]
