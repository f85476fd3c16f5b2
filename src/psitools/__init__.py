"""Numerical toolkit around the Dedekind psi function.

The package streams primes and psi(n) in sieve blocks, and reads mu to
sqrt(x) for squarefree sums, to check the identities tying psi(n)/n =
prod_{p|n}(1 + 1/p) to squarefree densities, Mertens-type prime sums
and products, and the primorial inequality psi(N_k)/N_k > (6 e^gamma /
pi^2) log log N_k.  Every float sum is one summation.CompensatedSum;
the sieve tables serve only segment_scan and the square-divisor counts.

Importing the package loads only sieve and summation, which every
subcommand streams through.  get_constant is resolved on first use (a
module __getattr__, PEP 562), so that a run which needs no constant
does not import the constants module.
"""

from .sieve import SieveTables, build_sieve, segment_scan, InsufficientSieveError

__version__ = "0.1.0"

__all__ = [
    "SieveTables",
    "build_sieve",
    "segment_scan",
    "InsufficientSieveError",
    "get_constant",
    "__version__",
]


def __getattr__(name: str):
    if name == "get_constant":
        from .constants import get_constant
        return get_constant
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
