"""Child process of the benchmark: a traced CLI run, or the library run.

    child.py [--spans PATH] cli ARGV...
    child.py [--spans PATH] beyond --out PATH --base N --range N
             --window N [--lo N ...] --spot K --spot-seed S

With --spans the child records an ``import`` span around importing
psitools, wraps the layer functions (see tracer.py) and writes its spans
to PATH when it ends.  The untraced CLI run does not use this file; it
calls psitools.cli.main from ``python -c``.

``beyond`` builds the base sieve, checks the square-divisor formula over
[1, range] against the cumulative Mobius tally (skipped when range is
0), then consumes
segment_scan over each window [lo, lo + window) and checks the window's
squarefree count against the formula at both ends, and a seeded sample
of (spf, mu) values against trial division.  It writes the checks as
JSON to --out.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from math import isqrt


def _spf_mu(n: int, primes) -> tuple[int, int]:
    """Smallest prime factor and Mobius value of n by trial division."""
    import numpy as np

    small = primes[:int(np.searchsorted(primes, isqrt(n), side="right"))]
    divisors = small[n % small == 0].tolist()
    m, mu = n, 1
    for p in divisors:
        m //= p
        mu = -mu
        if m % p == 0:
            mu = 0
            while m % p == 0:
                m //= p
    if m > 1:
        mu = -mu
    return (divisors[0] if divisors else n), mu


def beyond(args: argparse.Namespace) -> int:
    import numpy as np
    from psitools import sieve, squarefree

    tables = sieve.build_sieve(args.base)
    result = {"formula_range_ok": None, "windows": []}
    if args.range:
        formula = squarefree.count_squarefree_formula_range(args.range,
                                                            tables)
        tally = np.cumsum(tables.mobius[1:args.range + 1] != 0)
        result["formula_range_ok"] = bool(np.array_equal(formula[1:], tally))
    rng = random.Random(args.spot_seed)
    for lo in args.lo:
        hi = lo + args.window - 1
        sample = set(rng.sample(range(lo, hi + 1), args.spot))
        seen = {}
        count = 0
        for n, p, mu in sieve.segment_scan(lo, hi, tables):
            if mu:
                count += 1
            if n in sample:
                seen[n] = (p, mu)
        expected = (squarefree.count_squarefree_formula(hi, tables)
                    - squarefree.count_squarefree_formula(lo - 1, tables))
        spot_ok = all(seen.get(n) == _spf_mu(n, tables.primes)
                      for n in sample)
        result["windows"].append({"lo": lo, "hi": hi, "squarefree": count,
                                  "formula": expected, "spot_ok": spot_ok})
    with open(args.out, "w") as sink:
        json.dump(result, sink)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--spans", help="record spans and write them here")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    lib = sub.add_parser("beyond")
    lib.add_argument("--out", required=True)
    for flag in ("--base", "--range", "--window", "--spot", "--spot-seed"):
        lib.add_argument(flag, type=int, required=True)
    lib.add_argument("--lo", type=int, action="append", default=[])
    args = parser.parse_args(argv)

    rec = None
    if args.spans:
        import tracer

        rec = tracer.Recorder()
        idx = rec.open(rec.name_id("import"))
        import psitools.cli  # noqa: F401  (every layer module)
        rec.close(idx)
        tracer.install(rec)
    try:
        if args.mode == "cli":
            from psitools import cli as cli_module

            return cli_module.main(args.argv)
        return beyond(args)
    finally:
        if rec is not None:
            rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
