"""Command-line surface: every library operation reachable from a shell.

Output is CSV (RFC-4180 style: comma, header row, LF endings, floats at
15 significant digits) or a JSON array of flat objects.  Exit codes:
0 success, 1 a verification subcommand found a counterexample, 2 usage
or domain error.

Each subcommand is declared once, as a COMMANDS entry: its help text and
extra flags, its output columns, a rows(args) callable that returns one
tuple per output row, and an optional fails(record) predicate that marks
a row as a counterexample.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import dataclass
from math import log
from typing import Any, Callable, Iterable

import numpy as np

from . import constants, extrema, mertens, sieve, squarefree

__all__ = ["COMMANDS", "Command", "main", "emit", "script_entry"]


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.15g" % value
    if value is None:
        return ""
    return str(value)


def _json_cell(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def emit(records: Iterable[dict[str, Any]], output_format: str, sink,
         header: list[str] | None = None) -> None:
    """Stream records to sink as CSV or a JSON array.

    Records must share one key set; the header comes from the first
    record (or the explicit header when the stream may be empty).
    """
    if output_format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        wrote_header = False
        for rec in records:
            if not wrote_header:
                writer.writerow(list(rec))
                wrote_header = True
            writer.writerow([_format_cell(v) for v in rec.values()])
        if not wrote_header and header:
            writer.writerow(header)
    elif output_format == "json":
        sink.write("[")
        first = True
        for rec in records:
            sink.write("\n  " if first else ",\n  ")
            first = False
            sink.write(json.dumps({k: _json_cell(v) for k, v in rec.items()}))
        sink.write("\n]\n" if not first else "]\n")
    else:
        raise ValueError(f"unknown output format {output_format!r}")


@dataclass(frozen=True)
class Command:
    """One subcommand: everything its parser, rows and exit code need."""

    help: str
    columns: tuple[str, ...]
    rows: Callable[[argparse.Namespace], Iterable[tuple]]
    flags: tuple[tuple[str, dict[str, Any]], ...] = ()
    fails: Callable[[dict[str, Any]], bool] | None = None


def _flag(name: str, **kwargs: Any) -> tuple[str, dict[str, Any]]:
    return name, kwargs


_GRID_FLAGS = (
    _flag("--x", type=int, action="append",
          help="evaluation point; may repeat"),
    _flag("--xmax", type=int, help="end of a geometric x grid"),
    _flag("--xmin", type=int, default=10,
          help="start of the geometric grid (default 10)"),
    _flag("--points", type=int, default=20,
          help="grid point count (default 20)"),
)


def _need(args: argparse.Namespace, flag: str, least: int) -> int:
    """The integer value of --flag; a ValueError if it is below least."""
    value = int(getattr(args, flag) or 0)
    if value < least:
        raise ValueError(f"{args.subcommand} needs --{flag} >= {least}")
    return value


def _tables(args: argparse.Namespace, needed: int) -> sieve.SieveTables:
    return sieve.build_sieve(max(args.limit or 0, needed, 2))


def _tables_with_primes(args: argparse.Namespace,
                        count: int) -> sieve.SieveTables:
    """Tables holding at least count >= 1 primes.

    p_n < n (log n + log log n) for n >= 6 (Rosser, 1941); the limit
    adds margin to that bound, and 100 covers p_5 = 11.
    """
    log_c = log(count + 1)
    return _tables(args, max(100, int(count * (log_c + log(log_c) + 1))))


# rows per .tolist() conversion in _column_rows: a larger chunk raises
# the peak memory of verify-psi's emit for no gain in speed
_ROW_CHUNK = 1 << 12


def _column_rows(*columns: np.ndarray) -> Iterable[tuple]:
    """One tuple of Python numbers per row of equal-length columns."""
    for a in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(c[a:a + _ROW_CHUNK].tolist() for c in columns))


def _grid(args: argparse.Namespace, smallest: int) -> list[int]:
    """x values from repeated --x and/or a geometric --xmax/--points grid."""
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    xs = list(args.x or [])
    if args.xmax is not None:
        if args.xmax < smallest:
            raise ValueError(f"--xmax must be >= {smallest}")
        # an --xmax below --xmin ends the grid at --xmax, never above it
        lo = min(max(smallest, args.xmin), args.xmax)
        raw = np.geomspace(lo, args.xmax, args.points)
        xs.extend(int(v) for v in np.unique(raw.astype(np.int64)))
    if not xs:
        raise ValueError("no x values given (use --x or --xmax)")
    bad = [x for x in xs if x < smallest]
    if bad:
        raise ValueError(f"x must be >= {smallest}, got {bad}")
    return xs


def _per_x(point: Callable[..., tuple], smallest: int = 2,
           need: Callable[[argparse.Namespace], int] = lambda args: 0):
    """rows(args) for a grid subcommand: one point(x, tables, args) per x.

    The grid and the sieve (to the largest x, or need(args) if larger)
    are computed once; every row is computed before any is written.
    """
    def rows(args: argparse.Namespace) -> list[tuple]:
        xs = _grid(args, smallest)
        tables = _tables(args, max(max(xs), need(args)))
        return [point(x, tables, args) for x in xs]
    return rows


def _whole_grid(grid: Callable[[list[int]], list[tuple]]):
    """rows(args) for a grid subcommand whose library call takes every x.

    One grid and one grid(xs) call, which streams psi itself (no sieve
    tables, so --limit is not read) and returns the output rows in the
    order of xs.
    """
    def rows(args: argparse.Namespace) -> list[tuple]:
        return grid(_grid(args, 2))
    return rows


def _sample(x: int, s) -> tuple:
    return x, s.value, s.main_term, s.residual


def _sieve_info(args):
    tables = sieve.build_sieve(_need(args, "limit", 2))
    return [(tables.limit, len(tables.primes),
             squarefree.count_squarefree_exact(tables.limit, tables),
             sieve.theta(tables.limit, tables))]


def _verify_psi(args):
    p_limit = _need(args, "plimit", 2)
    cols = extrema.primorial_columns(p_limit, _tables(args, p_limit))
    # the columns come in the order of verify-psi's, after k
    return _column_rows(np.arange(1, len(cols["p"]) + 1), *cols.values())


def _squarefree(x, tables, args):
    half, quarter = squarefree.squarefree_residual(x, tables)
    return (x, int(half.value), half.main_term, half.residual,
            half.scaled_residual, quarter.scaled_residual)


def _progression(x, tables, args):
    s = mertens.prime_harmonic_progression(x, args.q, args.a, tables)
    return s.q, s.a, x, s.sum, s.b_estimate


def _b1(args):
    p_limit = _need(args, "plimit", 2)
    value, tail = mertens.compute_B1(p_limit, _tables(args, p_limit))
    return [(p_limit, value, tail)]


def _dusart(x, tables, args):
    r = mertens.dusart_bound_check(x, tables)
    return (int(r.x), r.holds, r.slack, r.deviation, r.bound, r.rh_bound,
            r.below_validity)


def _jumps(args):
    kmax = _need(args, "kmax", 1)
    tables = _tables_with_primes(args, kmax + 1)
    return _column_rows(np.arange(1, kmax + 1), tables.primes[1:kmax + 1],
                        extrema.jump_deltas(kmax, tables))


def _extremes(xs):
    answers = extrema.psi_ratio_extremes_grid(xs)
    return [(x, *answer) for x, answer in zip(xs, answers)]


def _classify(xs):
    answers = extrema.classify_counts(xs)
    return [(x, *answer, x / log(x)) for x, answer in zip(xs, answers)]


def _dist_tail(args):
    x = _need(args, "x", 2)
    pairs = extrema.distribution_tail(x, args.t)
    return [(x, t, frac) for t, frac in pairs]


def _loglog_gap(args):
    ks = list(args.k or [])
    if args.kmax is not None:
        if args.kmax < 2:
            raise ValueError("--kmax must be >= 2")
        ks.extend(range(2, args.kmax + 1))
    if not ks:
        raise ValueError("loglog-gap needs --k or --kmax")
    bad = [k for k in ks if k < 2]
    if bad:
        # checked before the prime-count guess, which takes logs of k
        raise ValueError(
            f"k must be >= 2 (inner log undefined), got {bad[0]}")
    tables = _tables_with_primes(args, max(ks))
    return [(k, int(tables.primes[k - 1]), extrema.loglog_gap(k, tables))
            for k in ks]


def _gap_check(args):
    p_limit = _need(args, "plimit", 3)
    tables = _tables(args, p_limit)
    holds, worst_k = extrema.gap_exponent_check(p_limit, tables)
    return [(p_limit, holds, worst_k, int(tables.primes[worst_k - 1]),
             int(tables.primes[worst_k]))]


def _tail_sum(args):
    tail = squarefree.primorial_divisor_tail(args.x, _tables(args, args.x))
    return [(args.x, tail.numerator, tail.denominator)]


def _constants(args):
    residuals: dict[str, float] = {}
    if not args.no_crosscheck:
        tables = sieve.build_sieve(max(args.limit or 0, 10 ** 6))
        residuals = dict(constants.crosscheck_constants(tables))
    return [(c.name, c.decimal, residuals.get(c.name))
            for c in map(constants.get_constant, constants.constant_names())]


COMMANDS: dict[str, Command] = {
    "sieve-info": Command(
        "table summary: prime count, squarefree count, theta",
        ("limit", "primes", "squarefree", "theta"), _sieve_info),
    "verify-psi": Command(
        "scan primorials for psi ratio above threshold",
        ("k", "p_k", "log_N", "psi_ratio", "loglog_N", "threshold",
         "margin"), _verify_psi,
        (_flag("--plimit", type=int, required=True,
               help="include primorials of primes up to this bound"),),
        fails=lambda r: not r["margin"] > 0),
    "squarefree": Command(
        "squarefree counts vs (6/pi^2) x",
        ("x", "Q", "main", "residual", "scaled_half", "scaled_quarter"),
        _per_x(_squarefree, smallest=1), _GRID_FLAGS),
    "harmonic": Command(
        "squarefree harmonic sum vs (6/pi^2) log x",
        ("x", "value", "main", "residual"),
        _per_x(lambda x, tables, args: _sample(
            x, squarefree.squarefree_harmonic(x, tables)), smallest=1),
        _GRID_FLAGS),
    "mertens": Command(
        "prime reciprocal sum vs log log x + B1",
        ("x", "sum", "main", "residual"),
        _per_x(lambda x, tables, args: _sample(
            x, mertens.prime_harmonic(x, tables))),
        _GRID_FLAGS),
    "progression": Command(
        "prime reciprocal sum along a residue class",
        ("q", "a", "x", "sum", "b_estimate"),
        _per_x(_progression, need=lambda args: args.q),
        _GRID_FLAGS + (_flag("--q", type=int, required=True, help="modulus"),
                       _flag("--a", type=int, required=True,
                             help="residue"))),
    "oscillation": Command(
        "scaled deviation of the inverse Euler product",
        ("x", "g"),
        _per_x(lambda x, tables, args: (x, mertens.oscillation_g(x, tables))),
        _GRID_FLAGS),
    "b1": Command(
        "recompute the prime-sum constant B1",
        ("prime_limit", "value", "tail_bound"), _b1,
        (_flag("--plimit", type=int, required=True,
               help="truncate the prime series here"),)),
    "dusart": Command(
        "explicit error bound check for the prime sum",
        ("x", "holds", "slack", "deviation", "bound", "rh_bound",
         "below_validity"), _per_x(_dusart), _GRID_FLAGS,
        fails=lambda r: not r["holds"] and not r["below_validity"]),
    "jumps": Command(
        "psi-ratio jumps between consecutive primorials",
        ("k", "p_next", "delta"), _jumps,
        (_flag("--kmax", type=int, required=True,
               help="report jumps for k = 1..kmax"),)),
    "extremes": Command(
        "argmax/argmin of psi(n)/n over [2, x]",
        ("x", "max_n", "max_ratio", "min_n", "min_ratio"),
        _whole_grid(_extremes), _GRID_FLAGS),
    "classify": Command(
        "count n with psi(n)/n above/below threshold",
        ("x", "above", "below", "x_over_logx"), _whole_grid(_classify),
        _GRID_FLAGS),
    "dist-tail": Command(
        "fraction of n <= x with psi(n)/n > t",
        ("x", "t", "fraction"), _dist_tail,
        (_flag("--x", type=int, required=True),
         _flag("--t", type=float, action="append", required=True,
               help="tail threshold; may repeat"))),
    "loglog-gap": Command(
        "log log p_k minus log log log N_k",
        ("k", "p_k", "gap"), _loglog_gap,
        (_flag("--k", type=int, action="append",
               help="specific k; may repeat"),
         _flag("--kmax", type=int, help="all k in [2, kmax]"))),
    "gap-check": Command(
        "prime gap exponent bound over a range",
        ("p_limit", "holds", "worst_k", "worst_p", "worst_next"), _gap_check,
        (_flag("--plimit", type=int, required=True),),
        fails=lambda r: not r["holds"]),
    "tail-sum": Command(
        "exact divisor tail of the primorial of x",
        ("x", "numerator", "denominator"), _tail_sum,
        (_flag("--x", type=int, required=True),)),
    "constants": Command(
        "constant registry with cross-check residuals",
        ("name", "decimal", "residual"), _constants,
        (_flag("--no-crosscheck", action="store_true",
               help="print the registry without recomputation"),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psitools",
        description="Sieve-backed checks of psi-function, squarefree, "
                    "and prime-sum identities.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("--output", metavar="PATH",
                        help="write to file instead of standard output")
    common.add_argument("--limit", type=int, default=None,
                        help="size of the sieve tables, for subcommands "
                             "that build them (default: smallest that "
                             "covers the request)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.subcommand]
    failed = False

    def records(rows: Iterable[tuple]) -> Iterable[dict[str, Any]]:
        nonlocal failed
        for row in rows:
            rec = dict(zip(command.columns, row))
            if command.fails is not None and command.fails(rec):
                failed = True
            yield rec

    try:
        rows = command.rows(args)
        with (open(args.output, "w", newline="") if args.output
              else contextlib.nullcontext(sys.stdout)) as sink:
            emit(records(rows), args.format, sink,
                 header=list(command.columns))
    except (ValueError, OverflowError, KeyError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
