"""Command-line surface: every library operation reachable from a shell.

Output is CSV (RFC-4180 style: comma, header row, LF endings, floats at
15 significant digits) or a JSON array of flat objects.  Exit codes:
0 success, 1 a verification subcommand found a counterexample, 2 usage
or domain error, an unwritable --output, or a numerical cross-check
that failed.  When the reader of the output closes it early (as
`verify-psi ... | head` does), the run stops there with nothing on
stderr, and exits 1 if a row written or checked so far was a
counterexample, else 0.

Each subcommand is declared once, as a COMMANDS entry: its help text and
extra flags, its output column names, a rows(args) generator that yields
the rows as chunks of columns (equal-length sequences), and an optional
vector predicate fails(columns) that marks the rows of a chunk that are
counterexamples.  No subcommand builds sieve tables; each streams its
primes or psi(n), except that Q(x) and the squarefree harmonic sum are
square-divisor sums over mu up to sqrt(x).  A grid subcommand's library call returns
the rows it writes, x first, and _x_grid passes them through unchanged.
Most yield a few rows as one chunk; verify-psi, jumps and loglog-gap
--kmax yield a chunk per chunk of primes, never whole columns.  main
takes the first chunk before it opens the output, so an invalid request
writes nothing, and emit writes the CSV header or the JSON brackets once
around all the chunks.

Importing this module loads sieve and summation alone, besides numpy
and argparse, since every subcommand streams through them.  Each rows
function imports the library module it runs (extrema, mertens,
squarefree or constants) when it runs, and json is imported only where
JSON is written, so a run loads and compiles only what its subcommand
uses.

emit writes the rows 2^12 at a time, each chunk as one uint8 matrix with
a row per output row.  Every column chunk becomes a fixed-width field of
that matrix; separators, newlines, JSON keys and braces are constant
bytes between the fields.  NUL bytes are gaps, so a cell shorter than
its field, or an unused sign or exponent place, costs nothing.  Once
the fields are dropped, a boolean compress removes every NUL from 2^9
rows at a time, and each slice is written straight from its array.

int64 columns are spelled as %d by array arithmetic, and float64
columns the same way, exactly: as %.15g in CSV, and in JSON as repr
spells them, the shortest decimal that reads back as the same double
and of those the nearest, ties to even.  Both start from one exact
expansion.  With e = floor(log10 |x|) and s = 16 - e, y = |x| * 10^s is
rounded once, to an even integer in [10^16, 10^17), above 2^53.  10^s
is an exact double for 0 <= s <= 22, and for s = 23 and 24 it is the
double _TEN[s] plus 2^s.  Dekker's exact product (1971; numpy has no
fused multiply-add) gives the error of y exactly, and |x| * 2^s is
exact.  Write |x| = M * 2^q with M a 53-bit integer: |x| * 10^s is
M * 5^s * 2^(q + s), and q + s >= -55 where that is 10^16 or more, so
both terms are multiples of 2^-55, below 9, and exact int64s in units
of 2^-56.  So |x| * 10^s is exactly m + r / 2^56, with m the nearest
integer (ties to even) and |r| <= 2^55.  The nearest n-digit decimal
comes from m by integer division by 10^(17 - n); the sign of r decides
the halves, and r = 0 sends a tie to even.  log10 can miss e by one,
which a y outside [10^16, 10^17) shows; where y sits on the edge,
m + r / 2^56 outside that range sends the cell to the per-cell path.

CSV takes the nearest 15-digit decimal; fixed or scientific notation
and the trailing zeros then follow C's %g rule with precision 15.  JSON
needs the shortest, and tests each candidate C (an integer in units of
10^(e - 16)) against the rounding interval of x, the reals that read
back as x, as Ryu does (Adams, PLDI 2018).  In those units it reaches
H = 2^(q - 1) * 10^s above x and H_below = H below, or H / 2 when x is
a power of two, whose predecessor is nearer; the ends count when M is
even.  H is a multiple of 2^-56 too, so C reads back exactly when
-H_below < (C - m) * 2^56 - r < H, an int64 test with no float in it.
H = (m + r / 2^56) / 2M lies in (1/2, 12).  An interval that narrow
holds at most one 15-digit decimal (their spacing is 100) and, if one,
the nearest; every shorter answer is that one with zeros dropped.
Failing that, the nearest 16-digit decimal reads back if any does,
except at a power of two, whose interval is narrower below: there the
next one up can read back instead (2^-24 is one).  Failing both, m
does, since |r| / 2^56 <= 1/2 < H_below.
repr writes scientific notation when e < -4 or e >= 16, a bare 1e-05,
and appends .0 to an integral value.  That covers |x| in [1e-8, 1e17)
in both formats.

The cells left keep their per-cell spelling (%.15g, or repr through
json.dumps): zero, non-finite values, floats outside [1e-8, 1e17), and
the few next to a power of ten whose m + r / 2^56 leaves [10^16, 10^17),
such as 1e-6; and bools, None, strings and integers beyond int64.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import sieve
from .summation import CompensatedSum

__all__ = ["COMMANDS", "Command", "main", "emit", "script_entry"]


_ROW_CHUNK = 1 << 12  # rows per byte matrix; more raise peak RSS, not speed
# rows per NUL compress and write of that matrix: verify-psi --format json
# peaks at 34.1 MB in RSS, as with 256 or 1024 rows; 34.5 MB with 2048,
# 35.6 MB with the whole matrix
_WRITE_ROWS = 1 << 9

_TEN = np.array([float(10 ** s) for s in range(25)])  # exact to 5^22 < 2^53
# 10^s - _TEN[s] in units of 2^-56: 0, but 2^23 and 2^24 at s = 23 and 24
_TEN_LOW = np.array([float(10 ** s - int(t) << 56)
                     for s, t in enumerate(_TEN)])
_FIVE = np.array([5 ** s for s in range(25)], np.int64)
_TEN4 = np.array([1e3, 1e2, 1e1, 1e0], np.float32)[:, None]
_POW10 = np.array([10 ** k for k in range(1, 20)], np.uint64)


def _text(value: Any, fmt: str) -> str:
    """One cell as JSON, or as CSV text with RFC-4180 quoting."""
    if fmt == "json":
        import json
        return json.dumps(value)  # floats as repr, NaN or +-Infinity
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.15g" % value
    text = "" if value is None else str(value)
    if "\0" in text:  # emit's gap byte
        raise ValueError("a CSV cell cannot hold a NUL character")
    quote = any(c in text for c in ',"\r\n')
    return '"%s"' % text.replace('"', '""') if quote else text


def _text_field(texts: list[str]) -> np.ndarray:
    """Cells already spelled, as a field: UTF-8, NUL-padded."""
    try:
        data = np.array(texts, dtype=bytes)  # ASCII, encoded by numpy
    except UnicodeEncodeError:
        data = np.array([t.encode() for t in texts], dtype=bytes)
    return data.view(np.uint8).reshape(len(texts), -1).T


def _digits(m: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of the integers m >= 0, zero-padded to width: row j
    holds digit j of every m.

    m is int64 or uint64, or float64 holding integers below 2^53, whose
    floor(m / 10^4) is exact.  Each base-10^4 group is split in float32:
    for g < 10^4 and k >= 1, g / 10^k is within 10^-4 of its float32
    rounding and at least 10^-3 below the next integer, so the floor is
    exact.
    """
    count = -(-width // 4)
    groups = np.empty((count, 1, len(m)), np.float32)
    for g in range(count - 1, -1, -1):
        q = np.floor(m / 1e4) if m.dtype == np.float64 else m // 10000
        groups[g, 0] = m - 10000 * q
        m = q
    quotients = np.floor(groups / _TEN4)
    digits = quotients.copy()
    digits[:, 1:] -= 10 * quotients[:, :-1]
    digits = digits.reshape(4 * count, -1)[4 * count - width:]
    return digits.astype(np.uint8) + np.uint8(48)


def _int_field(v: np.ndarray) -> np.ndarray:
    """'%d' of int64 v: a sign place, then digits with leading NULs."""
    mag = np.abs(v).view(np.uint64)  # abs(min) wraps to min: 2^63 as uint64
    width = len(str(int(mag.max())))
    digits = _digits(mag.astype(np.float64) if width < 16 else mag, width)
    length = 1 + np.searchsorted(_POW10, mag, side="right")
    digits *= np.arange(width)[:, None] >= width - length
    return np.vstack((np.uint8(45) * (v < 0), digits))


def _scaled(a: np.ndarray, ok: np.ndarray):
    """e = floor(log10 a) and y = a * _TEN[16 - e], rounded once, in
    [10^16, 10^17).  Rows whose 10^(16 - e) is not in _TEN leave ok; they
    read a = 1.5 and e = 0 from then on."""
    a[~ok] = 1.5
    e = np.clip(np.floor(np.log10(a)), -8, 16).astype(np.int64)
    y = a * _TEN[16 - e]
    off = np.flatnonzero((y < 1e16) | (y >= 1e17))
    if off.size:  # e was one off, or a is out of range
        e[off] += np.where(y[off] < 1e16, -1, 1)
        ok &= (e >= -8) & (e <= 16)
        a[~ok], e[~ok] = 1.5, 0
        y[off] = a[off] * _TEN[16 - e[off]]
    return e, y


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of x at 2^27 + 1: hi + lo == x exactly, and each
    part has at most 26 significant bits."""
    big = 134217729.0 * x
    hi = big - (big - x)
    return hi, x - hi


_TEN_HI, _TEN_LO = _split(_TEN)  # each cell's 10^(16 - e), split once


def _product_error(a: np.ndarray, s: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """a * _TEN[s] - y exactly, for y the rounded product: Dekker's exact
    product."""
    a_hi, a_lo = _split(a)
    t_hi, t_lo = _TEN_HI[s], _TEN_LO[s]
    return ((a_hi * t_hi - y) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo


def _exact(a: np.ndarray, ok: np.ndarray):
    """m, r and e with a * 10^(16 - e) == m + r / 2^56 exactly, m the
    nearest integer (ties to even) in [10^16, 10^17] and r an int64 with
    |r| <= 2^55.  Rows whose m + r / 2^56 falls outside [10^16, 10^17)
    leave ok."""
    e, y = _scaled(a, ok)
    s = 16 - e
    # y's error and a * (10^s - _TEN[s]): multiples of 2^-55, below 9;
    # the second is 0 unless s >= 23, at a cell below 1e-6
    w = (_product_error(a, s, y) * 2.0 ** 56).astype(np.int64)
    if (s >= 23).any():
        w += (a * _TEN_LOW[s]).astype(np.int64)
    step = (w + (2 ** 55 - 1) + ((w >> 56) & 1)) >> 56  # y is even
    m = y.astype(np.int64) + step
    r = w - (step << 56)
    # m + r outside [10^16, 10^17): e is off by one next to a power of ten
    floor = m - (r < 0)
    ok &= (floor >= 10 ** 16) & (floor < 10 ** 17)
    return m, r, e


def _nearest(m: np.ndarray, r: np.ndarray, digits: int) -> np.ndarray:
    """The digits-digit decimal nearest m + r / 2^56, ties to even, for
    m and r from _exact; 10^digits where m + r / 2^56 rounds up to 10^17."""
    unit = 10 ** (17 - digits)
    q = m // unit
    d = m - unit * q
    half = unit // 2
    q += (d > half) | (d == half) & ((r > 0) | (r == 0) & ((q & 1) == 1))
    return q


def _carried(q: np.ndarray, e: np.ndarray, digits: int):
    """digits-digit decimals q and their exponent e, with a q that
    rounded up to 10^digits written as 10^(digits - 1) and e + 1."""
    carry = q == 10 ** digits
    q[carry] = 10 ** (digits - 1)
    return q, e + carry


def _shortest(a: np.ndarray, ok: np.ndarray):
    """repr's digits, padded with zeros to 17 as int64, and their
    exponent."""
    m, r, e = _exact(a, ok)
    bits = a.view(np.int64)  # a = M * 2^q, q = (bits >> 52) - 1075
    s = 16 - e
    # H = 2^(q - 1) * 10^s, half the gap to the next double, in units of
    # 2^-56; half the gap to the one before is H, or H / 2 at M = 2^52
    above = _FIVE[s] << ((bits >> 52) - 1075 + s + 55)
    below = above >> ((bits & (2 ** 52 - 1)) == 0)
    even = 1 - (bits & 1)  # M even: a tie reads back as a
    lo, hi = r - below - even, r + above + even  # bounds on (C - m) * 2^56
    c16 = 10 * _nearest(m, r, 16)
    best = m
    # c16 + 10 can read back where c16 does not only at a power of two,
    # whose interval is narrower below
    for c in (c16 + 10, c16, 100 * _nearest(m, r, 15)):
        gap = (c - m) << 56
        best = np.where((lo < gap) & (gap < hi), c, best)
    return _carried(best, e, 17)


def _float_field(x: np.ndarray, fmt: str) -> np.ndarray:
    """'%.15g' (CSV) or repr (JSON) of float64 x, as the module
    docstring says; the cells it leaves are spelled by _text."""
    a = np.abs(x)
    ok = np.isfinite(a) & (a > 0)
    if fmt == "csv":
        m, r, e = _exact(a, ok)
        m, e = _carried(_nearest(m, r, 15), e, 15)
        digits, sci, point_zero = _digits(m, 15), (e < -4) | (e >= 15), 0
    else:
        m, e = _shortest(a, ok)
        sci = (e < -4) | (e >= 16)
        digits, point_zero = _digits(m, 17), ~sci
    width = len(digits)
    # Place r of the text holds chars[r] up to the point's place, "." at
    # point + 1, then chars[r - 1]; places before start and from stop are
    # gaps.  chars is "0000" and the digits.  The point goes after the
    # digit of 10^0 (fixed) or after the first digit (scientific, with an
    # exponent), the zeros after it are dropped, then a bare point;
    # point_zero keeps one zero after the point in fixed notation.
    kept = ((digits != 48)
            * np.arange(1, width + 1, dtype=np.uint8)[:, None]).max(0)
    point_e = np.where(sci, 0, e)
    point = 4 + point_e
    start = np.minimum(point, 4)  # "0.00ddd" starts at the zero before "."
    stop = 4 + np.maximum(kept, point_e + 1 + point_zero)
    stop += stop > point + 1  # the point itself
    point, start, stop = (v.astype(np.uint8) for v in (point, start, stop))
    # padded[r + 1] is chars[r]
    padded = np.zeros((width + 6, len(x)), np.uint8)
    padded[1:5] = 48
    padded[5:width + 5] = digits
    lo, hi = int(start.min()), int(stop.max())
    place = np.arange(lo, hi, dtype=np.uint8)[:, None]
    text = padded[lo + 1:hi + 1] * (place <= point)
    text += padded[lo:hi] * (place > point + 1)
    text += np.uint8(46) * (place == point + 1)
    text *= (place >= start) & (place < stop)
    parts = [np.uint8(45) * np.signbit(x)[None], text]
    if sci.any():
        mag_e = np.abs(e)
        parts.append(sci * np.array(
            [np.full(len(x), 101), np.where(e < 0, 45, 43),
             48 + mag_e // 10, 48 + mag_e % 10], np.uint8))
    field = np.vstack(parts)
    bad = np.flatnonzero(~ok)
    if bad.size:
        cells = _text_field([_text(v, fmt) for v in x[bad].tolist()])
        field = np.pad(field, ((0, max(0, len(cells) - len(field))), (0, 0)))
        field[:, bad] = 0
        field[:len(cells), bad] = cells
    return field


def _exact_in_64_bits(dtype: np.dtype) -> bool:
    """Whether int64 or float64 holds every value of dtype."""
    return (dtype.kind == "i" or dtype.kind == "u" and dtype.itemsize < 8
            or dtype.kind == "f" and dtype.itemsize <= 8)


def _field(part: Sequence, fmt: str) -> np.ndarray:
    """One column chunk as a field: a uint8 matrix whose column i holds
    cell i, NUL-padded.

    Integers in the int64 range and floats are spelled by array
    arithmetic, but for the cells _float_field leaves to _text; every
    other cell by _text.
    """
    if not (isinstance(part, np.ndarray) and _exact_in_64_bits(part.dtype)):
        cells = (part.tolist() if isinstance(part, np.ndarray) else
                 [v.item() if isinstance(v, np.generic) else v for v in part])
        kinds = set(map(type, cells))
        if kinds == {int} and -2 ** 63 <= min(cells) and max(cells) < 2 ** 63:
            part = np.array(cells, np.int64)
        elif kinds == {float}:
            part = np.array(cells)
        else:
            return _text_field([_text(v, fmt) for v in cells])
    if part.dtype.kind != "f":
        return _int_field(part.astype(np.int64, copy=False))
    return _float_field(part.astype(np.float64, copy=False), fmt)


def emit(columns: dict[str, Sequence], output_format: str, sink,
         more: Iterable[dict[str, Sequence]] = ()) -> None:
    """Write equal-length named columns to the binary sink as CSV or a
    JSON array, in UTF-8, then the rows of each chunk of columns in more,
    which have the same names.

    The CSV header or the JSON brackets are written once.  Rows go out
    _ROW_CHUNK at a time, as one byte matrix each (see the module
    docstring); no rows give a header-only CSV, or [].
    """
    if output_format == "csv":
        sink.write(",".join(_text(name, "csv")
                            for name in columns).encode() + b"\n")
        keys, lead, sep, end = [b""] * len(columns), b"", b",", b"\n"
        skip, tail = 0, b""
    elif output_format == "json":
        import json
        sink.write(b"[")
        keys = [json.dumps(name).encode() + b": " for name in columns]
        # every row is led by ",\n  "; the first row drops the comma
        lead, sep, end = b",\n  {", b", ", b"}"
        skip, tail = 1, b"\n]\n"
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    joins = [np.frombuffer(j + k, np.uint8)[:, None] for j, k
             in zip([lead] + [sep] * len(keys), keys)]
    joins.append(np.frombuffer(end, np.uint8)[:, None])
    written = False
    for chunk in chain([columns], more):
        n_rows = len(next(iter(chunk.values()), ()))
        for a in range(0, n_rows, _ROW_CHUNK):
            fields = [_field(c[a:a + _ROW_CHUNK], output_format)
                      for c in chunk.values()]
            parts = ([p for pair in zip(joins, fields) for p in pair]
                     + joins[-1:])
            rows = np.empty((fields[0].shape[1], sum(map(len, parts))),
                            np.uint8)
            at = 0
            for part in parts:
                rows[:, at:at + len(part)] = part.T
                at += len(part)
            del fields, parts
            for r in range(0, len(rows), _WRITE_ROWS):
                block = rows[r:r + _WRITE_ROWS]
                block = block[block != 0]
                sink.write(block if written else block[skip:])
                written = True
            del rows, block  # before the next chunk's fields
    sink.write(tail if written else tail.lstrip(b"\n"))


class Command(NamedTuple):
    """One subcommand: everything its parser, rows and exit code need.
    rows(args) yields column chunks from streamed sources, not sieve
    tables, and imports the library module it runs only when it runs;
    long outputs come as one chunk per chunk of primes."""

    help: str
    columns: tuple[str, ...]
    rows: Callable[[argparse.Namespace], Iterator[Sequence[Sequence]]]
    flags: tuple[tuple[str, dict[str, Any]], ...] = ()
    fails: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None


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


def _grid(args: argparse.Namespace, smallest: int) -> list[int]:
    """x values from repeated --x and/or a geometric --xmax/--points grid."""
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    xs = list(args.x or [])
    if args.xmax is not None:
        if args.xmax < smallest:
            raise ValueError(f"--xmax must be >= {smallest}")
        # past int64, np.geomspace fails with a TypeError
        if args.xmax > sieve.MAX_LIMIT:
            raise ValueError(f"--xmax must be <= 2**40, got {args.xmax}")
        # an --xmax below --xmin ends the grid at --xmax, never above it
        lo = min(max(smallest, args.xmin), args.xmax)
        raw = np.geomspace(lo, args.xmax, args.points)
        # a set, not np.unique, whose first call imports numpy.ma (~18 ms)
        xs.extend(sorted(set(raw.astype(np.int64).tolist())))
    if not xs:
        raise ValueError("no x values given (use --x or --xmax)")
    bad = [x for x in xs if x < smallest]
    if bad:
        raise ValueError(f"x must be >= {smallest}, got {bad}")
    return xs


def _x_grid(grid: Callable[[list[int], argparse.Namespace], list],
            smallest: int = 2):
    """rows(args) for a grid subcommand: the rows of grid(xs, args).

    One grid and one grid(xs, args) call, which answers every x from one
    streamed pass with the row written for it; all rows are computed
    before any is written, as one chunk.
    """
    def rows(args: argparse.Namespace) -> Iterator[list[tuple]]:
        yield list(zip(*grid(_grid(args, smallest), args)))
    return rows


def _sieve_info(args):
    """pi and theta from one pass over the primes (theta.add returns a
    prefix sum per prime), and Q from the square-divisor sum, as the
    squarefree subcommand takes it."""
    from .squarefree import squarefree_residual_grid

    limit, theta = _need(args, "limit", 2), CompensatedSum()
    count = sum(len(theta.add(np.log(p.astype(float))))
                for p in sieve.prime_chunks(limit))
    ((_, q, *_),) = squarefree_residual_grid([limit])
    yield [[limit], [count], [q], [theta.value]]


def _verify_psi(args):
    from .extrema import primorial_stream

    k = 1
    for cols in primorial_stream(sieve.prime_chunks(_need(args, "plimit", 2))):
        ks = np.arange(k, k + len(cols["p"]))
        k += len(ks)
        # the columns come in the order of verify-psi's, after k
        yield [ks, *cols.values()]


def _squarefree(xs, args):
    from .squarefree import squarefree_residual_grid

    return squarefree_residual_grid(xs)


def _harmonic(xs, args):
    from .squarefree import squarefree_harmonic_grid

    return squarefree_harmonic_grid(xs)


def _mertens(xs, args):
    from .mertens import prime_harmonic_grid

    return prime_harmonic_grid(xs)


def _progression(xs, args):
    from .mertens import prime_harmonic_progression_grid

    return prime_harmonic_progression_grid(xs, args.q, args.a)


def _oscillation(xs, args):
    from .mertens import oscillation_grid

    return oscillation_grid(xs)


def _b1(args):
    from .mertens import compute_B1

    p_limit = _need(args, "plimit", 2)
    value, tail = compute_B1(p_limit)
    yield [[p_limit], [value], [tail]]


def _dusart(xs, args):
    from .mertens import dusart_bound_grid

    return dusart_bound_grid(xs)


def _jumps(args):
    from .extrema import jump_chunks

    return jump_chunks(_need(args, "kmax", 1))


def _extremes(xs, args):
    from .extrema import psi_ratio_extremes_grid

    return psi_ratio_extremes_grid(xs)


def _classify(xs, args):
    from .extrema import classify_counts

    return classify_counts(xs)


def _dist_tail(args):
    from .extrema import distribution_tail

    yield list(zip(*distribution_tail(_need(args, "x", 2), args.t)))


def _loglog_gap(args):
    from .extrema import loglog_gap_chunks

    if args.kmax is not None and args.kmax < 2:
        raise ValueError("--kmax must be >= 2")
    if not args.k and args.kmax is None:
        raise ValueError("loglog-gap needs --k or --kmax")
    return loglog_gap_chunks(args.kmax, args.k or ())


def _gap_check(args):
    from .extrema import worst_gap

    p_limit = _need(args, "plimit", 3)
    worst_k, worst_p, worst_next, score = worst_gap(p_limit)
    yield [[p_limit], [score < 1.0], [worst_k], [worst_p], [worst_next]]


def _tail_sum(args):
    from .squarefree import primorial_divisor_tail

    tail = primorial_divisor_tail(args.x)
    yield [[args.x], [tail.numerator], [tail.denominator]]


def _constants(args):
    from . import constants

    residuals: dict[str, float] = {}
    if not args.no_crosscheck:
        residuals = dict(constants.crosscheck_constants())
    yield list(zip(*((c.name, c.decimal, residuals.get(c.name))
                     for c in map(constants.get_constant,
                                  constants.constant_names()))))


COMMANDS: dict[str, Command] = {
    "sieve-info": Command(
        "table summary: prime count, squarefree count, theta",
        ("limit", "primes", "squarefree", "theta"), _sieve_info,
        (_flag("--limit", type=int,
               help="count primes, squarefree n and theta up to here"),)),
    "verify-psi": Command(
        "scan primorials for psi ratio above threshold",
        ("k", "p_k", "log_N", "psi_ratio", "loglog_N", "threshold",
         "margin"), _verify_psi,
        (_flag("--plimit", type=int, required=True,
               help="include primorials of primes up to this bound"),),
        fails=lambda c: ~(c["margin"] > 0)),
    "squarefree": Command(
        "squarefree counts vs (6/pi^2) x",
        ("x", "Q", "main", "residual", "scaled_half", "scaled_quarter"),
        _x_grid(_squarefree, smallest=1), _GRID_FLAGS),
    "harmonic": Command(
        "squarefree harmonic sum vs (6/pi^2) log x",
        ("x", "value", "main", "residual"),
        _x_grid(_harmonic, smallest=1), _GRID_FLAGS),
    "mertens": Command(
        "prime reciprocal sum vs log log x + B1",
        ("x", "sum", "main", "residual"),
        _x_grid(_mertens), _GRID_FLAGS),
    "progression": Command(
        "prime reciprocal sum along a residue class",
        ("q", "a", "x", "sum", "b_estimate"),
        _x_grid(_progression),
        _GRID_FLAGS + (_flag("--q", type=int, required=True, help="modulus"),
                       _flag("--a", type=int, required=True,
                             help="residue"))),
    "oscillation": Command(
        "scaled deviation of the inverse Euler product",
        ("x", "g"),
        _x_grid(_oscillation), _GRID_FLAGS),
    "b1": Command(
        "recompute the prime-sum constant B1",
        ("prime_limit", "value", "tail_bound"), _b1,
        (_flag("--plimit", type=int, required=True,
               help="truncate the prime series here"),)),
    "dusart": Command(
        "explicit error bound check for the prime sum",
        ("x", "holds", "slack", "deviation", "bound", "rh_bound",
         "below_validity"),
        _x_grid(_dusart), _GRID_FLAGS,
        fails=lambda c: ~c["holds"] & ~c["below_validity"]),
    "jumps": Command(
        "psi-ratio jumps between consecutive primorials",
        ("k", "p_next", "delta"), _jumps,
        (_flag("--kmax", type=int, required=True,
               help="report jumps for k = 1..kmax"),)),
    "extremes": Command(
        "argmax/argmin of psi(n)/n over [2, x]",
        ("x", "max_n", "max_ratio", "min_n", "min_ratio"),
        _x_grid(_extremes), _GRID_FLAGS),
    "classify": Command(
        "count n with psi(n)/n above/below threshold",
        ("x", "above", "below", "x_over_logx"),
        _x_grid(_classify), _GRID_FLAGS),
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
        fails=lambda c: ~c["holds"]),
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

    def checked(chunks: Iterator[Sequence[Sequence]]):
        """Each chunk as named columns, once its rows are tested by fails."""
        nonlocal failed
        for chunk in chunks:
            columns = dict(zip(command.columns, chunk, strict=True))
            if command.fails is not None:
                failed |= bool(np.any(command.fails(
                    {name: np.asarray(c) for name, c in columns.items()})))
            yield columns

    try:
        chunks = checked(command.rows(args))
        # every validation error comes with the first chunk, before the
        # output is opened or a byte written
        first = next(chunks)
        with (open(args.output, "wb") if args.output
              else contextlib.nullcontext(sys.stdout.buffer)) as sink:
            emit(first, args.format, sink, chunks)
            sink.flush()
    except BrokenPipeError:
        # the reader left early, as under `| head`: stop quietly, with
        # stdout on devnull so that the interpreter's last flush cannot
        # fail again ("Note on SIGPIPE" in Python's signal docs)
        if not args.output:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1 if failed else 0
    except (ValueError, OverflowError, FloatingPointError, KeyError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
