import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import psitools
from psitools import cli, constants, extrema, mertens, sieve, squarefree
from psitools.cli import emit, main
from psitools.summation import CompensatedSum

from conftest import count_squarefree_exact, primorial_columns, traced_peak


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _child_env():
    """os.environ with this psitools first on PYTHONPATH."""
    src = str(Path(psitools.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(module, *argv):
    """Run python -m module argv in a fresh process on this psitools."""
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)


def test_tail_sum(capsys):
    code, out, _ = run(capsys, "tail-sum", "--x", "10")
    assert code == 0
    assert out == "x,numerator,denominator\n10,3,10\n"


def test_tail_sum_more_points(capsys):
    code, out, _ = run(capsys, "tail-sum", "--x", "6")
    assert code == 0
    assert out.splitlines()[1] == "6,1,5"
    code, out, _ = run(capsys, "tail-sum", "--x", "2")
    assert out.splitlines()[1] == "2,0,1"


@pytest.mark.parametrize("x", [10 ** 8, 2 ** 40])
def test_tail_sum_checks_x_before_any_primes(capsys, monkeypatch, x):
    # the exact tail stops at x = 52; a larger x is refused before any
    # prime is sieved, let alone tables built
    def no_primes(*args):
        raise AssertionError(f"primes sieved for {args}")

    monkeypatch.setattr(sieve, "build_sieve", no_primes)
    monkeypatch.setattr(sieve, "prime_blocks", no_primes)
    code, out, err = run(capsys, "tail-sum", "--x", str(x))
    assert code == 2
    assert out == ""
    assert err == f"error: exact tail limited to x <= 52, got {x}\n"


def test_verify_psi(capsys):
    code, out, _ = run(capsys, "verify-psi", "--plimit", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,p_k,log_N,psi_ratio,loglog_N,threshold,margin"
    assert len(lines) == 26  # header + pi(100) rows
    assert lines[1].startswith("1,2,0.693147180559945,1.5,")
    # margin stays positive on every row
    for row in lines[1:]:
        assert float(row.split(",")[-1]) > 0


def test_verify_psi_bad_plimit(capsys):
    code, _, err = run(capsys, "verify-psi", "--plimit", "0")
    assert code == 2
    assert "plimit" in err


def test_squarefree_rows(capsys):
    code, out, _ = run(capsys, "squarefree", "--x", "10", "--x", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,Q,main,residual,scaled_half,scaled_quarter"
    assert lines[1].split(",")[:2] == ["10", "7"]
    assert lines[2].split(",")[:2] == ["100", "61"]


def test_squarefree_at_2_40_reads_mu_to_2_20_alone(tmp_path):
    # Q(2^40) from the square-divisor sum over mu up to 2^20, one block:
    # the traced peak stays in block-sized memory (7.1 MiB measured)
    target = tmp_path / "q.csv"
    code, peak = traced_peak("squarefree", "--x", "1099511627776",
                             "--output", str(target))
    assert code == 0
    row = target.read_text().splitlines()[1].split(",")
    assert row[:2] == ["1099511627776", "668422917419"]
    assert int(row[1]) == squarefree.count_squarefree_formula(
        2 ** 40, sieve.build_sieve(2 ** 20))
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("x, message", [
    (0, "x must be >= 1, got [0]"),
    (2 ** 40 + 1, "x must be in [1, 2**40], got 1099511627777")])
def test_squarefree_x_outside_the_domain_exits_2(capsys, x, message):
    assert run(capsys, "squarefree", "--x", str(x)) == (
        2, "", f"error: {message}\n")


def test_harmonic_row(capsys):
    code, out, _ = run(capsys, "harmonic", "--x", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value,main,residual"
    cells = lines[1].split(",")
    assert cells[0] == "10"
    assert float(cells[1]) == pytest.approx(2.442857142857143, rel=1e-14)


def test_mertens_grid(capsys):
    code, out, _ = run(capsys, "mertens", "--xmin", "10", "--xmax", "1000", "--points", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,sum,main,residual"
    xs = [int(r.split(",")[0]) for r in lines[1:]]
    assert xs == [10, 31, 100, 316, 1000]


def test_progression_row(capsys):
    code, out, _ = run(capsys, "progression", "--x", "100", "--q", "4", "--a", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,a,x,sum,b_estimate"
    cells = lines[1].split(",")
    assert cells[:3] == ["4", "1", "100"]
    assert float(cells[3]) == pytest.approx(0.4921518665799316, rel=1e-14)


def test_progression_bad_residue(capsys):
    code, _, err = run(capsys, "progression", "--x", "100", "--q", "4", "--a", "2")
    assert code == 2
    assert "coprime" in err


def test_oscillation_row(capsys):
    code, out, _ = run(capsys, "oscillation", "--x", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,g"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.8662401921351982, rel=1e-14)


def test_b1_row(capsys):
    code, out, _ = run(capsys, "b1", "--plimit", "10000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prime_limit,value,tail_bound"
    cells = lines[1].split(",")
    assert cells[0] == "10000"
    assert float(cells[1]) == pytest.approx(0.2615021208687916, rel=1e-12)


def test_dusart_below_validity_exits_zero(capsys):
    # x below the validity threshold: bound may fail but exit stays 0
    code, out, _ = run(capsys, "dusart", "--x", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,holds,slack,deviation,bound,rh_bound,below_validity"
    cells = lines[1].split(",")
    assert cells[1] == "false"
    assert cells[-1] == "true"


def test_jumps(capsys):
    code, out, _ = run(capsys, "jumps", "--kmax", "3")
    assert code == 0
    assert out.splitlines() == [
        "k,p_next,delta",
        "1,3,0.5",
        "2,5,0.4",
        "3,7,0.342857142857143",
    ]


def test_jumps_sums_the_log_terms_once(capsys, monkeypatch):
    # one compensated sum over all k for each of the theta prefix and the
    # psi-ratio prefix, not one per k: two sums, fed the 501 primes to
    # p_501 once each
    sums = []

    class Counting(CompensatedSum):
        def __init__(self):
            super().__init__()
            self.fed = []
            sums.append(self.fed)

        def add(self, a):
            self.fed.append(len(a))
            return super().add(a)

    monkeypatch.setattr(extrema, "CompensatedSum", Counting)
    code, out, _ = run(capsys, "jumps", "--kmax", "500")
    assert code == 0
    assert len(out.splitlines()) == 501
    assert [sum(fed) for fed in sums] == [501, 501]


def test_verify_psi_rows_across_chunks(capsys):
    # 5,133 rows: the emit converts the columns in several chunks
    code, out, _ = run(capsys, "verify-psi", "--plimit", "50000")
    assert code == 0
    cols = primorial_columns(50_000)
    names = ("p", "log_N", "psi_ratio", "loglog_N", "threshold", "margin")
    expect = [
        ",".join([str(k), str(int(cols["p"][k - 1]))]
                 + ["%.15g" % float(cols[name][k - 1]) for name in names[1:]])
        for k in range(1, len(cols["p"]) + 1)]
    assert len(expect) == 5_133
    assert out.splitlines()[1:] == expect


def test_verify_psi_streams_in_bounded_memory(tmp_path):
    # 216,816 CSV and 78,498 JSON rows go out a chunk at a time, with no
    # sieve tables and no whole columns (a traced peak of 17.5 MB for the
    # CSV), and each chunk is compressed and written in slices: 2.6 MiB
    # for both, 3.8 and 4.6 MiB with each chunk compressed whole and
    # copied beside its fields
    target = tmp_path / "v.out"
    for argv, row_start, count in (
            (["--plimit", "3000000"], "\n", 216_817),
            (["--plimit", "1000000", "--format", "json"], "\n  {", 78_498)):
        code, peak = traced_peak("verify-psi", *argv, "--output", str(target))
        assert code == 0
        assert target.read_text().count(row_start) == count
        assert peak < 3.5 * 2 ** 20, argv


@pytest.mark.parametrize("command", ["extremes", "classify", "harmonic",
                                     "dusart", "mertens", "b1", "sieve-info"])
def test_grid_subcommands_hold_one_block_whatever_x(tmp_path, command):
    # one block-sized array at a time, each freed before the next block
    # is sieved, so ten times the n add less than 1 MiB to the traced
    # peak (1.1 to 3.3 MB when a block outlived the next one's sieve);
    # b1 and sieve-info take their x as --plimit and --limit
    flag = {"b1": "--plimit", "sieve-info": "--limit"}.get(command, "--x")
    target = tmp_path / "out.csv"
    peaks = []
    for x in ("1000000", "10000000"):
        code, peak = traced_peak(command, flag, x, "--output", str(target))
        assert code == 0
        assert target.read_text().splitlines()[1].startswith(x + ",")
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks


def test_verify_psi_counterexample_in_a_later_chunk(capsys, monkeypatch):
    # a margin <= 0 in the second chunk fails the run, but only after
    # every row is written
    real = extrema.primorial_stream
    hit = []

    def zero_margin_at_k5000(prime_chunks):
        k = 1
        for i, chunk in enumerate(real(prime_chunks)):
            at = 5_000 - k
            k += len(chunk["p"])
            if 0 <= at < len(chunk["p"]):
                chunk["margin"][at] = 0.0
                hit.append(i)
            yield chunk

    monkeypatch.setattr(extrema, "primorial_stream", zero_margin_at_k5000)
    code, out, _ = run(capsys, "verify-psi", "--plimit", "50000")
    assert hit == [1]
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5_134
    assert lines[5_000].startswith("5000,48611,")
    assert lines[5_000].endswith(",0")


@pytest.mark.parametrize("plimit", ["0", str(2 ** 40 + 1)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_psi_bad_plimit_writes_nothing(capsys, tmp_path, plimit, fmt):
    target = tmp_path / "v.out"
    for output in ([], ["--output", str(target)]):
        code, out, err = run(capsys, "verify-psi", "--plimit", plimit,
                             "--format", fmt, *output)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_grid_points_below_one_exits_2(capsys, points):
    code, out, err = run(capsys, "mertens", "--xmax", "1000",
                         "--points", points)
    assert code == 2
    assert out == ""
    assert err == "error: --points must be >= 1\n"


@pytest.mark.parametrize("subcommand, xmax, smallest", [
    ("mertens", "-5", 2), ("mertens", "1", 2), ("squarefree", "0", 1)])
def test_grid_xmax_below_smallest_x_exits_2(subcommand, xmax, smallest):
    # a fresh process, so that a numpy warning would reach its stderr
    done = run_module("psitools", subcommand, "--xmax", xmax)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: --xmax must be >= {smallest}\n"
    assert "Warning" not in done.stderr


@pytest.mark.parametrize("xmax", [2 ** 40 + 1, 2 ** 63, 10 ** 30])
def test_grid_xmax_past_2_40_exits_2(capsys, xmax):
    # refused before np.geomspace, which raises TypeError past int64
    code, out, err = run(capsys, "extremes", "--xmax", str(xmax))
    assert (code, out) == (2, "")
    assert err == f"error: --xmax must be <= 2**40, got {xmax}\n"


@pytest.mark.parametrize("subcommand, smallest", [("mertens", 2),
                                                  ("squarefree", 1)])
def test_grid_xmin_clamps_to_smallest_x(capsys, subcommand, smallest):
    code, out, _ = run(capsys, subcommand, "--xmin", "0", "--xmax", "1000",
                       "--points", "3")
    assert code == 0
    xs = [int(r.split(",")[0]) for r in out.splitlines()[1:]]
    assert xs[0] == smallest
    assert xs[-1] == 1000


@pytest.mark.parametrize("argv, expected", [
    (("squarefree", "--xmax", "1"), [1]),
    (("mertens", "--xmax", "2", "--points", "2"), [2]),
    (("mertens", "--xmin", "500", "--xmax", "100", "--points", "3"), [100])])
def test_grid_xmax_below_xmin_ends_at_xmax(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [int(r.split(",")[0]) for r in out.splitlines()[1:]] == expected


# ---------------------------------------------------------------------------
# Streamed x-grids against oracles read from sieve tables
# ---------------------------------------------------------------------------

_EDGE = 2 ** 20  # the first block seam of the streamed passes
_SIX = constants.get_constant("six_over_pi_sq").value


@pytest.fixture(scope="module")
def tables_past_edge():
    # to the first prime past the seam, 2^20 + 7
    return sieve.build_sieve(_EDGE + 7)


@pytest.fixture(scope="module")
def sums_past_edge(tables_past_edge):
    """(values, prefix sums) over the tables' primes and squarefree n,
    each sum the compensated prefix of one array of terms."""
    p = tables_past_edge.primes
    ns = np.flatnonzero(tables_past_edge.mobius)
    p_5_12 = p[p % 12 == 5]
    return {"prime": (p, CompensatedSum().add(1.0 / p)),
            "euler": (p, CompensatedSum().add(-np.log1p(-1.0 / p))),
            "squarefree": (ns, CompensatedSum().add(1.0 / ns)),
            "progression": (p_5_12, CompensatedSum().add(1.0 / p_5_12))}


def _per_x_row(name, x, sums):
    """The row of subcommand name at x, from the tables' prefix sums."""
    def at(key):
        """(count, sum) of the values <= x."""
        values, prefix = sums[key]
        i = int(np.searchsorted(values, x, side="right"))
        return i, float(prefix[i - 1]) if i else 0.0

    lx = math.log(x)
    if name == "squarefree":
        q = at("squarefree")[0]
        residual = q - _SIX * x
        return (x, q, _SIX * x, residual, residual / x ** 0.5,
                residual / x ** 0.25)
    if name == "harmonic":
        value = at("squarefree")[1]
        return x, value, _SIX * lx, value - _SIX * lx
    if name == "progression":
        value = at("progression")[1]
        return 12, 5, x, value, value - math.log(lx) / 4  # phi(12) = 4
    if name == "oscillation":
        main = constants.get_constant("e_gamma").value * lx
        return x, math.sqrt(x) * (float(np.exp(at("euler")[1])) - main)
    value = at("prime")[1]
    main = math.log(lx) + constants.get_constant("B1").value
    if name == "mertens":
        return x, value, main, value - main
    deviation = value - main
    bound = 1.0 / (10 * lx ** 2) + 4.0 / (15 * lx ** 3)
    return (x, abs(deviation) <= bound, bound - abs(deviation), deviation,
            bound, (3 * lx + 4) / (8 * math.pi * math.sqrt(x)),
            x < mertens.DUSART_VALIDITY_THRESHOLD)


_PER_X = ("squarefree", "harmonic", "mertens", "progression", "oscillation",
          "dusart")


@pytest.mark.parametrize("name", _PER_X)
def test_streamed_grid_rows_equal_per_x_table_calls(
        name, tables_past_edge, sums_past_edge, monkeypatch):
    # the block edges, primes (2^20 - 3, and 2^20 + 7 last, so the stream
    # must reach its top), a non-squarefree x (10^6), repeats and no
    # order; x = 1 where the subcommand takes it
    xs = [_EDGE + 1, _EDGE - 1, 10 ** 6, _EDGE, _EDGE - 3, 97, _EDGE + 1,
          10 ** 6, _EDGE + 7]
    if name in ("squarefree", "harmonic"):
        xs += [1, 2]
    count = tables_past_edge.prime_count
    assert count(_EDGE - 3) == count(_EDGE - 4) + 1
    assert count(_EDGE + 7) == count(_EDGE + 6) + 1

    def no_tables(limit):
        # progression too: phi(q) comes from trial division
        raise AssertionError(f"build_sieve({limit}) called")

    monkeypatch.setattr(sieve, "build_sieve", no_tables)
    argv = [name, *(f"--x={x}" for x in xs)]
    if name == "progression":
        argv += ["--q", "12", "--a", "5"]
    args = cli.build_parser().parse_args(argv)
    (chunk,) = cli.COMMANDS[name].rows(args)
    got = list(zip(*chunk))
    monkeypatch.undo()
    expected = [_per_x_row(name, x, sums_past_edge) for x in xs]
    # repr spells every float exactly, so equal text is equal bits
    assert repr(got) == repr(expected)


def test_streamed_sums_match_one_pass_over_the_tables(tables_past_edge):
    # an oracle that shares no chunking and no grid walk: the last
    # compensated prefix of one array of terms
    x = _EDGE + 1
    primes = tables_past_edge.primes[:tables_past_edge.prime_count(x)]
    mertens_sum = float(CompensatedSum().add(1.0 / primes)[-1])
    ns = np.flatnonzero(tables_past_edge.mobius[:x + 1])
    harmonic_sum = float(CompensatedSum().add(1.0 / ns)[-1])
    assert mertens.prime_harmonic_grid([x])[0].value == mertens_sum
    assert squarefree.squarefree_harmonic_grid([x])[0].value == harmonic_sum
    assert squarefree.squarefree_residual_grid([x])[0][1] == len(ns)


# every subcommand, with small arguments: none builds sieve tables
_SMALL_ARGV = {
    "sieve-info": ["--limit", "1000"],
    "verify-psi": ["--plimit", "1000"],
    "squarefree": ["--x", "100"],
    "harmonic": ["--x", "100"],
    "mertens": ["--x", "100"],
    "progression": ["--x", "100", "--q", "4", "--a", "1"],
    "oscillation": ["--x", "100"],
    "b1": ["--plimit", "1000"],
    "dusart": ["--x", "1000"],
    "jumps": ["--kmax", "100"],
    "extremes": ["--x", "100"],
    "classify": ["--x", "100"],
    "dist-tail": ["--x", "100", "--t", "2"],
    "loglog-gap": ["--k", "7", "--kmax", "100"],
    "gap-check": ["--plimit", "1000"],
    "tail-sum": ["--x", "30"],
    "constants": [],
}


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_no_subcommand_builds_tables(capsys, monkeypatch, name):
    def no_tables(limit):
        raise AssertionError(f"build_sieve({limit}) called")

    monkeypatch.setattr(sieve, "build_sieve", no_tables)
    code, out, err = run(capsys, name, *_SMALL_ARGV[name])
    assert code in (0, 1), err
    assert len(out.splitlines()) >= 2


_SEAMS = 2_200_000  # the limit of tables_2e6, past the seams 2^20 and 2^21


def command_rows(name, *argv):
    """The rows of subcommand name as tuples of Python scalars, and the
    number of chunks they came in."""
    args = cli.build_parser().parse_args([name, *argv])
    chunks = [[c.tolist() if isinstance(c, np.ndarray) else list(c)
               for c in chunk] for chunk in cli.COMMANDS[name].rows(args)]
    return [row for chunk in chunks for row in zip(*chunk)], len(chunks)


def test_one_row_prime_subcommands_equal_table_calls(tables_2e6):
    # repr spells every float exactly, so equal text is equal bits
    limit, primes = tables_2e6.limit, tables_2e6.primes
    assert limit == _SEAMS
    inv = 1.0 / primes
    b1 = (constants.get_constant("gamma").value
          - math.fsum((-np.log1p(-inv) - inv).tolist()))
    f = primes.astype(np.float64)
    scores = (f[1:] - f[:-1]) / f[:-1] ** constants.get_constant(
        "gap_alpha").value
    k = int(np.argmax(scores)) + 1
    expected = {
        "b1": (limit, b1, 1.0 / (limit - 1)),
        "gap-check": (limit, bool(scores[k - 1] < 1.0), k,
                      *primes[k - 1:k + 1].tolist()),
        "sieve-info": (limit, len(primes),
                       count_squarefree_exact(limit),
                       float(CompensatedSum().add(np.log(f))[-1])),
    }
    for name, row in expected.items():
        flag = "--limit" if name == "sieve-info" else "--plimit"
        assert repr(command_rows(name, flag, str(limit))[0]) == repr([row])


def test_streamed_primorial_rows_equal_table_calls(tables_2e6):
    # p_k and p_{k+1} run past 2^21, so the streamed primes cross two
    # block seams and many 2^16-prime chunks
    primes = tables_2e6.primes
    f = primes.astype(np.float64)
    kmax = len(primes) - 1
    assert primes[kmax] > 2 ** 21
    rows, chunks = command_rows("jumps", "--kmax", str(kmax))
    assert chunks > 2
    ratios = np.exp(CompensatedSum().add(np.log1p(1.0 / f)))
    expected = zip(range(1, kmax + 1), primes[1:].tolist(),
                   (ratios[:-1] / f[1:]).tolist())
    assert repr(rows) == repr(list(expected))

    picks = [kmax + 1, 155_612, 82_026, 2, 155_612, 9]
    ks = picks + list(range(2, kmax + 2))
    rows, chunks = command_rows(
        "loglog-gap", *(f"--k={k}" for k in picks), "--kmax", str(kmax + 1))
    assert chunks > 3
    p_k = primes.tolist()
    log_n = CompensatedSum().add(np.log(f)).tolist()
    expected = [(k, p_k[k - 1], math.log(math.log(p_k[k - 1]))
                 - math.log(math.log(log_n[k - 1]))) for k in ks]
    assert repr(rows) == repr(expected)


def test_tail_sum_and_constants_rows_equal_table_calls(tables_1e4, tables_1e6):
    for x in (2, 30, 52):
        ps = tables_1e4.primes[tables_1e4.primes <= x].tolist()
        big_p = math.prod(ps)
        divisors = [math.prod(c) for r in range(len(ps) + 1)
                    for c in itertools.combinations(ps, r)]
        tail = Fraction(sum(big_p // d for d in divisors if d > x), big_p)
        assert command_rows("tail-sum", "--x", str(x))[0] == [
            (x, tail.numerator, tail.denominator)]
    value = {name: constants.get_constant(name).value for name in
             ("gamma", "B1", "six_over_pi_sq", "e_gamma", "threshold")}
    f = tables_1e6.primes.astype(np.float64)
    b1 = value["gamma"] - math.fsum((-np.log1p(-1.0 / f) - 1.0 / f).tolist())
    six = float(np.exp(math.fsum(np.log1p(-1.0 / f ** 2).tolist())))
    residuals = {
        "gamma": abs(constants._gamma_from_harmonic() - value["gamma"]),
        "B1": abs(b1 - value["B1"]),
        "six_over_pi_sq": abs(six - value["six_over_pi_sq"]),
        "threshold": abs(value["e_gamma"] * value["six_over_pi_sq"]
                         - value["threshold"]),
    }
    rows, _ = command_rows("constants")
    assert {name: r for name, _, r in rows if r is not None} == residuals


def test_grid_subcommands_do_not_import_numpy_ma():
    # np.unique's first call imports numpy.ma, about 19 ms and 1.4 MB
    src = str(Path(psitools.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from psitools.cli import main\n"
        "for argv in (['harmonic', '--xmax', '1000', '--points', '4'],\n"
        "             ['extremes', '--xmax', '1000', '--points', '4'],\n"
        "             ['dusart', '--xmin', '100', '--xmax', '3000']):\n"
        "    assert main(argv + ['--output', sys.argv[1]]) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, os.devnull],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


# what importing psitools.cli loads of psitools: every subcommand streams
# through sieve and summation
_BARE_IMPORT = {"psitools", "psitools.cli", "psitools.sieve",
                "psitools.summation"}
# a tiny run of every subcommand, grouped by the modules it loads beyond
# _BARE_IMPORT; "--format json" adds json from that run on
_IMPORT_SETS = {
    "bare": ((), []),
    "extrema": (("psitools.extrema", "psitools.constants"), [
        "verify-psi --plimit 30", "jumps --kmax 5", "extremes --x 100",
        "classify --x 100", "dist-tail --x 100 --t 2", "loglog-gap --kmax 5",
        "gap-check --plimit 30"]),
    "squarefree": (("psitools.squarefree", "psitools.constants"), [
        "sieve-info --limit 100", "squarefree --x 100"]),
    "harmonic": (("psitools.squarefree", "psitools.constants", "decimal"),
                 ["harmonic --x 100"]),
    "tail-sum": (("psitools.squarefree", "psitools.constants", "fractions",
                  "decimal"), ["tail-sum --x 10"]),
    "mertens": (("psitools.mertens", "psitools.constants"), [
        "mertens --x 100", "oscillation --x 100", "dusart --x 100",
        "b1 --plimit 100"]),
    "progression": (("psitools.mertens", "psitools.constants",
                     "psitools.arith"),
                    ["progression --x 100 --q 4 --a 1"]),
    "constants": (("psitools.constants",), [
        "constants --no-crosscheck",
        "constants --no-crosscheck --format json"]),
}
# one line after the import and after each run: its exit code (none after
# the import), then the psitools and watched modules loaded since start
_IMPORTS_CHILD = """\
import os, sys
before = set(sys.modules)
from psitools import cli
watched = {"fractions", "decimal", "json", "dataclasses"}

def loaded():
    return " ".join(sorted(m for m in set(sys.modules) - before
                           if m.startswith("psitools") or m in watched))

print("-", loaded())
for argv in sys.argv[1:]:
    print(cli.main(argv.split() + ["--output", os.devnull]), loaded())
"""


def test_import_sets_cover_every_subcommand():
    assert {argv.split()[0] for _, runs in _IMPORT_SETS.values()
            for argv in runs} == set(cli.COMMANDS)


@pytest.mark.parametrize("group", list(_IMPORT_SETS))
def test_each_run_imports_only_its_own_modules(group):
    # importing psitools.cli loads sieve and summation alone, and none of
    # fractions, decimal, json or dataclasses; each subcommand adds only
    # the library modules it runs, and JSON output adds json
    added, runs = _IMPORT_SETS[group]
    done = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD, *runs],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert lines[0] == ["-", *sorted(_BARE_IMPORT)]
    want = _BARE_IMPORT | set(added)
    for argv, (code, *modules) in zip(runs, lines[1:], strict=True):
        want |= {"json"} if "--format json" in argv else set()
        assert code in ("0", "1"), (argv, done.stderr)
        assert modules == sorted(want), argv


def test_extremes_row(capsys):
    code, out, _ = run(capsys, "extremes", "--x", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,max_n,max_ratio,min_n,min_ratio"
    assert lines[1].split(",")[:4] == ["100", "30", "2.4", "97"]


def test_classify_row(capsys):
    code, out, _ = run(capsys, "classify", "--x", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,above,below,x_over_logx"
    cells = lines[1].split(",")
    assert cells[:3] == ["100", "56", "43"]
    assert float(cells[3]) == pytest.approx(100 / 4.605170185988092, rel=1e-12)


def test_dist_tail(capsys):
    code, out, _ = run(capsys, "dist-tail", "--x", "10", "--t", "1.9", "--t", "2.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,t,fraction"
    assert lines[1] == "10,1.9,0.111111111111111"
    assert lines[2] == "10,2,0"


def test_dist_tail_infinite_and_nan_thresholds(capsys):
    code, out, _ = run(capsys, "dist-tail", "--x", "10", "--t=-inf",
                       "--t", "inf")
    assert code == 0
    assert out == "x,t,fraction\n10,-inf,1\n10,inf,0\n"
    code, out, err = run(capsys, "dist-tail", "--x", "10", "--t", "nan")
    assert code == 2
    assert out == ""
    assert "NaN" in err


def test_dist_tail_infinite_thresholds_json(capsys):
    # non-finite floats are spelled as json.dumps spells them
    code, out, _ = run(capsys, "dist-tail", "--x", "10", "--t=-inf",
                       "--t", "inf", "--format", "json")
    assert code == 0
    rows = [{"x": 10, "t": float("-inf"), "fraction": 1.0},
            {"x": 10, "t": float("inf"), "fraction": 0.0}]
    assert out == "[\n  " + ",\n  ".join(map(json.dumps, rows)) + "\n]\n"
    assert '"t": -Infinity' in out and '"t": Infinity' in out


def test_dist_tail_negative_thresholds_need_equals(capsys):
    # argparse takes -inf and -1e5 for option strings unless attached
    code, out, _ = run(capsys, "dist-tail", "--x", "10", "--t=-1e5",
                       "--t", "-2.5")
    assert code == 0
    assert out == "x,t,fraction\n10,-100000,1\n10,-2.5,1\n"
    for t in ("-inf", "-1e5"):
        code, out, err = run(capsys, "dist-tail", "--x", "10", "--t", t)
        assert code == 2
        assert out == ""
        assert "expected one argument" in err


def test_loglog_gap_single(capsys):
    code, out, _ = run(capsys, "loglog-gap", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,p_k,gap"
    assert lines[1].split(",")[:2] == ["3", "5"]
    assert float(lines[1].split(",")[2]) == pytest.approx(0.2736566167458503, rel=1e-12)


def test_loglog_gap_range(capsys):
    code, out, _ = run(capsys, "loglog-gap", "--kmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert [r.split(",")[0] for r in lines[1:]] == ["2", "3", "4", "5"]


@pytest.mark.parametrize("k", ["-5", "1"])
def test_loglog_gap_small_k_exits_2(capsys, k):
    code, out, err = run(capsys, "loglog-gap", "--k", "4", "--k", k)
    assert code == 2
    assert out == ""
    assert err == f"error: k must be >= 2 (inner log undefined), got {k}\n"


@pytest.mark.parametrize("kmax", ["1", "-5"])
def test_loglog_gap_small_kmax_exits_2(capsys, kmax):
    code, out, err = run(capsys, "loglog-gap", "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert err == "error: --kmax must be >= 2\n"


def test_gap_check_reports_violation(capsys):
    code, out, _ = run(capsys, "gap-check", "--plimit", "100")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "p_limit,holds,worst_k,worst_p,worst_next"
    assert lines[1] == "100,false,4,7,11"


def test_gap_check_passing_range(capsys):
    code, out, _ = run(capsys, "gap-check", "--plimit", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "true"


def test_sieve_info(capsys):
    code, out, _ = run(capsys, "sieve-info", "--limit", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "limit,primes,squarefree,theta"
    cells = lines[1].split(",")
    assert cells[:3] == ["1000", "168", "608"]


def test_constants_no_crosscheck(capsys):
    code, out, _ = run(capsys, "constants", "--no-crosscheck")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,decimal,residual"
    names = [r.split(",")[0] for r in lines[1:]]
    assert names == ["gamma", "B1", "six_over_pi_sq", "e_gamma",
                     "threshold", "zeta2", "gap_alpha"]
    # residual column left empty without the recomputation pass
    assert all(r.endswith(",") for r in lines[1:])


def test_json_output_matches_csv(capsys):
    code, csv_out, _ = run(capsys, "harmonic", "--x", "10")
    code2, json_out, _ = run(capsys, "harmonic", "--x", "10", "--format", "json")
    assert code == code2 == 0
    data = json.loads(json_out)
    assert isinstance(data, list) and len(data) == 1
    row = data[0]
    assert list(row) == ["x", "value", "main", "residual"]
    cells = csv_out.splitlines()[1].split(",")
    assert row["x"] == 10
    assert float(cells[1]) == pytest.approx(row["value"], rel=1e-14)


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "jumps", "--kmax", "3", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "k,p_next,delta"


def test_output_unwritable(capsys):
    code, _, err = run(capsys, "harmonic", "--x", "10",
                       "--output", "/nonexistent-dir/x.csv")
    assert code == 2
    assert "error" in err


# verify-psi's own fails, or one made to pick the row k = 3
_FAILS_AT_K3 = (
    "import sys\n"
    "from psitools import cli\n"
    "cli.COMMANDS['verify-psi'] = cli.COMMANDS['verify-psi']._replace(\n"
    "    fails=lambda c: c['k'] == 3)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def _verify_psi_child(entry, plimit, stdout):
    """verify-psi --plimit plimit in a child whose stdout is
    block-buffered, as it is by default on a pipe."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, *entry, "verify-psi", "--plimit", str(plimit)],
        stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("entry, code", [(["-m", "psitools"], 0),
                                         (["-c", _FAILS_AT_K3], 1)],
                         ids=["module", "counterexample"])
def test_closed_pipe_stops_quietly(entry, code):
    # the reader takes two lines and leaves, as `| head -2` does: nothing
    # on stderr, and exit 1 only if a row checked so far was a
    # counterexample
    child = _verify_psi_child(entry, 10_000_000, subprocess.PIPE)
    lines = [child.stdout.readline() for _ in range(2)]
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == code, err
    assert lines[0] == b"k,p_k,log_N,psi_ratio,loglog_N,threshold,margin\n"
    assert lines[1].startswith(b"1,2,")
    assert err == b""


def test_pipe_closed_before_any_output_stops_quietly():
    # the whole output fits stdout's buffer, and the reader is gone
    # before it is flushed: the flush fails in main, and the
    # interpreter's last flush must not fail again (it would print
    # "Exception ignored" and exit 120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = _verify_psi_child(["-m", "psitools"], 100, write_end)
    os.close(write_end)
    err = child.stderr.read()
    assert child.wait(timeout=60) == 0, err
    assert err == b""


def test_emit_empty_records_writes_header():
    sink = io.BytesIO()
    emit({"a": [], "b": np.array([])}, "csv", sink)
    assert sink.getvalue() == b"a,b\n"


def test_emit_json_empty():
    sink = io.BytesIO()
    emit({"a": [], "b": np.array([])}, "json", sink)
    assert sink.getvalue() == b"[]\n"
    assert json.loads(sink.getvalue()) == []


def test_emit_cells_match_csv_and_json_modules():
    # one row per cell type, and mixed types within a column, spelled
    # as csv.writer (%.15g floats) and json.dumps spell them
    rows = [(1, 0.1, None, "plain", True),
            (-7, float("inf"), 2.5, 'a,"b"', False),
            (2 ** 70, float("-inf"), np.float64(1 / 3), "x\ny", np.bool_(1)),
            (np.int64(3), float("nan"), 4, "%s %d", None)]
    names = ["i", "f", "mixed", "s%", "b"]
    columns = {name: [row[j] for row in rows] for j, name in enumerate(names)}
    py = [[v.item() if isinstance(v, np.generic) else v for v in row]
          for row in rows]

    sink = io.BytesIO()
    emit(columns, "json", sink)
    expect = "[\n  " + ",\n  ".join(
        json.dumps(dict(zip(names, row))) for row in py) + "\n]\n"
    assert sink.getvalue().decode() == expect

    def csv_cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return "%.15g" % v
        return "" if v is None else v

    sink, want = io.BytesIO(), io.StringIO()
    emit(columns, "csv", sink)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([csv_cell(v) for v in row] for row in py)
    assert sink.getvalue().decode() == want.getvalue()


def test_emit_text_cells_utf8_and_nul():
    # non-ASCII text is written as UTF-8; NUL is emit's gap byte, so a
    # CSV cell holding one is refused rather than shortened (JSON
    # escapes it)
    columns = {"s": ["π ≈ 3.14", "a\0b"]}
    sink = io.BytesIO()
    emit(columns, "json", sink)
    assert [r["s"] for r in json.loads(sink.getvalue())] == columns["s"]
    sink = io.BytesIO()
    emit({"s": columns["s"][:1]}, "csv", sink)
    assert sink.getvalue() == "s\nπ ≈ 3.14\n".encode()
    with pytest.raises(ValueError, match="NUL"):
        emit(columns, "csv", io.BytesIO())


class RecordingSink(io.BytesIO):
    """A binary sink that keeps a bytes copy of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(memoryview(data)))  # bytes-like or raise
        return super().write(data)


def test_emit_chunks_match_one_chunk(monkeypatch):
    # a float column whose only non-finite value sits in a later chunk
    columns = {"k": np.arange(10), "v": np.linspace(0.0, 1.0, 10)}
    columns["v"][7] = np.inf
    whole = {}
    for fmt in ("csv", "json"):
        sink = io.BytesIO()
        emit(columns, fmt, sink)
        whole[fmt] = sink.getvalue().decode()
    for row_chunk, write_rows in ((3, cli._WRITE_ROWS), (1 << 12, 1),
                                  (1 << 12, 3), (3, 1)):
        monkeypatch.setattr(cli, "_ROW_CHUNK", row_chunk)
        monkeypatch.setattr(cli, "_WRITE_ROWS", write_rows)
        for fmt, row_end in (("csv", b"\n"), ("json", b"}")):
            # the same rows as one chunk, and as an empty first chunk and
            # more chunks of 4: the header or brackets are written once,
            # and only the first row written drops JSON's leading comma
            for first, more in (
                    (columns, ()),
                    ({name: c[:0] for name, c in columns.items()},
                     ({name: c[a:a + 4] for name, c in columns.items()}
                      for a in range(0, 10, 4)))):
                sink = RecordingSink()
                emit(first, fmt, sink, more)
                assert sink.getvalue().decode() == whole[fmt]
                assert max(w.count(row_end)
                           for w in sink.writes) <= write_rows
    assert '"v": Infinity' in whole["json"]


def emitted_cells(values, fmt="csv"):
    """The cells emit writes for a one-column table, in row order."""
    sink = io.BytesIO()
    emit({"v": values}, fmt, sink)
    if fmt == "json":
        return [row["v"] for row in json.loads(sink.getvalue())]
    return sink.getvalue().decode().split("\n")[1:-1]


def float_cases():
    rng = np.random.default_rng(20261018)
    n = 20_000
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    magnitudes = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-10, 17, n)
    # near halfway at 15 digits, and exact binary fractions, some of
    # which are exact halfway cases at 15 digits
    halves = ((rng.integers(0, 10 ** 15, n) + 0.5)
              / 10.0 ** rng.integers(0, 23, n))
    dyadic = (rng.integers(1, 2 ** 53, n).astype(np.float64)
              * 2.0 ** rng.integers(-60, 1, n))
    tens = np.array([10.0 ** j for j in range(-30, 31)]
                    + [float(10 ** j) for j in range(31)])
    tens = np.concatenate([tens, np.nextafter(tens, 0),
                           np.nextafter(tens, np.inf)])
    # [1e-8, 1e-6), the array path's two lowest decades, and [1e15, 1e17)
    # below its upper end; every power of two; and exact ties at the 15th
    # digit in [1e15, 2^54), integers ending in 5, or in 50 above 1e16
    edges = np.concatenate([rng.uniform(1, 100, n) * 1e-8,
                            rng.uniform(1, 100, n) * 1e15,
                            np.ldexp(1.0, np.arange(-1074, 1024))])
    ties = np.concatenate([rng.integers(10 ** 14, 10 ** 15, n) * 10 + 5,
                           rng.integers(10 ** 14, 2 ** 54 // 100, n) * 100
                           + 50]).astype(np.float64)
    return {"bits": bits, "magnitudes": magnitudes, "halves": halves,
            "dyadic": dyadic, "tens": np.concatenate([tens, -tens]),
            "edges": np.concatenate([edges, -edges]),
            "ties": np.concatenate([ties, -ties])}


@pytest.mark.parametrize("name", sorted(float_cases()))
def test_csv_float_cells_are_printf_15g(name):
    values = float_cases()[name]
    assert emitted_cells(values) == ["%.15g" % v for v in values.tolist()]


def test_csv_float_halfway_cases_go_to_even():
    # the first nine are exact doubles halfway between two 15-digit
    # decimals, after an even and an odd 15th digit, in fixed and in
    # scientific notation (the last two of them 2^-22 and 3 * 2^-22); the
    # rest sit next to a carry or a change of notation
    values = [12345678901234.25, 12345678901234.75, 1234567890123.125,
              1234567890123445.0, 1234567890123455.0, 12345678901234450.0,
              12345678901234550.0, 2.0 ** -22, 3 * 2.0 ** -22,
              0.5, 2.5, 99999999999999.95, 999999999999999.5, 5e-5,
              0.000123456789012345, 99999999999999984.0]
    # at e = -8 no double is a 15-digit tie: one would be an odd multiple
    # of 2^-23, which is above 1e-7.  The doubles nearest the ties after
    # an even and an odd 15th digit fall below them; the next ones up are
    # above.
    near = [1.234567890123445e-08, 1.234567890123455e-08,
            9.876543210987655e-08, 5.000000000000015e-08]
    values += near + [math.nextafter(v, 1) for v in near]
    assert emitted_cells(values) == ["%.15g" % v for v in values]
    assert emitted_cells(values)[:9] == [
        "12345678901234.2", "12345678901234.8", "1234567890123.12",
        "1.23456789012344e+15", "1.23456789012346e+15",
        "1.23456789012344e+16", "1.23456789012346e+16",
        "2.38418579101562e-07", "7.15255737304688e-07"]
    assert emitted_cells(values)[-8:] == [
        "1.23456789012344e-08", "1.23456789012345e-08",
        "9.87654321098765e-08", "5.00000000000001e-08",
        "1.23456789012345e-08", "1.23456789012346e-08",
        "9.87654321098766e-08", "5.00000000000002e-08"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@example([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
          -1.7976931348623157e308, 1e-8, 1e15, 99999999999999.99])
def test_csv_float_cells_match_printf_for_any_floats(values):
    for column in (values, np.array(values)):
        assert emitted_cells(column) == ["%.15g" % v for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_json_float_cells_are_repr(values):
    sink = io.BytesIO()
    emit({"v": np.array(values)}, "json", sink)
    cells = [line[len('  {"v": '):].rstrip(",}")
             for line in sink.getvalue().decode().splitlines()[1:-1]]
    assert cells == [repr(v) for v in values]



def json_cells(values):
    """The text of each cell emit writes for a one-column JSON table."""
    sink = io.BytesIO()
    emit({"v": values}, "json", sink)
    return [line[len('  {"v": '):].rstrip(",}")
            for line in sink.getvalue().decode().splitlines()[1:-1]]


def repr_cases():
    rng = np.random.default_rng(20261019)
    n = 20_000
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.5e-310, 0.0])
    subnormal = np.concatenate([tiny, rng.integers(
        1, 2 ** 52, 2_000, dtype=np.uint64).view(np.float64)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    # n-digit decimals, n = 1..17 (odd, so the last digit counts), at
    # exponents around the exact range
    mantissas = [int(rng.integers(10 ** (d - 1), 10 ** d)) | 1
                 for d in rng.integers(1, 18, n)]
    shifts = rng.integers(-25, 20, n)
    digits = np.array([float(f"{m}e{s}") for m, s in zip(mantissas, shifts)])
    # decimals one half unit past 15 and 16 digits: the double lands on
    # either side of the half, or on it
    halves = np.array([float(f"{rng.integers(10 ** (d - 1), 10 ** d)}"
                             f"{'50' if d == 15 else '5'}e{s}")
                       for d, s in zip(rng.integers(15, 17, n),
                                       rng.integers(-22, 2, n))])
    # j / 8 in [2^46, 1e14) is exactly halfway between two 16-digit
    # decimals that both read back: repr takes the even one
    ties = (rng.integers(2 ** 49, 8 * 10 ** 14, 2_000) // 2 * 2 + 1) / 8
    # 16-digit candidates next to 2^53 = 9007199254740992, scaled
    near = np.array([float(f"{2 ** 53 + k}e{s}") for k in range(-40, 41)
                     for s in (-20, -16, -8, -1, 0, 1)])
    near = np.concatenate([near, np.nextafter(near, 0),
                           np.nextafter(near, np.inf)])
    # odd 16-digit candidates in (2^53, 10^16), which no double equals:
    # log_N of verify-psi lies in [9e5, 1e6) at --plimit 1e6
    odd16 = np.array([float(f"{k}e{s}") for s in (-25, -16, -10, -3, 0)
                      for k in rng.integers(2 ** 52, 10 ** 16 // 2, 2_000)
                      * 2 + 1])
    # repr switches to scientific notation at e < -4 and e >= 16
    switches = np.array([float(f"{m}e{e}") for e in (-6, -5, -4, -3, 14, 15,
                                                     16, 17)
                         for m in ("1", "9.999", "1.2345678901234567",
                                   "9.999999999999999", "9.9999999999999999",
                                   "5", "1.5")])
    integral = np.array([1.0, 2.0, 10.0, 123.0, 1e15, 1e16, 1e17, 1e22,
                         123456789012345.0, 1234567890123456.0,
                         9007199254740992.0, 9007199254740994.0,
                         12345678901234568.0, 99999999999999990.0])
    tens = np.array([10.0 ** j for j in range(-30, 31)])
    tens = np.concatenate([tens, np.nextafter(tens, 0),
                           np.nextafter(tens, np.inf)])
    cases = {"bits": bits, "subnormal": subnormal, "powers": powers,
             "digits": digits, "halves": halves, "ties": ties,
             "near_2_53": near, "odd16": odd16, "switches": switches,
             "integral": integral, "tens": tens}
    return {name: np.concatenate([v, -v]) for name, v in cases.items()}


@pytest.mark.parametrize("name", sorted(repr_cases()))
def test_json_float_cells_are_shortest_repr(name):
    values = repr_cases()[name]
    assert json_cells(values) == [json.dumps(v) for v in values.tolist()]


def test_json_float_cases_cover_every_length_and_tie():
    # the cases above reach what they are meant to reach
    cases = repr_cases()
    lengths = {len(repr(v).split("e")[0].lstrip("-0.").replace(".", ""))
               for v in cases["digits"].tolist()}
    assert lengths == set(range(1, 18))
    odd16 = [repr(v).split("e")[0].lstrip("-0.").replace(".", "")
             for v in cases["odd16"].tolist()]
    assert sum(len(d) == 16 and int(d[-1]) % 2 == 1 for d in odd16) > 5_000
    ties = cases["ties"][:5].tolist()
    assert all(len(repr(v)) == 17 and int(repr(v)[-1]) % 2 == 0
               for v in ties)
    cells = set(json_cells(np.concatenate(
        [cases["switches"], cases["integral"]])))
    assert {"1e-05", "0.0001", "1e+16", "1000000000000000.0", "123.0",
            "-1e-06", "9.999e-05", "1e+22"} <= cells


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@example([0.0, -0.0, float("nan"), 5e-324, 1e-5, 1e16, 0.5, 2.0 ** 60,
          70368744177664.125, 9007199254740993e-16])
def test_json_float_cells_match_json_dumps_for_any_floats(values):
    for column in (values, np.array(values)):
        assert json_cells(column) == [json.dumps(v) for v in values]


def spelled_one_by_one(monkeypatch, values, fmt):
    """The cells of a one-column table that emit spells through
    _text_field, after checking every cell against %.15g or json.dumps."""
    spelled = []
    real = cli._text_field

    def counting(texts):
        spelled.extend(texts)
        return real(texts)

    monkeypatch.setattr(cli, "_text_field", counting)
    if fmt == "csv":
        assert emitted_cells(values) == ["%.15g" % v for v in values.tolist()]
    else:
        assert json_cells(values) == [json.dumps(v) for v in values.tolist()]
    return spelled


# zeros, non-finite values, magnitudes outside [1e-8, 1e17) and 1e-6, whose
# m + r is just below 10^16, are left to _text; the cells around them are
# not, nor these, at rows 10 and up: powers of two, an odd 16-digit
# candidate above 2^53, the ends of [1e-8, 1e-6), and the tie 2^-22
UNDECIDED = {3: np.nan, 500: np.inf, 999: -np.inf, 4: -0.0, 5: 9e-9,
             6: 1e17, 7: 1e-6}
DECIDED = {10: 2.0, 11: 0.5, 12: 2.0 ** -24, 13: 9.071234567890123,
           14: 1e-8, 15: 1e-7, 16: 9.99e-7, 17: 2.0 ** -22}


def undecided_table(filler):
    """The 1,000 values filler with UNDECIDED and DECIDED in their rows."""
    values = filler.copy()
    for cells in (UNDECIDED, DECIDED):
        values[list(cells)] = list(cells.values())
    return values


def test_json_cells_left_to_repr_are_only_the_undecided(monkeypatch):
    values = undecided_table(np.linspace(1.1, 7.3, 1_000))
    values[18] = 9.5  # 15 digits read back: no 16-digit candidate needed
    values[19] = 9.071234567890126  # an even 16-digit candidate
    spelled = spelled_one_by_one(monkeypatch, values, "json")
    assert sorted(spelled) == sorted(map(json.dumps, UNDECIDED.values()))


def test_csv_cells_left_to_printf_are_only_the_undecided(monkeypatch):
    # the cells of [1e-8, 1e-6) stay on the array path, as jumps' deltas
    # past k = 1,156,932 need
    values = undecided_table(np.geomspace(1e-8, 1e-6, 1_000, endpoint=False))
    spelled = spelled_one_by_one(monkeypatch, values, "csv")
    assert sorted(spelled) == sorted("%.15g" % v for v in UNDECIDED.values())


INT64 = (-2 ** 63, 2 ** 63 - 1)


def test_int_cells_are_printf_d_over_int64():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        np.array([0, -1, 1, 9, -9, 10, -10, *INT64], np.int64),
        rng.integers(*INT64, 20_000, dtype=np.int64, endpoint=True),
        rng.integers(-10 ** 6, 10 ** 6, 5_000, dtype=np.int64)])
    expect = ["%d" % v for v in values.tolist()]
    assert emitted_cells(values) == expect
    assert emitted_cells(values, "json") == values.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(*INT64), min_size=1, max_size=40))
def test_int_cells_match_printf_d_for_any_int64(values):
    for column in (values, np.array(values, np.int64)):
        assert emitted_cells(column) == ["%d" % v for v in values]


def test_csv_float_cells_round_trip(capsys):
    # %.15g cells parse back to floats that reprint identically
    code, out, _ = run(capsys, "mertens", "--xmax", "1000", "--points", "6")
    assert code == 0
    for row in out.splitlines()[1:]:
        for cell in row.split(",")[1:]:
            assert "%.15g" % float(cell) == cell


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "no-such-op")
    assert code == 2


def test_jump_forms_disagreeing_exits_2(capsys, monkeypatch):
    # a NaN psi ratio makes jump_chunks' two forms disagree: a numerical
    # failure is exit 2, since exit 1 means only a counterexample
    real = extrema.primorial_stream

    def nan_at_k3(prime_chunks):
        for i, columns in enumerate(real(prime_chunks)):
            if i == 0:
                columns["psi_ratio"][2] = np.nan
            yield columns

    monkeypatch.setattr(extrema, "primorial_stream", nan_at_k3)
    code, out, err = run(capsys, "jumps", "--kmax", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: jump forms disagree at k=3: nan vs ")


def test_allocation_failure_exits_2(capsys, monkeypatch):
    # a block too large for memory is a usage error, not a counterexample
    def no_memory(lo, hi):
        raise MemoryError(f"cannot allocate a block of [{lo}, {hi})")
        yield

    monkeypatch.setattr(sieve, "prime_blocks", no_memory)
    code, out, err = run(capsys, "sieve-info", "--limit", str(2 ** 40))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot allocate")


@pytest.mark.parametrize("kmax, message", [
    (10 ** 11, "limit must be in [2, 2**40]")])
def test_loglog_gap_oversized_kmax_exits_2_before_building_k(
        capsys, kmax, message):
    # the prime stream is sized, and refused, before any of the kmax ks
    # exist
    code, peak = traced_peak("loglog-gap", "--kmax", str(kmax))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err
    assert peak < 2 ** 20


@pytest.mark.parametrize("module", ["psitools", "psitools.cli"])
def test_module_entry_point(module):
    done = run_module(module, "tail-sum", "--x", "10")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "x,numerator,denominator\n10,3,10\n"


# ---------------------------------------------------------------------------
# the exit-code contract over every subcommand, with argv drawn from its
# flags

_BEYOND = st.sampled_from([2 ** 40 + 1, 2 ** 62, 2 ** 63, 10 ** 30])
# values that sieve, sum or count up to them: kept small, or past 2**40,
# where each is refused before any sieving; two in three are in range
_SIZE = st.integers(-3, 3000) | st.integers(2, 3000) | _BEYOND
# prime counts (kmax, k) and moduli: 2**40 is refused before sieving too,
# as its count needs primes past 2**40 and its modulus only primes to 2**20
_COUNT = _SIZE | st.just(2 ** 40)
_FLAG_VALUES = {
    "--limit": _SIZE, "--plimit": _SIZE, "--x": _SIZE, "--xmax": _SIZE,
    "--xmin": _SIZE, "--points": st.integers(-1, 30), "--kmax": _COUNT,
    "--k": _COUNT, "--q": st.integers(-3, 100) | st.just(2 ** 40) | _BEYOND,
    "--a": st.integers(-3, 40),
    "--t": st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
}
# the crosscheck sums 1/n to 1e8; one real run serves every example
_CROSSCHECK = functools.cache(constants.crosscheck_constants)


@st.composite
def _argv(draw, name, out_dir):
    """argv for subcommand name: each of its flags left out, or given
    once (a repeatable flag up to three times), more often given than
    not."""
    argv = [name]
    flags = [(flag, kwargs.get("action")) for flag, kwargs
             in cli.COMMANDS[name].flags]
    for flag, action in flags:
        if action == "store_true":
            if draw(st.booleans()):
                argv.append(flag)
            continue
        times = draw(st.sampled_from((0, 1, 1, 2, 3) if action == "append"
                                     else (0, 1, 1)))
        for value in draw(st.lists(_FLAG_VALUES[flag], min_size=times,
                                   max_size=times)):
            # "--t -inf" is an option string to argparse; "--t=-inf" not
            argv += (([f"{flag}={value}"] if draw(st.booleans())
                      else [flag, str(value)]))
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    output = draw(st.sampled_from(
        [None, None, "out.csv", ".", "missing/out.csv"]))
    if output is not None:
        argv += ["--output", str(out_dir / output)]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exit_code_contract(out_dir, name, data):
    # every run ends in 0, 1 or 2 with no traceback, and in 1 only where
    # the subcommand's fails marked a row
    argv = data.draw(_argv(name, out_dir))
    fired = []
    command = cli.COMMANDS[name]

    def fails(columns):
        marks = command.fails(columns)
        fired.append(bool(np.any(marks)))
        return marks

    patched = command._replace(
        fails=None if command.fails is None else fails)
    err = io.StringIO()
    with (mock.patch.dict(cli.COMMANDS, {name: patched}),
          mock.patch.object(constants, "crosscheck_constants", _CROSSCHECK),
          contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())),
          contextlib.redirect_stderr(err)):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    # a row may fail before a later error (an unwritable --output) exits 2
    assert code != 1 or any(fired), (argv, fired)
    assert code != 0 or not any(fired), (argv, fired)
