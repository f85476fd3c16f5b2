#!/usr/bin/env python3
"""The psitools benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload primorial-emit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke     # every workload at tiny size, seconds
    python3 perfbench/run.py --record    # rewrite expected.json from this code

Run from the root of a checkout that holds src/psitools.  One client runs
one child process at a time (a closed loop); each child is one CLI
invocation, or one part of the library run of beyond-table, with numpy's
thread pools held to one thread.  Passes repeat while the next one can
end within --seconds.  A reference kernel (calib.py) runs before and
after every child, and the end-to-end times are calibrated by it, because
the host's speed drifts within and between runs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
runs the same untraced passes, then one traced pass, and prints the
per-layer metrics.  Every invocation's exit code, row count and output
SHA-256 are checked against expected.json after the timed region.  The
last line of stdout is the result object; see README.md for the rest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"
# metric names and units are read from here, so the two cannot disagree
SPEC = ROOT / "BENCHMARK.json"
CLI_MAIN = ("import sys; from psitools.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
# set-up probes run at the start of every untraced pass, so that they
# sample the whole run rather than its first seconds
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150
MB = 1e6

# CLI workloads: the argv of each invocation, without --output
CLI_WORKLOADS = {
    "full": {
        "primorial-emit": (
            ("verify-psi", "--plimit", "3000000"),
            ("verify-psi", "--plimit", "1000000", "--format", "json"),
        ),
        "grid-scan": (
            ("extremes", "--xmin", "100000", "--xmax", "10000000",
             "--points", "4"),
            ("classify", "--xmin", "100000", "--xmax", "10000000",
             "--points", "4"),
            ("harmonic", "--xmin", "1000", "--xmax", "10000000",
             "--points", "12"),
            ("dusart", "--xmin", "1000", "--xmax", "10000000",
             "--points", "20"),
        ),
    },
    "smoke": {
        "primorial-emit": (
            ("verify-psi", "--plimit", "30000"),
            ("verify-psi", "--plimit", "10000", "--format", "json"),
        ),
        "grid-scan": (
            ("extremes", "--xmin", "1000", "--xmax", "100000",
             "--points", "4"),
            ("classify", "--xmin", "1000", "--xmax", "100000",
             "--points", "4"),
            ("harmonic", "--xmin", "100", "--xmax", "100000",
             "--points", "12"),
            ("dusart", "--xmin", "100", "--xmax", "100000",
             "--points", "20"),
        ),
    },
}

# beyond-table: base sieve, formula range, windows at offsets near equally
# spaced anchors in [offset_lo, offset_hi), with sqrt(offset_hi) <= base
BEYOND = {
    "full": {"base": 2_000_000, "range": 1_000_000, "window": 1 << 20,
             "windows": 3, "offset_lo": 10 ** 12, "offset_hi": 4 * 10 ** 12,
             "spot": 8},
    "smoke": {"base": 20_000, "range": 10_000, "window": 1 << 12,
              "windows": 3, "offset_lo": 10 ** 8, "offset_hi": 4 * 10 ** 8,
              "spot": 8},
}
# a window's offset is drawn from the first 1/BAND_DIV of its stratum
BAND_DIV = 64

WORKLOADS = ("primorial-emit", "grid-scan", "beyond-table")
THROUGHPUT = {"primorial-emit": "rows_per_s", "grid-scan": "points_per_s",
              "beyond-table": "n_per_s"}
# the reference kernel whose speed tracks each workload's (see calib.py)
CALIB_KIND = {"primorial-emit": "python", "grid-scan": "numpy",
              "beyond-table": "python"}
REF_KEY = "reference"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PSITOOLS_THREADS", None)
    return env


def spawn(cmd: list[str], stem: str) -> dict:
    """Run one child to completion; its own rusage comes from wait4."""
    out_path, err_path = WORK / f"{stem}.stdout", WORK / f"{stem}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return {"stem": stem, "exit": proc.returncode, "start": start,
            "end": end, "wall_s": end - start,
            "rss_kb": usage.ru_maxrss, "problems": problems}


def output_digest(path: Path, fmt: str) -> dict:
    """Rows, bytes and SHA-256 of an output file, read in chunks.

    The file is never held whole, so this process stays small: a child's
    ru_maxrss starts from the peak RSS of the process that spawned it.
    The CLI writes one row per line; its JSON is a "[" line, one line per
    record and a "]" line.
    """
    digest, size, newlines = hashlib.sha256(), 0, 0
    try:
        with open(path, "rb") as src:
            for chunk in iter(lambda: src.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
                newlines += chunk.count(b"\n")
    except OSError:
        pass
    rows = max(newlines - (2 if fmt == "json" else 1), 0)
    return {"rows": rows, "bytes": size, "sha256": digest.hexdigest()}


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_format(argv) -> str:
    return "json" if "json" in argv else "csv"


# --------------------------------------------------------------------------
# passes

def cli_pass(invocations, expected: dict, rng: random.Random,
             label: str, traced: bool, after_each) -> dict:
    order = list(range(len(invocations)))
    rng.shuffle(order)
    runs = []
    for i in order:
        argv = invocations[i]
        stem = f"{label}-{i}"
        output = WORK / f"{stem}.{cli_format(argv)}"
        spans = WORK / f"{stem}.spans"
        for stale in (output, spans):
            stale.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "--spans",
                   str(spans), "cli", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        run = spawn(cmd + ["--output", str(output)], stem)
        run.update(key=cli_key(argv), fmt=cli_format(argv),
                   output=str(output), spans=str(spans) if traced else None)
        runs.append(run)
        after_each(run)
    # outside the timed region: hash every output and compare
    for run in runs:
        digest = output_digest(Path(run["output"]), run["fmt"])
        run.update(rows=digest["rows"], bytes=digest["bytes"])
        want = expected[run["key"]]
        if digest["bytes"] == 0:
            run["problems"].append("empty output")
        for field, got in (("exit", run["exit"]), ("rows", digest["rows"]),
                           ("sha256", digest["sha256"])):
            if got != want[field]:
                run["problems"].append(
                    f"{field} {got!r} != recorded {want[field]!r}")
    return {"runs": runs, "wall_s": sum(r["wall_s"] for r in runs)}


def beyond_offsets(spec: dict, rng: random.Random) -> list[int]:
    """One window offset near the start of each equal stratum.

    Window cost grows with the primes up to sqrt(offset), so each offset
    is drawn from a band 1/BAND_DIV of a stratum wide: sqrt moves by less
    than 1% within a band, and the cost of a pass does not depend on the
    seed, while the integers scanned and checked do.
    """
    lo, hi, k = spec["offset_lo"], spec["offset_hi"], spec["windows"]
    step = (hi - lo) // k
    return [rng.randrange(lo + i * step, lo + i * step + step // BAND_DIV)
            for i in range(k)]


def beyond_pass(spec: dict, offsets: list[int], spot_seed: int,
                rng: random.Random, label: str, traced: bool,
                after_each) -> dict:
    """One child for the formula range and one for each window.

    Each child builds the base sieve itself.  Short children let the
    reference runs on either side of each follow the host's speed.
    """
    parts = [("range", [])] + [(f"window-{i}", [lo])
                               for i, lo in enumerate(offsets)]
    order = list(range(len(parts)))
    rng.shuffle(order)
    runs = []
    for i in order:
        part, los = parts[i]
        stem = f"{label}-{part}"
        out, spans = WORK / f"{stem}.json", WORK / f"{stem}.spans"
        for stale in (out, spans):
            stale.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py")]
        if traced:
            cmd += ["--spans", str(spans)]
        cmd += ["beyond", "--out", str(out), "--base", str(spec["base"]),
                "--range", str(spec["range"] if part == "range" else 0),
                "--window", str(spec["window"]), "--spot", str(spec["spot"]),
                "--spot-seed", str(spot_seed + i)]
        for lo in los:
            cmd += ["--lo", str(lo)]
        run = spawn(cmd, stem)
        run.update(key=f"beyond-{part}", rows=0, bytes=0, out=str(out),
                   los=los, spans=str(spans) if traced else None)
        runs.append(run)
        after_each(run)
    # outside the timed region: read each child's checks
    for run in runs:
        problems = run["problems"]
        if run["exit"] != 0:
            problems.append(f"exit {run['exit']}")
        try:
            result = json.loads(Path(run["out"]).read_text())
        except (OSError, ValueError):
            problems.append("no result written")
            result = {"formula_range_ok": None, "windows": []}
        if run["key"] == "beyond-range" and not result["formula_range_ok"]:
            problems.append("formula range != cumulative Mobius tally")
        if [w["lo"] for w in result["windows"]] != run["los"]:
            problems.append("windows missing")
        for w in result["windows"]:
            if w["squarefree"] != w["formula"]:
                problems.append(f"window {w['lo']}: squarefree count "
                                f"{w['squarefree']} != formula "
                                f"{w['formula']}")
            if not w["spot_ok"]:
                problems.append(f"window {w['lo']}: spf/mu spot check "
                                "failed")
        run["checks"] = result
    return {"runs": runs, "wall_s": sum(r["wall_s"] for r in runs)}


# --------------------------------------------------------------------------
# workload

class Workload:
    """One workload at one size: its passes, set-up probe and work count."""

    def __init__(self, name: str, size: str, seed: int,
                 expected: dict) -> None:
        self.name, self.size, self.seed = name, size, seed
        self.rng = random.Random(f"{name}:{seed}")
        if name == "beyond-table":
            self.spec = BEYOND[size]
            self.offsets = beyond_offsets(self.spec, self.rng)
            self.spot_seed = self.rng.randrange(2 ** 32)
            self.work = (self.spec["range"]
                         + self.spec["windows"] * self.spec["window"])
            self.setup_code = ("import psitools.cli; "
                               "from psitools.sieve import build_sieve; "
                               f"build_sieve({self.spec['base']})")
        else:
            self.invocations = CLI_WORKLOADS[size][name]
            self.expected = expected[size][name]
            # one output row per primorial (primorial-emit) or grid point
            self.work = sum(self.expected[cli_key(a)]["rows"]
                            for a in self.invocations)
            self.setup_code = "import psitools.cli"

    def run_pass(self, number: int, traced: bool,
                 after_each=lambda run: None) -> dict:
        """One pass; after_each(run) is called as each child ends."""
        label = f"{self.name}-{'traced' if traced else number}"
        if self.name == "beyond-table":
            return beyond_pass(self.spec, self.offsets, self.spot_seed,
                               self.rng, label, traced, after_each)
        return cli_pass(self.invocations, self.expected, self.rng, label,
                        traced, after_each)

    def setup_probe(self, number: int) -> dict:
        run = spawn([sys.executable, "-c", self.setup_code],
                    f"{self.name}-setup-{number}")
        run["key"] = "setup"
        if run["exit"] != 0:
            run["problems"].append(f"exit {run['exit']}")
        return run

    def reference(self, number: int) -> dict:
        """One run of this workload's reference kernel (see calib.py)."""
        kind = CALIB_KIND[self.name]
        stem = f"{self.name}-ref-{number}"
        run = spawn([sys.executable, str(BENCH / "calib.py"), kind], stem)
        run["key"] = REF_KEY
        digest = (WORK / f"{stem}.stdout").read_text().strip()
        if run["exit"] != 0 or digest != calib.DIGESTS[kind]:
            run["problems"].append(f"reference kernel {kind}: exit "
                                   f"{run['exit']}, digest {digest!r}")
        return run

    def working_set(self) -> dict:
        """Largest computed array footprint of one invocation, in MB."""
        def tables(limit: int) -> int:
            # spf int32 + mobius int8 per n; primes int64 + theta float64
            return (limit + 1) * 5 + prime_count(limit) * 16

        if self.name == "beyond-table":
            spec = self.spec
            # segment block: spf int64, mobius int8, residual int64 per n
            parts = {"tables": tables(spec["base"]),
                     "segment_block": spec["window"] * 17,
                     "formula_range": (spec["range"] + 1) * 8}
        else:
            limit = max(int(a[a.index(flag) + 1]) for a in self.invocations
                        for flag in ("--plimit", "--xmax") if flag in a)
            parts = {"tables": tables(limit)}
            if self.name == "primorial-emit":
                # seven float64 columns, one entry per prime
                parts["primorial_columns"] = prime_count(limit) * 7 * 8
            else:
                parts["psi_table"] = (limit + 1) * 8
        return {k: round(v / MB, 3) for k, v in parts.items()}


def prime_count(limit: int) -> int:
    import numpy as np

    marks = np.ones(limit + 1, dtype=bool)
    marks[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if marks[p]:
            marks[p * p::p] = False
    return int(marks.sum())


# --------------------------------------------------------------------------
# trace aggregation

def trace_metrics(traced: dict, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, plus the per-span-name table.

    overhead is the calibrated wall of the traced pass minus that of a
    typical untraced pass.
    """
    import tracer

    table: dict[str, dict] = {}
    psi_max_sum = 0
    top_s = 0.0
    nesting_ok = True
    for run in traced["runs"]:
        try:
            agg = tracer.aggregate(tracer.load_spans(run["spans"]))
        except (OSError, ValueError):
            run["problems"].append("no spans written")
            continue
        totals = agg.pop("")
        top_s += totals["top_s"]
        nesting_ok &= totals["nesting_ok"]
        if totals["spans"]:
            nesting_ok &= (totals["first_start"] >= run["start"]
                           and totals["last_end"] <= run["end"])
        psi_max_sum += agg.get("arith.psi_table", {}).get("count_max", 0)
        for name, row in agg.items():
            acc = table.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] = (max(acc[field], value)
                              if field.endswith("_max") else acc[field] + value)

    def get(name: str, field: str):
        return table.get(name, {}).get(field, 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    wall = traced["wall_s"]
    uncovered = wall - top_s
    self_total = sum(row["self_s"] for row in table.values())
    rows = sum(run["rows"] for run in traced["runs"])
    psi_calls = get("arith.psi_table", "calls")
    seg_yields = get("sieve.segment_scan", "count_sum")
    metrics = {
        "cli.emit.self_s": get("cli.emit", "self_s"),
        "cli.emit.rows": rows,
        "cli.emit.bytes": sum(run["bytes"] for run in traced["runs"]),
        "cli.emit.rows_per_s": rate(rows, get("cli.emit", "total_s")),
        "extrema.primorial_stream.s": get("extrema.primorial_stream",
                                          "total_s"),
        "extrema.verify_theorem1.s": get("extrema.verify_theorem1",
                                         "total_s"),
        "summation.compensated_cumsum.calls": get(
            "summation.compensated_cumsum", "calls"),
        "summation.compensated_cumsum.s": get(
            "summation.compensated_cumsum", "total_s"),
        "arith.psi_table.calls": psi_calls,
        "arith.psi_table.s": get("arith.psi_table", "total_s"),
        # psi_table(x) fills x + 1 entries
        "arith.psi_table.n_total": get("arith.psi_table", "count_sum")
        + psi_calls,
        "arith.psi_table.redundancy": rate(
            get("arith.psi_table", "count_sum"), psi_max_sum),
        "extrema.psi_ratio_extremes.self_s": get(
            "extrema.psi_ratio_extremes", "self_s"),
        "extrema.classify_range.self_s": get("extrema.classify_range",
                                             "self_s"),
        "squarefree.squarefree_harmonic.s": get(
            "squarefree.squarefree_harmonic", "total_s"),
        "mertens.dusart_bound_check.s": get("mertens.dusart_bound_check",
                                            "total_s"),
        "sieve.build_sieve.s": get("sieve.build_sieve", "total_s"),
        "sieve.build_sieve.n_per_s": rate(
            get("sieve.build_sieve", "count_sum")
            + get("sieve.build_sieve", "calls"),
            get("sieve.build_sieve", "total_s")),
        "sieve.tables_mb": get("sieve.build_sieve", "nbytes_max") / MB,
        "sieve.segment_scan.s": get("sieve.segment_scan", "total_s"),
        "sieve.segment_scan.n_per_s": rate(
            seg_yields, get("sieve.segment_scan", "total_s")),
        "squarefree.count_squarefree_formula_range.s": get(
            "squarefree.count_squarefree_formula_range", "total_s"),
        "squarefree.count_squarefree_formula.s": get(
            "squarefree.count_squarefree_formula", "total_s"),
        "import_s": get("import", "total_s"),
        "trace.wall_s": wall,
        "trace.uncovered_s": uncovered,
        "trace.overhead_s": overhead,
    }
    summary = {"spans": table, "self_total_s": self_total,
               "uncovered_s": uncovered, "wall_s": wall,
               "identity_error_s": self_total + uncovered - wall,
               "nesting_ok": nesting_ok}
    return metrics, summary


# --------------------------------------------------------------------------
# provenance

def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str | None:
    head = read_text(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = read_text(str(ROOT / ".git" / ref)).strip()
    if sha:
        return sha
    for line in read_text(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "psitools").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def loadavg() -> list[float]:
    return [float(v) for v in read_text("/proc/loadavg").split()[:3]]


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = read_text(str(index / "level")).strip()
        kind = read_text(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = read_text(str(index / "size")).strip()
    return sizes


def meminfo_total() -> str:
    for line in read_text("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return line.split(":", 1)[1].strip()
    return ""


def provenance(workload: Workload, load_start: list[float]) -> dict:
    import numpy as np

    cpu = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = cache_sizes()
    l3 = caches.get("L3", "")
    l3_mb = (float(l3[:-1]) * 1024 / MB if l3.endswith("K")
             else float(l3[:-1]) * 2 ** 20 / MB if l3.endswith("M") else None)
    working = workload.working_set()
    return {
        "workload": workload.name, "size": workload.size,
        "seed": workload.seed,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "caches": caches, "mem_total": meminfo_total(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "working_set_mb_computed": working,
        "working_set_mb_total": round(sum(working.values()), 3),
        "l3_mb": l3_mb,
    }


# --------------------------------------------------------------------------
# one run

def bracket(timeline: list[dict]) -> None:
    """Give every run the mean wall of the references on either side of it.

    The host's speed drifts by up to 1.7x over tens of seconds, so each
    run is scaled by the reference kernel runs made just before and just
    after it rather than by a figure for the whole run.
    """
    before, pending = None, []
    for run in timeline:
        if run["key"] != REF_KEY:
            pending.append(run)
            continue
        for waiting in pending:
            waiting["ref_s"] = (run["wall_s"] if before is None
                                else (before + run["wall_s"]) / 2)
        before, pending = run["wall_s"], []
    for waiting in pending:
        waiting["ref_s"] = before


def run_workload(name: str, size: str, seed: int, seconds: float,
                 trace: bool, probes: bool, expected: dict) -> dict:
    load_start = loadavg()
    workload = Workload(name, size, seed, expected)
    nominal = calib.NOMINAL_S[CALIB_KIND[name]]
    per_pass = PROBES_PER_PASS if probes else 0
    timeline = [workload.reference(0)]

    def after_each(run: dict) -> None:
        timeline.append(run)
        timeline.append(workload.reference(len(timeline)))

    setup, passes = [], []
    began = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        probed = [workload.setup_probe(len(setup) + i)
                  for i in range(per_pass)]
        setup += probed
        timeline += probed
        passes.append(workload.run_pass(len(passes), False, after_each))
        # start no pass that might not end within --seconds, keeping room
        # for the traced pass, which takes longer than an untraced one
        end = time.perf_counter()
        longest = max(longest, end - start)
        if end - began + longest * (2.5 if trace else 1.0) > seconds:
            break
    traced = workload.run_pass(0, True, after_each) if trace else None
    bracket(timeline)

    refs = [r for r in timeline if r["key"] == REF_KEY]
    runs = refs + setup + [r for p in passes + [traced] if p
                           for r in p["runs"]]
    failed = sum(1 for r in runs if r["problems"])
    walls = [p["wall_s"] for p in passes]
    # a typical pass: the median of each invocation, summed, so that one
    # slow child does not move the whole pass; calibrated times divide
    # each child's wall by its bracketing references first
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for run in (r for p in passes for r in p["runs"]):
        raw.setdefault(run["key"], []).append(run["wall_s"])
        scaled.setdefault(run["key"], []).append(run["wall_s"]
                                                 / run["ref_s"])
    wall = sum(statistics.median(v) for v in raw.values())
    cal_wall = nominal * sum(statistics.median(v) for v in scaled.values())
    setup_raw = setup_cal = None
    if setup:
        setup_raw = statistics.median(r["wall_s"] for r in setup)
        setup_cal = nominal * statistics.median(r["wall_s"] / r["ref_s"]
                                                for r in setup)
    peaks = [max(r["rss_kb"] for r in p["runs"]) * 1024 / MB for p in passes]
    result = {
        "provenance": provenance(workload, load_start),
        "passes": len(passes), "pass_walls_s": walls,
        "attempted": len(runs), "failed": failed,
        "problems": {r["stem"]: r["problems"] for r in runs if r["problems"]},
        "end_to_end": {
            "cal_wall_s": cal_wall,
            "setup_s": setup_cal,
            "cal_work_per_s": workload.work / cal_wall,
            "peak_rss_mb": statistics.median(peaks),
        },
        "raw": {"wall_s": wall, "setup_s": setup_raw,
                "work_per_s": workload.work / wall,
                "reference_kind": CALIB_KIND[name],
                "reference_nominal_s": nominal,
                "reference_s": [r["wall_s"] for r in refs],
                # must stay below every child's peak; see output_digest
                "parent_maxrss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / MB},
        "work_per_pass": workload.work,
        "throughput_name": THROUGHPUT[name],
    }
    if traced:
        cal_traced = nominal * sum(r["wall_s"] / r["ref_s"]
                                   for r in traced["runs"])
        metrics, summary = trace_metrics(traced, cal_traced - cal_wall)
        result["per_layer"] = metrics
        result["trace"] = summary
        if not summary["nesting_ok"] or abs(
                summary["identity_error_s"]) > 1e-6:
            result["failed"] += 1
            result["problems"]["trace"] = ["spans do not nest or add up"]
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines naming each metric with its unit."""
    prov = result["provenance"]
    e2e, raw = result["end_to_end"], result["raw"]
    refs = raw["reference_s"]
    lines = [f"# {prov['workload']} ({prov['size']}) seed={prov['seed']}: "
             f"{result['passes']} untraced passes, closed loop, one client",
             f"#   reference    {raw['reference_kind']} kernel, "
             f"{len(refs)} runs, median {statistics.median(refs):.4f} s, "
             f"nominal {raw['reference_nominal_s']} s",
             f"#   cal_wall_s   {e2e['cal_wall_s']:.4f} s   sum of "
             "per-invocation medians of wall / reference x nominal",
             f"#   wall_s       {raw['wall_s']:.4f} s   uncalibrated; passes "
             + ", ".join(f"{w:.3f}" for w in result["pass_walls_s"])]
    if e2e["setup_s"] is not None:
        lines.append(f"#   setup_s      {e2e['setup_s']:.4f} s   calibrated "
                     f"median of fresh interpreters to psitools.cli "
                     f"imported (uncalibrated {raw['setup_s']:.4f} s)")
    lines += [
        f"#   cal_work_per_s {e2e['cal_work_per_s']:.1f} 1/s  "
        f"({result['throughput_name']}: {result['work_per_pass']} per pass;"
        f" uncalibrated {raw['work_per_s']:.1f} 1/s)",
        f"#   peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB  highest single child",
        f"#   fail_ratio   {result['failed'] / result['attempted']:.4g}   "
        f"({result['failed']} of {result['attempted']} children)"]
    for stem, problems in result["problems"].items():
        lines.append(f"#   FAILED {stem}: {'; '.join(problems)}")
    if "trace" in result:
        trace = result["trace"]
        lines.append(f"#   traced pass: wall {trace['wall_s']:.4f} s = self "
                     f"{trace['self_total_s']:.4f} s + uncovered "
                     f"{trace['uncovered_s']:.4f} s; overhead "
                     f"{result['per_layer']['trace.overhead_s']:.4f} s")
        lines.append("#   span                                          "
                     "calls     total_s      self_s")
        for name, row in sorted(trace["spans"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"#   {name:<44} {row['calls']:>7} "
                         f"{row['total_s']:>11.4f} {row['self_s']:>11.4f}")
    return lines


def final_line(result: dict, trace: bool) -> str:
    spec = json.loads(SPEC.read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    values = result["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}})


# --------------------------------------------------------------------------
# entry points

def record() -> int:
    """Run each CLI invocation once and store exit, rows and SHA-256."""
    expected: dict = {}
    for size, workloads in CLI_WORKLOADS.items():
        for name, invocations in workloads.items():
            entry = expected.setdefault(size, {}).setdefault(name, {})
            for i, argv in enumerate(invocations):
                output = WORK / f"record-{i}.{cli_format(argv)}"
                output.unlink(missing_ok=True)
                run = spawn([sys.executable, "-c", CLI_MAIN, *argv,
                             "--output", str(output)], f"record-{i}")
                digest = output_digest(output, cli_format(argv))
                if run["problems"] or not digest["bytes"]:
                    print(f"error: {cli_key(argv)}: {run['problems']}",
                          file=sys.stderr)
                    return 1
                entry[cli_key(argv)] = {"exit": run["exit"],
                                        "rows": digest["rows"],
                                        "sha256": digest["sha256"]}
    expected["recorded_from"] = {"git_commit": git_commit(),
                                 "source_sha256": source_digest()}
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def smoke(seed: int, expected: dict) -> int:
    ok = True
    for name in WORKLOADS:
        result = run_workload(name, "smoke", seed, 0, True, True, expected)
        print("\n".join(describe(result)))
        ok &= result["failed"] == 0
    print("smoke: all correct" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current code")
    args = parser.parse_args(argv)
    if not (SRC / "psitools" / "cli.py").is_file():
        print(f"error: no psitools source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record()
    for needed in (EXPECTED, SPEC):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    expected = json.loads(EXPECTED.read_text())
    if args.smoke:
        return smoke(args.seed, expected)
    if not args.workload:
        parser.error("--workload is required")
    result = run_workload(args.workload, "full", args.seed, args.seconds,
                          bool(args.trace), not args.trace, expected)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(describe(result)))
    print(json.dumps({"provenance": result["provenance"]}))
    print(final_line(result, bool(args.trace)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
