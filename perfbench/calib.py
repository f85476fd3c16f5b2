"""Reference kernels that calibrate the benchmark's times to the host's speed.

    calib.py python    # interpreter-bound: a generator, csv and json text
    calib.py numpy     # memory-bound: a 1e7 sieve and prefix sums

The runner starts one of these as a fresh child between the workload's
invocations, so each invocation is bracketed by two reference runs made
under the same host conditions.  The kernels do a fixed amount of work
that does not depend on psitools or on the seed; the child prints a
SHA-256 of what it computed, which the runner checks against DIGESTS.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import sys

# wall seconds of each kernel's child, interpreter start included, on an
# uncontended 2-core Intel Xeon VM (Python 3.11, numpy 2.4); a calibrated
# time is a measured time scaled by NOMINAL_S / the bracketing reference
NOMINAL_S = {"python": 0.55, "numpy": 0.3}
# SHA-256 of each kernel's result, which no host or seed changes
DIGESTS = {
    "python": "15f1e782deac16db5dc28d85bdbd8e925feedfa339e78b1106d0662aec7ae73e",
    "numpy": "32b4d9adc42fcb8d815ececd76515f9008c6a2652e1ec16af96ce7bcb8bcb263",
}


def python_kernel() -> bytes:
    """Tuples from a generator over numpy values, written as csv and json."""
    import numpy as np

    values = np.arange(1, 70_001, dtype=np.int64)

    def rows():
        for i in range(values.size):
            n = int(values[i])
            yield n, n % 7, n * 1.000001, n / 3.0

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    records = []
    for n, r, x, y in rows():
        writer.writerow([n, r, repr(x), repr(y)])
        if r == 0:
            records.append(json.dumps({"n": n, "x": x, "y": y}))
    return buf.getvalue().encode() + "\n".join(records).encode()


def numpy_kernel() -> bytes:
    """Eratosthenes to 1e7 with strided writes, then int64 prefix sums."""
    import numpy as np

    limit = 10 ** 7
    marks = np.ones(limit + 1, dtype=bool)
    marks[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if marks[p]:
            marks[p * p::p] = False
    counts = np.cumsum(marks, dtype=np.int64)
    return counts[::1000].tobytes()


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in KERNELS:
        print(f"usage: calib.py {{{','.join(KERNELS)}}}", file=sys.stderr)
        return 2
    print(hashlib.sha256(KERNELS[argv[0]]()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
