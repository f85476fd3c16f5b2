"""Span recorder for the traced pass, kept outside the program's source.

A child process creates one Recorder, records an ``import`` span around
importing psitools, then calls ``install``.  ``install`` replaces every
public function of each layer module with a wrapper that records a span
(name, start, end, parent) and rebinds the wrapper wherever a psitools
module refers to the original, so calls made through ``from .arith
import psi_table`` are caught as well.  For generator functions the
span times each ``__next__``.

Spans are kept in compact arrays and written once, by ``Recorder.dump``,
when the child ends.  ``load_spans`` and ``aggregate`` run in the
benchmark's parent process and turn the spans of one pass into per-name
calls, total time and self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import operator
import sys
from array import array
from time import perf_counter

# the layers are the modules of src/psitools, in dependency order
LAYERS = ("summation", "constants", "sieve", "arith", "squarefree",
          "mertens", "extrema", "cli")

_FIELDS = (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"),
           ("count", "q"))


class Recorder:
    """Spans of one process, appended in start order.

    ``count`` holds the first positional argument of a function call when
    it is an integer (the size of the work, such as x or the sieve limit),
    -1 otherwise; for a generator's ``__next__`` it is 1 when an item was
    yielded and 0 at exhaustion.  ``nbytes`` maps a span index to the total
    ``nbytes`` of the array fields of the object the call returned.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.arrays = {field: array(code) for field, code in _FIELDS}
        self.nbytes: dict[int, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, count: int = -1) -> int:
        arrs = self.arrays
        idx = len(arrs["start"])
        arrs["name"].append(name_id)
        arrs["parent"].append(self._stack[-1] if self._stack else -1)
        arrs["count"].append(count)
        arrs["end"].append(0.0)
        self._stack.append(idx)
        arrs["start"].append(perf_counter())
        return idx

    def close(self, idx: int, count: int | None = None) -> None:
        self.arrays["end"][idx] = perf_counter()
        self._stack.pop()
        if count is not None:
            self.arrays["count"][idx] = count

    def dump(self, path: str) -> None:
        """One JSON header line, then each field's raw array in order."""
        header = {"names": self.names, "spans": len(self.arrays["start"]),
                  "fields": [list(f) for f in _FIELDS],
                  "nbytes": {str(k): v for k, v in self.nbytes.items()}}
        with open(path, "wb") as sink:
            sink.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.arrays[field].tofile(sink)


def _array_bytes(result) -> int:
    fields = getattr(result, "__dict__", None) or {}
    return sum(v.nbytes for v in fields.values()
               if hasattr(v, "nbytes") and hasattr(v, "dtype"))


def _wrap_function(rec: Recorder, fn, name_id: int):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            size = operator.index(args[0]) if args else -1
        except TypeError:
            size = -1
        idx = rec.open(name_id, size)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        nbytes = _array_bytes(result)
        if nbytes:
            rec.nbytes[idx] = nbytes
        return result
    return wrapper


def _wrap_generator(rec: Recorder, fn, name_id: int):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = rec.open(name_id)
            try:
                item = next(it)
            except StopIteration:
                rec.close(idx, 0)
                return
            except BaseException:
                rec.close(idx)
                raise
            rec.close(idx, 1)
            yield item
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions for the rest of the process."""
    modules = {layer: importlib.import_module(f"psitools.{layer}")
               for layer in LAYERS}
    targets = [m for name, m in sys.modules.items()
               if (name == "psitools" or name.startswith("psitools."))
               and m is not None]
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrap = (_wrap_generator if inspect.isgeneratorfunction(fn)
                    else _wrap_function)
            replacement = wrap(rec, fn, rec.name_id(f"{layer}.{attr}"))
            for target in targets:
                for key in [k for k, v in vars(target).items() if v is fn]:
                    setattr(target, key, replacement)


def load_spans(path: str) -> dict:
    """Read a dump written by Recorder.dump into numpy arrays."""
    import numpy as np

    with open(path, "rb") as source:
        header = json.loads(source.readline())
        n = header["spans"]
        spans = {field: np.fromfile(source, dtype=np.dtype(code), count=n)
                 for field, code in header["fields"]}
    spans["names"] = header["names"]
    spans["nbytes"] = {int(k): v for k, v in header["nbytes"].items()}
    return spans


def aggregate(spans: dict) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s, count_sum, count_max, nbytes_max.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded spans nest, so the children lie inside it.
    The key ``""`` carries the process totals: ``top_s`` (time covered by
    spans with no parent), ``first_start``/``last_end``, the span count,
    and ``nesting_ok``, whether every child lies inside its parent.
    """
    import numpy as np

    start, end = spans["start"], spans["end"]
    name, parent, count = spans["name"], spans["parent"], spans["count"]
    n = len(start)
    dur = end - start
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=n)
    self_s = dur - child_s
    par = parent[has_parent]
    nesting_ok = bool(np.all(start[has_parent] >= start[par])
                      and np.all(end[has_parent] <= end[par])
                      and np.all(dur >= 0))
    out: dict[str, dict] = {
        "": {"spans": n, "top_s": float(dur[~has_parent].sum()),
             "first_start": float(start.min()) if n else None,
             "last_end": float(end.max()) if n else None,
             "nesting_ok": nesting_ok}}
    for nid, label in enumerate(spans["names"]):
        mask = name == nid
        if not mask.any():
            continue
        counts = count[mask]
        sized = [v for i, v in spans["nbytes"].items() if name[i] == nid]
        out[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_s[mask].sum()),
            "count_sum": int(counts[counts > 0].sum()),
            "count_max": int(counts.max()),
            "nbytes_max": max(sized, default=0),
        }
    return out
