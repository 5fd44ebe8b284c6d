"""Span recorder for the traced run, attached from outside the package.

Each traced boundary is a name that one circulant module looks up in
another module's globals at call time, so replacing the global with a
timing wrapper records every call that crosses it without touching src/.
Spans live in flat in-memory arrays and are written out once, at the end.
"""
from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter_ns


# (module, global name) pairs wrapped in the traced run.  Modules are
# fetched with import_module because circulant/__init__ rebinds the
# attribute circulant.distance to the function of that name.
BOUNDARIES = (
    ("circulant.cli", "diameter_exact"),
    ("circulant.cli", "diameter_formula"),
    ("circulant.cli", "bounds_report"),
    ("circulant.cli", "oracle_diameter"),
    ("circulant.diameter", "distance_range"),
    ("circulant.distance", "distance_from_zero"),
    ("circulant.distance", "wrap_limit"),
    ("circulant.distance", "bounds_report"),
    ("circulant.distance", "realize_path"),
    ("circulant.distance", "translate_endpoints"),
    ("circulant.formulas", "decompose"),
    ("circulant.oracle", "build_adjacency"),
    ("circulant.oracle", "bfs_distances"),
)

# per-span integer taken from public values, so counts repeat exactly:
# (positional args, return value) -> count
_COUNTS = {
    "distance.wrap_limit": lambda args, result: result,
    "paths.realize_path": lambda args, result: len(result[0]),
    "oracle.bfs_distances": lambda args, result: len(result),
    "distance.distance_range": lambda args, result: args[2] - args[1] + 1,
}


def span_name(fn) -> str:
    """'bounds.bounds_report' for circulant.bounds.bounds_report."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    """Spans as parallel arrays: name id, start, end, parent, op id, count.

    parent is the index of the enclosing span, or -1 for an op's root span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one harness call; its children share op_id."""
        self._op = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn):
        """A stand-in for fn that records one span per call."""
        name = span_name(fn)
        count = _COUNTS.get(name)
        recorder = self

        def traced(*args, **kwargs):
            idx = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if count is not None:
                recorder.count[idx] = count(args, result)
            return result

        return update_wrapper(traced, fn)

    def write(self, path) -> None:
        """All spans as gzipped CSV, one row per span, in call order."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op_id,count\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op_id[i]},{self.count[i]}\n"
                )


def boundary_originals() -> dict[tuple[str, str], object]:
    """The object currently bound at every traced boundary."""
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr in BOUNDARIES
    }


@contextmanager
def traced(recorder: Recorder):
    """Wrap every boundary for the duration of the block, then restore it.

    Restoration runs even when the block raises, so a failed traced run
    leaves circulant exactly as it found it.
    """
    originals = boundary_originals()
    try:
        for (mod, attr), fn in originals.items():
            setattr(importlib.import_module(mod), attr, recorder.wrap(fn))
        yield
    finally:
        for (mod, attr), fn in originals.items():
            setattr(importlib.import_module(mod), attr, fn)


class Summary:
    """Per-name totals over a recorder's spans, optionally for a subset of ops."""

    def __init__(self, rec: Recorder, ops=None) -> None:
        n = len(rec.start)
        dur = [rec.end[i] - rec.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if rec.parent[i] >= 0:
                child[rec.parent[i]] += dur[i]
        self.total: dict[str, int] = {}
        self.self_time: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {}
        # class evaluations: vertices x (2 + 4 * wrap_limit) per kernel call,
        # and 2 + 4 * wrap_limit per scalar scan
        self.class_evals = 0
        wraps_of = {}
        for i in range(n):
            if rec.names[rec.name_id[i]] == "distance.wrap_limit" and rec.parent[i] >= 0:
                wraps_of[rec.parent[i]] = rec.count[i]
        for i in range(n):
            if ops is not None and rec.op_id[i] not in ops:
                continue
            name = rec.names[rec.name_id[i]]
            self.total[name] = self.total.get(name, 0) + dur[i]
            self.self_time[name] = self.self_time.get(name, 0) + dur[i] - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count[name] = self.count.get(name, 0) + rec.count[i]
            if i in wraps_of:
                per_vertex = 2 + 4 * wraps_of[i]
                if name == "distance.distance_range":
                    self.class_evals += rec.count[i] * per_vertex
                elif name == "distance.distance_from_zero":
                    self.class_evals += per_vertex
