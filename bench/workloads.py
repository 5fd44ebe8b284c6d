"""The three workloads: set-up, timed loop, traced replay and answer checks.

Every workload is a closed loop with one client: the next call starts only
after the previous one returned.  Answers are kept during the timed loop
and checked against an independent reference after it, so checking never
costs measured time.  Importing this module imports circulant, which is
why the set-up probe times the import of this module.
"""
from __future__ import annotations

import csv
import importlib
import io
import statistics
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import inputs
import spans
from circulant import CirculantParams
from circulant.cli import main as cli_main
from circulant.diameter import diameter_exact
from circulant.formulas import diameter_formula
from circulant.oracle import bfs_distances, build_adjacency, oracle_diameter

# circulant/__init__ rebinds the attribute circulant.distance to a function
distance = importlib.import_module("circulant.distance").distance


@dataclass
class Outcome:
    """What one run measured, how many ops it attempted and which failed."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.note(message)


def _p(values, pct: int) -> float:
    """The pct-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(
    rec: spans.Recorder, ops: int, strata: dict[str, set[int]] | None = None
) -> dict[str, float]:
    """Every per-layer metric except the ones only a workload itself knows.

    Per-op values divide by ops: queries, diameters or sweep cells.  strata
    maps "large" and "wide" to their op ids; a layer or stratum the workload
    never enters reads 0.
    """
    summary = spans.Summary(rec)

    def us(table: dict, name: str) -> float:
        return table.get(name, 0) / ops / 1e3

    metrics = {
        "distance.distance_from_zero.self_us": us(summary.self_time, "distance.distance_from_zero"),
        "distance.wraps_scanned": summary.count.get("distance.wrap_limit", 0) / ops,
        "distance.class_evals": summary.class_evals / ops,
        "distance.wrap_limit.us": us(summary.total, "distance.wrap_limit"),
        "bounds.bounds_report.us": us(summary.total, "bounds.bounds_report"),
        "bounds.bounds_report.calls": summary.calls.get("bounds.bounds_report", 0) / ops,
        "paths.realize_path.us": us(summary.total, "paths.realize_path"),
        "paths.realized_vertices": summary.count.get("paths.realize_path", 0) / ops,
        "paths.translate_endpoints.us": us(summary.total, "paths.translate_endpoints"),
        "diameter.diameter_exact.self_us": us(summary.self_time, "diameter.diameter_exact"),
        "distance.distance_range.us": us(summary.total, "distance.distance_range"),
        "oracle.oracle_diameter.self_us": us(summary.self_time, "oracle.oracle_diameter"),
        "oracle.bfs_distances.us": us(summary.total, "oracle.bfs_distances"),
        "oracle.bfs_vertices": summary.count.get("oracle.bfs_distances", 0) / ops,
        "formulas.diameter_formula.self_us": us(summary.self_time, "formulas.diameter_formula"),
        "params.decompose.us": us(summary.total, "params.decompose"),
        "cli.sweep.self_us": us(summary.self_time, "cli.sweep"),
    }
    for stratum in ("large", "wide"):
        op_ids = (strata or {}).get(stratum, set())
        part = spans.Summary(rec, op_ids)
        kernel_ns = part.total.get("distance.distance_range", 0)
        vertices = part.count.get("distance.distance_range", 0)
        exact_ns = part.self_time.get("diameter.diameter_exact", 0)
        ops_in = max(len(op_ids), 1)
        metrics[f"distance.distance_range.ns_per_vertex.{stratum}"] = kernel_ns / max(vertices, 1)
        metrics[f"distance.distance_range.ns_per_class_eval.{stratum}"] = (
            kernel_ns / max(part.class_evals, 1)
        )
        metrics[f"distance.class_evals.{stratum}"] = part.class_evals / ops_in
        metrics[f"diameter.diameter_exact.self_ms.{stratum}"] = exact_ns / ops_in / 1e6
    metrics["cli.sweep.jobs1_wall_s"] = 0.0
    return metrics


class PointQueries:
    """distance(p, i, j) over a pool of graphs, one pass = one query per graph."""

    def __init__(self, specs, sizes: inputs.Sizes, seed: int, out_dir: Path) -> None:
        self.specs = specs
        self.sizes = sizes
        self.seed = seed

    def setup(self) -> None:
        self.pool = [CirculantParams(n, s) for n, s in self.specs]
        first = self.pool[0]
        distance(first, 0, first.half)

    def ask(self, batch, out: Outcome, lat: array, answers: array, rec=None) -> None:
        """Ask every query of batch; keep (graph, target, value) for the BFS check.

        The realized path is checked here, outside the timed call: it must
        have value + 1 vertices from 0 to the translated target.  A wrong
        path or an exception is stored as value -1, which no BFS distance
        matches.
        """
        pool = self.pool
        for k, i, j in batch:
            p = pool[k]
            target = (j - i) % p.n
            out.attempted += 1
            try:
                if rec is None:
                    t0 = perf_counter_ns()
                    r = distance(p, i, j)
                    t1 = perf_counter_ns()
                else:
                    with rec.op("distance.distance", out.attempted):
                        t0 = perf_counter_ns()
                        r = distance(p, i, j)
                        t1 = perf_counter_ns()
            except Exception as exc:  # a crash is a wrong answer, not an abort
                out.note(f"C_{p.n}(1,{p.s}) d({i},{j}) raised {exc!r}")
                answers.extend((k, target, -1))
                continue
            lat.append(t1 - t0)
            path = r.realized
            value = r.value
            if len(path) != value + 1 or path[0] != 0 or path[-1] != target:
                out.note(f"C_{p.n}(1,{p.s}) d({i},{j}) realized a wrong path")
                value = -1
            answers.extend((k, target, value))

    def run(self, seconds: float) -> Outcome:
        stream = inputs.query_stream(self.seed, self.specs)
        out = Outcome()
        lat, answers = array("q"), array("q")
        rates = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            batch = next(stream)
            t0 = perf_counter()
            self.ask(batch, out, lat, answers)
            rates.append(len(batch) / (perf_counter() - t0))
        self.check(answers, out)
        out.metrics = {
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(lat) / 1e6,
            "latency_tail_ms": _p(lat, 99) / 1e6,
        }
        out.samples = {"queries": out.attempted, "passes": len(rates), "pool_graphs": len(self.pool)}
        return out

    def traced(self, rec: spans.Recorder) -> Outcome:
        stream = inputs.query_stream(self.seed, self.specs)
        batch = [q for _ in range(self.sizes.trace_query_passes) for q in next(stream)]
        out = Outcome()
        answers = array("q")
        t0 = perf_counter()
        self.ask(batch, out, array("q"), answers)
        untraced = perf_counter() - t0
        t0 = perf_counter()
        with spans.traced(rec):
            self.ask(batch, out, array("q"), answers, rec)
        traced_wall = perf_counter() - t0
        self.check(answers, out)
        out.metrics = layer_metrics(rec, len(batch))
        out.metrics["trace.overhead_ratio"] = traced_wall / untraced
        out.samples = {"queries": len(batch), "pool_graphs": len(self.pool)}
        return out

    def check(self, answers: array, out: Outcome, reference=None) -> None:
        """Count every answer that differs from BFS from 0 to its target.

        Answers come in whole passes, so graph k's answers sit at every
        len(pool)-th triple from triple k.  reference(p) returns the
        distance list from vertex 0; the smoke test passes a corrupted one
        to prove a wrong answer is caught.
        """
        reference = reference or (lambda p: bfs_distances(build_adjacency(p), 0))
        stride = 3 * len(self.pool)
        for k, p in enumerate(self.pool):
            dist = reference(p)
            for at in range(3 * k, len(answers), stride):
                target, value = answers[at + 1], answers[at + 2]
                if answers[at] != k or value != dist[target]:
                    out.fail(1, f"C_{p.n}(1,{p.s}) d(0,{target}) gave {value}, BFS {dist[target]}")


class DiameterScan:
    """diameter_exact(p) over the two strata, one pass = every graph once."""

    def __init__(self, specs, sizes: inputs.Sizes, seed: int, out_dir: Path) -> None:
        self.specs = specs

    def setup(self) -> None:
        self.pool = [CirculantParams(n, s) for _, n, s in self.specs]
        self.strata = [stratum for stratum, _, _ in self.specs]
        diameter_exact(min(self.pool, key=lambda p: p.n))

    def scan(self, out: Outcome, lat: list, answers: list, rec=None) -> None:
        """One pass: every graph of the pool once, keeping (graph, value, witnesses)."""
        for k, p in enumerate(self.pool):
            out.attempted += 1
            try:
                if rec is None:
                    t0 = perf_counter_ns()
                    r = diameter_exact(p)
                    t1 = perf_counter_ns()
                else:
                    with rec.op("diameter.diameter_exact", k):
                        t0 = perf_counter_ns()
                        r = diameter_exact(p)
                        t1 = perf_counter_ns()
            except Exception as exc:  # a crash is a wrong answer, not an abort
                out.note(f"diameter of C_{p.n}(1,{p.s}) raised {exc!r}")
                answers.append((k, None, None))
                continue
            lat.append(t1 - t0)
            answers.append((k, r.value, r.witnesses))

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        lat: list[int] = []
        answers: list[tuple] = []
        rates = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            t0 = perf_counter()
            self.scan(out, lat, answers)
            rates.append(len(self.pool) / (perf_counter() - t0))
        self.check(answers, out)
        out.metrics = {
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(lat) / 1e6,
            "latency_tail_ms": _p(lat, 90) / 1e6,
        }
        out.samples = {"diameters": out.attempted, "passes": len(rates), "pool_graphs": len(self.pool)}
        return out

    def traced(self, rec: spans.Recorder) -> Outcome:
        out = Outcome()
        answers: list[tuple] = []
        t0 = perf_counter()
        self.scan(out, [], answers)
        untraced = perf_counter() - t0
        t0 = perf_counter()
        with spans.traced(rec):
            self.scan(out, [], answers, rec)
        traced_wall = perf_counter() - t0
        self.check(answers, out)
        strata = {
            name: {k for k, stratum in enumerate(self.strata) if stratum == name}
            for name in ("large", "wide")
        }
        out.metrics = layer_metrics(rec, len(self.pool), strata)
        out.metrics["trace.overhead_ratio"] = traced_wall / untraced
        out.samples = {"diameters": len(self.pool), "pool_graphs": len(self.pool)}
        return out

    def check(self, answers: list, out: Outcome, reference=None) -> None:
        """Count every answer that differs from its stratum's reference.

        large is checked against the closed form, wide against the BFS
        oracle, witnesses included.  reference(k, p) returns (value,
        witnesses or None); the smoke test passes a corrupted one.
        """
        reference = reference or self._reference
        expected = {}
        for k, value, witnesses in answers:
            if k not in expected:
                expected[k] = reference(k, self.pool[k])
            want, want_witnesses = expected[k]
            if value != want or (want_witnesses is not None and witnesses != want_witnesses):
                p = self.pool[k]
                out.fail(1, f"diameter of C_{p.n}(1,{p.s}) gave {value}, reference {want}")

    def _reference(self, k: int, p: CirculantParams):
        if self.strata[k] == "large":
            # s <= sqrt(n) gives lam >= s > gamma, where a closed form always applies
            formula = diameter_formula(p)
            return (formula.value if formula else "no closed form"), None
        oracle = oracle_diameter(p)
        return oracle.value, oracle.witnesses


class GridSweep:
    """circulant sweep over every valid (n, s) with n <= N, through the CLI."""

    def __init__(self, specs, sizes: inputs.Sizes, seed: int, out_dir: Path) -> None:
        self.cells = specs
        self.n_max = sizes.sweep_n_max
        self.out_dir = out_dir

    def _argv(self, jobs: int, path: Path, n_max: int | None = None) -> list[str]:
        return [
            "sweep", "--n-min", "5", "--n-max", str(n_max or self.n_max),
            "--verify-oracle", "--jobs", str(jobs), "--out", str(path),
        ]

    def setup(self) -> None:
        # set-up pays for one CirculantParams per cell, as the other pools do;
        # the CLI builds its own inside each timed sweep
        self.params = [CirculantParams(n, s) for n, s in self.cells]
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            cli_main(self._argv(1, Path(tmp) / "warm.csv", n_max=12))

    def sweep(self, jobs: int, rec: spans.Recorder | None = None):
        """One CLI sweep: (wall seconds, exit code or error text, CSV bytes)."""
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            path = Path(tmp) / "sweep.csv"
            argv = self._argv(jobs, path)
            t0 = perf_counter()
            try:
                if rec is None:
                    code = cli_main(argv)
                else:
                    with rec.op("cli.sweep", 0):
                        code = cli_main(argv)
            except Exception as exc:
                code = repr(exc)
            wall = perf_counter() - t0
            data = path.read_bytes() if path.exists() else b""
        return wall, code, data

    def run(self, seconds: float) -> Outcome:
        sweeps = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            wall, code, data = self.sweep(2)
            if sweeps and data == sweeps[0][2]:
                data = sweeps[0][2]  # keep one copy, so memory does not grow with sweeps
            sweeps.append((wall, code, data))
        out = self.check(sweeps, reference=sweeps[0][2])
        walls = [w for w, _, _ in sweeps]
        out.metrics = {
            "ops_per_s": statistics.median(len(self.cells) / w for w in walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "latency_tail_ms": max(walls) * 1e3,
        }
        out.samples = {"sweeps": len(sweeps), "cells_per_sweep": len(self.cells), "jobs": 2}
        return out

    def traced(self, rec: spans.Recorder) -> Outcome:
        jobs1 = self.sweep(1)
        with spans.traced(rec):
            traced_sweep = self.sweep(1, rec)
        jobs2 = self.sweep(2)
        out = self.check([jobs1, traced_sweep, jobs2], reference=traced_sweep[2])
        out.metrics = layer_metrics(rec, len(self.cells))
        out.metrics["cli.sweep.jobs1_wall_s"] = jobs1[0]
        out.metrics["trace.overhead_ratio"] = traced_sweep[0] / jobs1[0]
        out.samples = {"sweeps": 3, "cells_per_sweep": len(self.cells), "jobs": 1}
        return out

    def check(self, sweeps, reference: bytes) -> Outcome:
        """Exit code 0, one row per valid cell in order, no false agree_*.

        Every sweep's CSV must also equal the reference bytes: the first
        --jobs 2 sweep in a timed run, the --jobs 1 traced sweep in a
        traced run.
        """
        cells = len(self.cells)
        out = Outcome(attempted=cells * len(sweeps))
        bad_rows = min(cells, self._bad_rows(reference))
        for k, (_, code, data) in enumerate(sweeps):
            if code != 0:
                out.fail(cells, f"sweep {k} exited with {code}")
            elif data != reference:
                out.fail(cells, f"sweep {k} CSV differs from the reference CSV")
            elif bad_rows:
                out.fail(bad_rows, f"sweep {k} has {bad_rows} bad or missing rows")
        return out

    def _bad_rows(self, data: bytes) -> int:
        try:
            rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            bad = abs(len(rows) - len(self.cells))
            for row, cell in zip(rows, self.cells):
                if (
                    (int(row["n"]), int(row["s"])) != cell
                    or row["agree_oracle"] != "true"
                    or row["agree_formula"] == "false"
                ):
                    bad += 1
        except (KeyError, TypeError, ValueError):  # not the sweep's CSV at all
            return len(self.cells)
        return bad


WORKLOADS = {
    "point-queries": PointQueries,
    "diameter-scan": DiameterScan,
    "grid-sweep": GridSweep,
}
