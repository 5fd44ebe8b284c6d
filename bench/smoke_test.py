"""Smoke test of the benchmark itself, at tiny sizes; takes a few seconds.

    python3 bench/smoke_test.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
no answer fails, that a traced run leaves circulant's names as it found
them (also when the traced block raises), and that a corrupted reference
answer is counted as a failure, so the checks can fail at all.
"""
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[int, dict, dict]:
    """Run one tiny workload in-process: (exit code, provenance, result)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
            sizes=inputs.TINY,
        )
    provenance, result = (json.loads(line) for line in stdout.getvalue().splitlines()[-2:])
    return code, provenance, result


def tiny(workload: str):
    w = workloads.WORKLOADS[workload](
        inputs.generate(workload, 7, inputs.TINY), inputs.TINY, 7, run.OUT
    )
    run.OUT.mkdir(exist_ok=True)
    w.setup()
    return w


class MetricsAndCorrectness(unittest.TestCase):
    def test_every_metric_printed_with_unit_and_no_failures(self):
        for workload in (w["name"] for w in MANIFEST["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, provenance, result = bench(workload, trace)
                    self.assertEqual(code, 0, provenance["errors"])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(provenance["fail_ratio"], 0)
                    expected = {m["name"]: m["unit"] for m in MANIFEST[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)


class TracedNamesRestored(unittest.TestCase):
    def test_traced_run_restores_every_name(self):
        before = spans.boundary_originals()
        for workload in (w["name"] for w in MANIFEST["workloads"]):
            with self.subTest(workload=workload):
                self.assertEqual(bench(workload, 1)[0], 0)
                after = spans.boundary_originals()
                for key, fn in before.items():
                    self.assertIs(after[key], fn, key)

    def test_names_restored_when_traced_block_raises(self):
        before = spans.boundary_originals()
        with self.assertRaises(RuntimeError):
            with spans.traced(spans.Recorder()):
                key = ("circulant.cli", "diameter_exact")
                self.assertIsNot(spans.boundary_originals()[key], before[key])
                raise RuntimeError("boom")
        after = spans.boundary_originals()
        for key, fn in before.items():
            self.assertIs(after[key], fn, key)

    def test_spans_carry_parent_and_op(self):
        w = tiny("point-queries")
        rec = spans.Recorder()
        w.traced(rec)
        roots = [i for i in range(len(rec.start)) if rec.parent[i] < 0]
        self.assertTrue(roots)
        for i in range(len(rec.start)):
            self.assertLessEqual(rec.start[i], rec.end[i])
            if rec.parent[i] >= 0:
                self.assertEqual(rec.op_id[i], rec.op_id[rec.parent[i]])
        with tempfile.TemporaryDirectory() as tmp:
            rec.write(Path(tmp) / "spans.csv.gz")


class CorruptedReferenceFails(unittest.TestCase):
    def test_point_queries(self):
        w = tiny("point-queries")
        out = workloads.Outcome()
        answers = workloads.array("q")
        batch = next(inputs.query_stream(7, w.specs))
        w.ask(batch, out, workloads.array("q"), answers)
        w.check(answers, out)
        self.assertEqual(out.failed, 0)

        def off_by_one(p):
            return [d + 1 for d in workloads.bfs_distances(workloads.build_adjacency(p), 0)]

        w.check(answers, out, reference=off_by_one)
        self.assertEqual(out.failed, len(batch))

    def test_diameter_scan(self):
        w = tiny("diameter-scan")
        out = workloads.Outcome()
        answers: list = []
        w.scan(out, [], answers)
        w.check(answers, out)
        self.assertEqual(out.failed, 0)
        w.check(answers, out, reference=lambda k, p: (w._reference(k, p)[0] + 1, None))
        self.assertEqual(out.failed, len(w.pool))

    def test_grid_sweep(self):
        w = tiny("grid-sweep")
        sweep = w.sweep(2)
        self.assertEqual(w.check([sweep], reference=sweep[2]).failed, 0)
        wrong = sweep[2].replace(b",true,", b",false,", 1)
        self.assertGreater(w.check([sweep], reference=wrong).failed, 0)


if __name__ == "__main__":
    unittest.main()
