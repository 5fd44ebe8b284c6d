"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: circulant is imported from src/
next to this directory, never from an installed copy.  --trace 0 times the
workload and prints the end-to-end metrics of BENCHMARK.json; --trace 1
replays a fixed slice of it under the span recorder and prints the
per-layer metrics.  The line before the result records provenance: seed,
sample counts, fail ratio, CPU and library versions.  Exit status is 0 only
when every answer was checked and correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _setup_seconds(workload: str, seed: int, sizes: inputs.Sizes) -> list[float]:
    """Cold set-up times, each from a fresh interpreter that exits before the next."""
    times = []
    for _ in range(sizes.setup_probes):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload,
             str(seed), sizes.name, str(OUT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def main(argv: list[str] | None = None, sizes: inputs.Sizes = inputs.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "circulant" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"error: run from a circulant checkout; no {SRC / 'circulant'}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(why)}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # sweep worker processes must import the same source tree
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import numpy
    import spans
    import workloads

    if not Path(sys.modules["circulant"].__file__).is_relative_to(SRC):
        print("error: circulant was not imported from this checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    specs = inputs.generate(args.workload, args.seed, sizes)
    workload = workloads.WORKLOADS[args.workload](specs, sizes, args.seed, OUT)
    workload.setup()
    spans_file = None
    if args.trace:
        rec = spans.Recorder()
        before = spans.boundary_originals()
        outcome = workload.traced(rec)
        after = spans.boundary_originals()
        if any(after[key] is not fn for key, fn in before.items()):
            outcome.fail(outcome.attempted, "a traced name was not restored")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        rec.write(spans_file)
        reported = manifest["per_layer"]
    else:
        setup = _setup_seconds(args.workload, args.seed, sizes)
        outcome = workload.run(args.seconds)
        outcome.metrics["setup_s"] = statistics.median(setup)
        outcome.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome.samples["setup_probes"] = len(setup)
        reported = manifest["end_to_end"]

    print(json.dumps({
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes.name,
        "samples": outcome.samples,
        "fail_ratio": outcome.failed / max(1, outcome.attempted),
        "errors": outcome.errors,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
