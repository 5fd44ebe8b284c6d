"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing circulant (with numpy), constructing every
CirculantParams of the workload and making one warm-up call; the inputs
are generated before the clock starts.  Prints the seconds taken.

    python3 bench/setup_probe.py SRC_DIR WORKLOAD SEED SIZES OUT_DIR
"""
import sys
from pathlib import Path
from time import perf_counter

import inputs


def main(argv: list[str]) -> None:
    src, workload, seed, sizes, out_dir = argv
    sys.path.insert(0, src)
    sizes = inputs.SIZES[sizes]
    specs = inputs.generate(workload, int(seed), sizes)
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[workload](specs, sizes, int(seed), Path(out_dir)).setup()
    print(perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])
