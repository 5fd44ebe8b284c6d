"""Command-line front end: single queries, grid sweeps, bounds reports.

Exit codes: 0 success, 1 usage error, 2 verification mismatch in a sweep.
Sweep output is deterministic (n ascending, s ascending) regardless of
--jobs, so golden files and diffs stay stable.

A sweep's unit of work is one n: its chords get their diameters from one
batched kernel call (diameters_exact), and the process that computed them
also formats the rows, so the parent only writes text.  The tasks are made
as they are consumed and reach pool workers in chunks of several n; the
--jobs clamp and the oracle's and kernel's limits come from range
arithmetic, so memory does not grow with the grid.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Sequence
from contextlib import nullcontext

from .bounds import bounds_report
from .diameter import diameter_exact, diameters_exact
from .distance import check_kernel_n, closest_point, distance
from .formulas import FormulaCase, diameter_formula
from .oracle import check_oracle_n, oracle_diameter
from .params import CirculantParams, OutOfRangeError, VertexOutOfRangeError
from .paths import render_path, translate_endpoints

# most cells in one pool chunk, so that the rows a worker holds stay few
_TASK_CELLS = 1024

# a sweep row, in order: the csv header, the json keys, _sweep_task's tuples
_SWEEP_COLUMNS = (
    "n", "s", "diam_algorithm", "diam_formula", "formula_case", "diam_oracle",
    "bound_du", "bound_gn", "bound_new", "bound_combined",
    "agree_formula", "agree_oracle", "witness_min",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circulant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # the graph and output flags of the three single-graph commands
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--n", type=int, required=True)
    graph.add_argument("--s", type=int, required=True)
    graph.add_argument("--format", choices=["text", "json"], default="text")

    q = sub.add_parser("distance", parents=[graph], help="distance between two vertices")
    q.add_argument("--from", dest="src", type=int, required=True, metavar="I")
    q.add_argument("--to", dest="dst", type=int, required=True, metavar="J")
    q.add_argument("--witness", action="store_true", help="also print class and path")
    q.set_defaults(func=_cmd_distance)

    d = sub.add_parser("diameter", parents=[graph], help="diameter of C_n(1,s)")
    d.add_argument(
        "--method", choices=["algorithm", "formula", "oracle"], default="algorithm"
    )
    d.add_argument("--witness", action="store_true", help="also print witnesses")
    d.set_defaults(func=_cmd_diameter)

    b = sub.add_parser("bounds", parents=[graph], help="upper bounds vs exact diameter")
    b.set_defaults(func=_cmd_bounds)

    w = sub.add_parser("sweep", help="grid report over an n range")
    w.add_argument("--n-min", type=int, required=True)
    w.add_argument("--n-max", type=int, required=True)
    w.add_argument("--s", default="all", help='"all" or a single chord length')
    w.add_argument("--verify-oracle", action="store_true", help="cross-check every cell with BFS")
    w.add_argument("--out", help="output path (default stdout)")
    w.add_argument("--format", choices=["csv", "json", "ndjson"], default="csv")
    w.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most the CPU count and the number of n (default 1)",
    )
    w.set_defaults(func=_cmd_sweep)
    return parser


def _print_payload(payload: dict, fmt: str, inputs: tuple[str, ...]) -> int:
    """One JSON line, or a "key = value" line for each field not in inputs."""
    if fmt == "json":
        print(json.dumps(payload))
        return 0
    for key, value in payload.items():
        if key in inputs:
            continue
        if value is None:
            value = "null (no closed form)" if key == "diameter" else "null"
        elif isinstance(value, list):
            value = " ".join(map(str, value))
        print(f"{key} = {value}")
    return 0


def _cmd_distance(args) -> int:
    p = CirculantParams(args.n, args.s)
    payload: dict = {"n": p.n, "s": p.s, "from": args.src, "to": args.dst}
    if args.witness:
        # the class scan, then every vertex of the lazy path: O(d) output
        res = distance(p, args.src, args.dst)
        shifted = [(v + args.src) % p.n for v in res.realized]
        payload["distance"] = res.value
        payload["class"] = str(res.argmin_class)
        payload["path"] = render_path(shifted, res.argmin_class)
    else:
        x, y = closest_point(p, translate_endpoints(p, args.src, args.dst))
        payload["distance"] = abs(x) + abs(y)
    return _print_payload(payload, args.format, ("n", "s", "from", "to"))


def _cmd_diameter(args) -> int:
    p = CirculantParams(args.n, args.s)
    payload: dict = {"n": p.n, "s": p.s, "method": args.method}
    if args.method == "formula":
        res = diameter_formula(p)
        payload["diameter"] = res.value if res else None
        payload["case"] = (res.case if res else FormulaCase.UNCOVERED).value
        if res and res.subcase:
            payload["subcase"] = res.subcase
        if args.witness:
            payload["witness"] = res.witness if res else None
    else:
        res = diameter_exact(p) if args.method == "algorithm" else oracle_diameter(p)
        payload["diameter"] = res.value
        if args.witness:
            payload["witnesses"] = list(res.witnesses)
    return _print_payload(payload, args.format, ("n", "s", "method"))


def _cmd_bounds(args) -> int:
    p = CirculantParams(args.n, args.s)
    rep = bounds_report(p)
    diam = diameter_exact(p).value
    slack = rep.combined - diam
    if args.format == "json":
        payload = {"n": p.n, "s": p.s, **rep._asdict(), "diam_algorithm": diam, "slack": slack}
        return _print_payload(payload, args.format, ())
    print(
        f"du={rep.du} gn={rep.gobel_neutel} new={rep.new_bound} "
        f"combined={rep.combined} diam={diam} slack={slack}"
    )
    return 0


def _sweep_task(task: tuple[str, int, Sequence[int], bool]) -> tuple[str, bool]:
    """The rows of one n as text, and whether a cross-check failed.

    Module-level, so pool workers can import it.  The chords' diameters come
    from one batched call, diameters_exact.  The text is csv or ndjson
    lines, or json array elements joined by ",\n", so the parent only
    writes it.
    """
    fmt, n, chords, verify = task
    ps = [CirculantParams(n, s) for s in chords]
    rows = []
    failed = False
    for p, exact in zip(ps, diameters_exact(ps)):
        formula = diameter_formula(p)
        value, case = (formula.value, formula.case) if formula else (None, FormulaCase.UNCOVERED)
        bfs = oracle_diameter(p) if verify else None
        agree = (
            value == exact.value if formula else None,
            bfs == exact if bfs else None,
        )
        failed = failed or False in agree
        if fmt == "csv":  # csv writes None as an empty field; the bools need words
            agree = [None if a is None else str(a).lower() for a in agree]
        rows.append(
            (n, p.s, exact.value, value, case.value, bfs.value if bfs else None,
             *bounds_report(p), *agree, exact.witnesses[0])
        )
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue(), failed
    dicts = (dict(zip(_SWEEP_COLUMNS, row)) for row in rows)
    if fmt == "json":
        text = ",\n".join("  " + json.dumps(d, indent=2).replace("\n", "\n  ") for d in dicts)
        return text, failed
    return "".join(json.dumps(d) + "\n" for d in dicts), failed


def _emit_rows(results, fmt: str, out) -> bool:
    """Write each task's rows as they arrive; True if any cross-check failed.

    The json format writes the bytes of json.dumps(all_rows, indent=2)
    without holding the rows.
    """
    failed = False
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerow(_SWEEP_COLUMNS)
    elif fmt == "json":
        out.write("[")
    sep = "\n"
    for text, bad in results:
        if fmt == "json":
            out.write(sep + text)
            sep = ",\n"
        else:
            out.write(text)
        failed = failed or bad
    if fmt == "json":
        out.write("]\n" if sep == "\n" else "\n]\n")
    return failed


def _cmd_sweep(args) -> int:
    fixed_s = None
    if args.s != "all":
        try:
            fixed_s = int(args.s)
        except ValueError:
            print(f"error: --s must be 'all' or an integer, got {args.s!r}", file=sys.stderr)
            return 1
        if fixed_s < 2:
            print(f"error: --s must be at least 2, got {fixed_s}", file=sys.stderr)
            return 1
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1

    # every n in [lo, --n-max] has a valid cell, so the checks below need
    # only range arithmetic, never the list of cells
    lo = max(5, args.n_min) if fixed_s is None else max(5, args.n_min, 2 * fixed_s + 1)
    ns = range(lo, args.n_max + 1)
    # both limits fail before any output, not midway
    if args.verify_oracle:
        check_oracle_n(lo, args.n_max)
    check_kernel_n(lo, args.n_max)

    def task(n: int) -> tuple[str, int, Sequence[int], bool]:
        chords = range(2, (n - 1) // 2 + 1) if fixed_s is None else (fixed_s,)
        return args.format, n, chords, args.verify_oracle

    # one task per n, made as it is consumed, so the sweep never holds the grid
    tasks = map(task, ns)
    jobs = min(args.jobs, os.cpu_count() or 1, len(ns))
    # --out is opened before any cell is computed, so a bad path fails at once
    with (
        open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    ) as out:
        if jobs <= 1:
            failed = _emit_rows(map(_sweep_task, tasks), args.format, out)
        else:
            # imported here: nothing else needs multiprocessing
            import multiprocessing

            # chunks of about 1/8 of a worker's share of n, so the heaviest n
            # do not land in one chunk, and of at most _TASK_CELLS cells, so
            # the rows a worker holds stay few.  Leaving the block terminates
            # the workers, so a reader that closes early (BrokenPipeError)
            # does not wait for the rest of the grid
            widest = len(task(ns[-1])[2])
            chunk = max(1, min(len(ns) // (8 * jobs), _TASK_CELLS // widest))
            with multiprocessing.Pool(jobs) as pool:
                failed = _emit_rows(pool.imap(_sweep_task, tasks, chunk), args.format, out)
    return 2 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OutOfRangeError, VertexOutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. | head); not a failure,
        # but stdout must be detached before interpreter teardown flushes it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:  # e.g. an unwritable sweep --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
