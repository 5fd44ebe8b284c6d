"""Command-line front end: single queries, grid sweeps, bounds reports.

Exit codes: 0 success, 1 usage error, 2 verification mismatch in a sweep.
Sweep output is deterministic (n ascending, s ascending) regardless of
--jobs, so golden files and diffs stay stable.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bounds import bounds_report
from .diameter import diameter_exact
from .distance import distance
from .formulas import diameter_formula, formula_witness
from .oracle import check_oracle_n, oracle_diameter
from .params import (
    CirculantParams,
    OutOfRangeError,
    VertexOutOfRangeError,
    validate_params,
)
from .paths import render_path

# verify-oracle cutoff: BFS is O(n) per cell but grids are O(n^2) cells
_ORACLE_N_CAP = 2000

_SWEEP_COLUMNS = [
    "n",
    "s",
    "diam_algorithm",
    "diam_formula",
    "formula_case",
    "diam_oracle",
    "bound_du",
    "bound_gn",
    "bound_new",
    "bound_combined",
    "agree_formula",
    "agree_oracle",
    "witness_min",
]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circulant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("distance", help="distance between two vertices")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--from", dest="src", type=int, required=True, metavar="I")
    q.add_argument("--to", dest="dst", type=int, required=True, metavar="J")
    q.add_argument("--witness", action="store_true", help="also print class and path")
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.set_defaults(func=_cmd_distance)

    d = sub.add_parser("diameter", help="diameter of C_n(1,s)")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--s", type=int, required=True)
    d.add_argument(
        "--method", choices=["algorithm", "formula", "oracle"], default="algorithm"
    )
    d.add_argument("--witness", action="store_true", help="also print witnesses")
    d.add_argument("--format", choices=["text", "json"], default="text")
    d.set_defaults(func=_cmd_diameter)

    b = sub.add_parser("bounds", help="upper bounds vs exact diameter")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--format", choices=["text", "json"], default="text")
    b.set_defaults(func=_cmd_bounds)

    w = sub.add_parser("sweep", help="grid report over an n range")
    w.add_argument("--n-min", type=int, required=True)
    w.add_argument("--n-max", type=int, required=True)
    w.add_argument("--s", default="all", help='"all" or a single chord length')
    w.add_argument(
        "--verify-oracle",
        action="store_true",
        help=f"cross-check with BFS (skipped above n={_ORACLE_N_CAP} unless forced)",
    )
    w.add_argument(
        "--force-oracle",
        action="store_true",
        help=f"run BFS verification even above n={_ORACLE_N_CAP}",
    )
    w.add_argument("--out", help="output path (default stdout)")
    w.add_argument("--format", choices=["csv", "json", "ndjson"], default="csv")
    # a string default goes through type=int at parse time, so a bad
    # $CIRC_JOBS is a usage error rather than a crash while building
    w.add_argument(
        "--jobs",
        type=int,
        default=os.environ.get("CIRC_JOBS", "1"),
        help="worker processes, at most the CPU and cell counts "
        "(default $CIRC_JOBS or 1)",
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
    p = validate_params(args.n, args.s)
    res = distance(p, args.src, args.dst)
    payload = {
        "n": p.n,
        "s": p.s,
        "from": args.src,
        "to": args.dst,
        "distance": res.value,
    }
    if args.witness:
        shifted = [(v + args.src) % p.n for v in res.realized]
        payload["class"] = str(res.argmin_class)
        payload["path"] = render_path(shifted, res.argmin_class)
    return _print_payload(payload, args.format, ("n", "s", "from", "to"))


def _cmd_diameter(args) -> int:
    p = validate_params(args.n, args.s)
    payload: dict = {"n": p.n, "s": p.s, "method": args.method}
    if args.method == "formula":
        res = diameter_formula(p)
        payload["diameter"] = res.value if res else None
        payload["case"] = res.case.value if res else "uncovered"
        if res and res.subcase:
            payload["subcase"] = res.subcase
        if args.witness:
            payload["witness"] = formula_witness(p)
    else:
        res = diameter_exact(p) if args.method == "algorithm" else oracle_diameter(p)
        payload["diameter"] = res.value
        if args.witness:
            payload["witnesses"] = list(res.witnesses)
    return _print_payload(payload, args.format, ("n", "s", "method"))


def _cmd_bounds(args) -> int:
    p = validate_params(args.n, args.s)
    rep = bounds_report(p)
    diam = diameter_exact(p).value
    slack = rep.combined - diam
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": p.n,
                    "s": p.s,
                    "du": rep.du,
                    "gobel_neutel": rep.gobel_neutel,
                    "new_bound": rep.new_bound,
                    "combined": rep.combined,
                    "diam_algorithm": diam,
                    "slack": slack,
                }
            )
        )
        return 0
    print(
        f"du={rep.du} gn={rep.gobel_neutel} new={rep.new_bound} "
        f"combined={rep.combined} diam={diam} slack={slack}"
    )
    return 0


def _sweep_cell(task: tuple[int, int, bool]) -> dict:
    """One sweep row; module-level so worker processes can import it."""
    n, s, verify = task
    p = CirculantParams(n, s)
    exact = diameter_exact(p)
    formula = diameter_formula(p)
    rep = bounds_report(p)
    oracle_value = oracle_diameter(p).value if verify else None
    return {
        "n": n,
        "s": s,
        "diam_algorithm": exact.value,
        "diam_formula": formula.value if formula else None,
        "formula_case": formula.case.value if formula else "uncovered",
        "diam_oracle": oracle_value,
        "bound_du": rep.du,
        "bound_gn": rep.gobel_neutel,
        "bound_new": rep.new_bound,
        "bound_combined": rep.combined,
        "agree_formula": formula.value == exact.value if formula else None,
        "agree_oracle": oracle_value == exact.value if verify else None,
        "witness_min": exact.witnesses[0],
    }


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_rows(rows, fmt: str, out) -> bool:
    """Write each row as it arrives; True if any enabled cross-check failed.

    The json format writes the bytes of json.dumps(list(rows), indent=2)
    without holding the list.
    """
    failed = False
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
    elif fmt == "json":
        out.write("[")
    sep = "\n"
    for row in rows:
        if fmt == "csv":
            writer.writerow([_csv_field(row[c]) for c in _SWEEP_COLUMNS])
        elif fmt == "json":
            out.write(sep + "  " + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n"
        else:  # ndjson
            out.write(json.dumps(row) + "\n")
        failed = failed or row["agree_formula"] is False or row["agree_oracle"] is False
    if fmt == "json":
        out.write("]\n" if sep == "\n" else "\n]\n")
    return failed


def _cmd_sweep(args) -> int:
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

    tasks: list[tuple[int, int, bool]] = []
    skipped_oracle = False
    for n in range(max(5, args.n_min), args.n_max + 1):
        s_values = (
            range(2, (n - 1) // 2 + 1) if args.s == "all" else [fixed_s]
        )
        for s in s_values:
            if not 2 <= s <= (n - 1) // 2:
                continue
            verify = args.verify_oracle
            if verify and n > _ORACLE_N_CAP:
                if args.force_oracle:
                    check_oracle_n(n)  # fail before any cell, not midway
                else:
                    verify = False
                    skipped_oracle = True
            tasks.append((n, s, verify))
    if skipped_oracle:
        print(
            f"warning: oracle verification skipped for n > {_ORACLE_N_CAP}; "
            "pass --force-oracle to override",
            file=sys.stderr,
        )

    if args.out:
        # opened before any cell is computed, so a bad path fails at once
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            return _run_sweep(tasks, args, fh)
    return _run_sweep(tasks, args, sys.stdout)


def _run_sweep(tasks: list[tuple[int, int, bool]], args, out) -> int:
    """Compute every cell, streaming the rows to out in task order; exit code."""
    jobs = min(args.jobs, os.cpu_count() or 1, len(tasks))
    if jobs > 1:
        # imported here: nothing else needs multiprocessing
        import multiprocessing

        chunk = max(1, len(tasks) // (jobs * 8))
        # leaving the block terminates the workers, so a reader that closes
        # early (BrokenPipeError) does not wait for the rest of the grid
        with multiprocessing.Pool(jobs) as pool:
            failed = _emit_rows(pool.imap(_sweep_cell, tasks, chunk), args.format, out)
    else:
        failed = _emit_rows(map(_sweep_cell, tasks), args.format, out)
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
