"""Command-line interface.

Subcommands: ``table`` (Hurwitz numbers by either or both routes), ``wkg``
(canonical JSON of one correlation form), ``check`` (verification suites).

Exit codes (the last three as in sysexits.h):

- 0 success;
- 2 a mathematical mismatch was found;
- 64 bad flags;
- 65 request out of range, including a request above a size bound;
- 70 internal inconsistency: an exact self-check of the recursion failed
  (for instance a form that is not symmetric in its slots);
- 74 an I/O error: stdout was closed before all output was written (a
  broken pipe, as in ``hurwitzrec table ... | head -1``), or the cache file
  could not be written.

Stdout carries data; stderr carries diagnostics.  The series truncation
order is not a flag: each request computes at the order its largest form
needs, and the forms do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bridge import elsv_consistency, times_by_recursion, times_from_curve
from .cache import CacheWriteError, attach_cache
from .extract import table_rows, verify_bm
from .partitions import HurwitzOracle
from .poleform import format_rational
from .selfcheck import run_series_checks
from .toprec import LambertEngine, check_stable, required_order

EX_OK = 0
EX_MISMATCH = 2
EX_USAGE = 64
EX_RANGE = 65
EX_SOFTWARE = 70
EX_IOERR = 74

CACHE_ENV = "HURWITZREC_CACHE"

# Size bounds, checked before any engine or oracle is built.  The recursion's
# cost grows steeply with the truncation order its largest form needs; order
# 40 admits W(3,8) and W(4,5) (order 36), which take seconds.  The oracle's
# cost grows fastest with |mu|: --g-max 3 --n-max 12 takes about ten seconds.
# Its genus bound is the highest genus order 40 admits: W(6,1) needs 40.
RECURSION_MAX_ORDER = 40
ORACLE_MAX_N = 12
ORACLE_MAX_G = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="hurwitzrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache", default=None, help="path to the PoleForm cache file")
        p.add_argument("--verbose", action="store_true")

    p_table = sub.add_parser("table", help="emit H_{g,mu} for a range")
    p_table.add_argument("--g-max", type=int, default=1)
    p_table.add_argument("--n-max", type=int, default=4)
    p_table.add_argument("--method", choices=("recursion", "oracle", "both"), default="both")
    p_table.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common(p_table)

    p_wkg = sub.add_parser("wkg", help="canonical JSON of one correlation form")
    p_wkg.add_argument("g", type=int)
    p_wkg.add_argument("k", type=int)
    common(p_wkg)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=("bm", "elsv", "times", "series"))
    p_check.add_argument("--g-max", type=int, default=1)
    p_check.add_argument("--n-max", type=int, default=4)
    common(p_check)

    return parser


def _cache_path(args):
    return args.cache or os.environ.get(CACHE_ENV)


def _recursion_order(g, k):
    """The truncation order W(g, k) needs, refused above the size bound."""
    need = required_order(g, k)
    if need > RECURSION_MAX_ORDER:
        raise ValueError(
            f"W({g},{k}) needs truncation order {need}, above the recursion's "
            f"size bound of order {RECURSION_MAX_ORDER}"
        )
    return need


def _check_oracle_size(g_max, n_max):
    if n_max > ORACLE_MAX_N:
        raise ValueError(f"--n-max {n_max} is above the oracle's size bound of {ORACLE_MAX_N}")
    if g_max > ORACLE_MAX_G:
        raise ValueError(f"--g-max {g_max} is above the oracle's genus bound of {ORACLE_MAX_G}")


def _make_engine(args, order, verbose=False):
    engine = LambertEngine(order=order)
    flush = None
    path = _cache_path(args)
    if path:
        flush = attach_cache(engine, path)
        if verbose:
            print(f"cache attached at {path}", file=sys.stderr)
    return engine, flush


def _cmd_table(args):
    if args.g_max < 0 or args.n_max < 1:
        raise _UsageError("need --g-max >= 0 and --n-max >= 1")
    need_recursion = args.method in ("recursion", "both")
    need_oracle = args.method in ("oracle", "both")
    engine = flush = oracle = None
    if need_recursion:  # first: its bound covers every genus above the oracle's
        order = _recursion_order(args.g_max, args.n_max)
    if need_oracle:
        _check_oracle_size(args.g_max, args.n_max)
        oracle = HurwitzOracle(args.n_max, args.g_max)
    if need_recursion:
        engine, flush = _make_engine(args, order, args.verbose)

    rows = list(table_rows(args.g_max, args.n_max, engine, oracle))
    mismatch = args.method == "both" and not all(row["equal"] for row in rows)
    if flush:
        flush()
    _emit_table(rows, args)
    return EX_MISMATCH if mismatch else EX_OK


def _emit_table(rows, args):
    if args.fmt == "json":
        print(json.dumps(rows, separators=(", ", ": ")))
        return
    if args.fmt == "csv":
        print("g,mu,method,value")
        for row in rows:
            mu = ";".join(str(x) for x in row["mu"])
            for method in ("recursion", "oracle"):
                if method in row:
                    print(f"{row['g']},{mu},{method},{row[method]}")
        return
    header = f"{'g':>2}  {'mu':<14}"
    if any("recursion" in r for r in rows):
        header += f" {'recursion':>16}"
    if any("oracle" in r for r in rows):
        header += f" {'oracle':>16}"
    if args.method == "both":
        header += "  equal"
    print(header)
    for row in rows:
        mu = "(" + ",".join(str(x) for x in row["mu"]) + ")"
        line = f"{row['g']:>2}  {mu:<14}"
        if "recursion" in row:
            line += f" {row['recursion']:>16}"
        if "oracle" in row:
            line += f" {row['oracle']:>16}"
        if args.method == "both":
            line += "  " + ("yes" if row["equal"] else "NO")
        print(line)


def _cmd_wkg(args):
    check_stable(args.g, args.k)
    engine, flush = _make_engine(args, _recursion_order(args.g, args.k), args.verbose)
    form = engine.w(args.g, args.k)
    if flush:
        flush()
    print(form.canonical_json())
    return EX_OK


def _cmd_check(args):
    if args.suite == "bm":
        if args.g_max < 0 or args.n_max < 1:
            raise _UsageError("need --g-max >= 0 and --n-max >= 1")
        order = _recursion_order(args.g_max, args.n_max)
        _check_oracle_size(args.g_max, args.n_max)
        engine, flush = _make_engine(args, order, args.verbose)
        report = verify_bm(args.g_max, args.n_max, engine=engine)
        if flush:
            flush()
        print(report.to_text())
        return EX_OK if report.ok else EX_MISMATCH

    if args.suite == "elsv":
        report = elsv_consistency()
        print(report.to_text())
        return EX_OK if report.ok else EX_MISMATCH

    if args.suite == "times":
        t_max = 20
        from_curve = times_from_curve(t_max)
        from_recursion = times_by_recursion(t_max)
        ok = True
        for m, v in from_curve.items():
            w = from_recursion[m]
            match = v == w
            ok = ok and match
            print(
                f"t_{m} = {format_rational(v)}"
                + ("" if match else f"  RECURSION DISAGREES: {format_rational(w)}")
            )
        print("times: dual routes agree" if ok else "times: MISMATCH")
        return EX_OK if ok else EX_MISMATCH

    results = run_series_checks()
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'}  {name}" + (f": {detail}" if detail else ""))
    return EX_OK if ok else EX_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    commands = {"table": _cmd_table, "wkg": _cmd_wkg, "check": _cmd_check}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_RANGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except CacheWriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
