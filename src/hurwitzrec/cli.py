"""Command-line interface.

Subcommands: ``table`` (Hurwitz numbers by either or both routes), ``wkg``
(canonical JSON of one correlation form), ``check`` (verification suites).
``table`` and ``check bm`` share one set-up and one writer: ``check bm``
prints the rows of ``table --method both`` up to the first mismatch, then one
verdict line.

Exit codes (64 to 74 as in sysexits.h):

- 0 success;
- 2 a mathematical mismatch was found;
- 64 bad flags, including an empty ``--cache``, a ``check`` suite other
  than ``bm`` and ``elsv`` (``series`` and ``times`` among them: their checks
  live in the test suite), and ``--g-max``, ``--n-max``, ``--cache`` or
  ``--verbose`` given to ``check elsv``;
- 65 request out of range, including a request above a size bound and a
  ``check bm`` range that holds no stable ``(g, mu)`` to compare;
- 70 internal inconsistency: an exact self-check of the recursion failed
  (for instance a form that is not symmetric in its slots), or a residue
  that the truncation order the CLI chose cannot resolve;
- 74 an I/O error: stdout is closed or full, its reader left before all
  output was written (a broken pipe, as in ``hurwitzrec table ... |
  head -1``), or the cache file could not be written;
- 130 interrupted (Ctrl-C), as a shell reports 128 + SIGINT.

Stdout carries data; stderr carries diagnostics.  The series truncation
order is not a flag: each request computes at the order its largest form
needs, and the forms do not depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the layers it runs where it runs them, so that
# --help loads no layer and an oracle table loads no curve code.

EX_OK = 0
EX_MISMATCH = 2
EX_USAGE = 64
EX_RANGE = 65
EX_SOFTWARE = 70
EX_IOERR = 74
EX_INTERRUPTED = 130

CACHE_ENV = "HURWITZREC_CACHE"

# Size bounds, checked before any engine or oracle is built.  The recursion's
# cost grows steeply with the truncation order its largest form needs; order
# 40 admits W(4,5) and W(3,8) (order 36) and W(2,13) (order 40), which take
# about 0.17 s, 0.23 s and 0.83 s of CPU in process on a 2-core Intel Xeon
# virtual machine (wkg 2 13, which also writes the form's 16,799 pole terms,
# takes about 2.9 s as a whole process).  The oracle's cost grows fastest
# with |mu|: in a fresh process on the same machine, HurwitzOracle(12, 3)
# takes 0.06-0.10 s of CPU, and past the bound HurwitzOracle(14, 3)
# 0.18-0.32 s and HurwitzOracle(14, 6) 0.25-0.52 s, most of it in log.  Its
# genus bound is the highest genus whose W(g,1) the recursion's bound admits:
# W(g,1) needs order 6g + 4 (toprec.required_order), so the bound is 6 (a
# test holds the two in step).
RECURSION_MAX_ORDER = 40
ORACLE_MAX_N = 12
ORACLE_MAX_G = (RECURSION_MAX_ORDER - 4) // 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="hurwitzrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache", type=_path, help="path to the PoleForm cache file")
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
    p_check.add_argument("suite", choices=("bm", "elsv"))
    p_check.add_argument("--g-max", type=int, help="check bm only (default 1)")
    p_check.add_argument("--n-max", type=int, help="check bm only (default 4)")
    common(p_check)

    return parser


def _path(text):
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _cache_path(args):
    # an explicit flag wins; an empty HURWITZREC_CACHE means no cache
    return args.cache if args.cache is not None else os.environ.get(CACHE_ENV)


def _recursion_order(g, k):
    """The truncation order W(g, k) needs, refused above the size bound."""
    from .toprec import required_order

    need = required_order(g, k)
    if need > RECURSION_MAX_ORDER:
        raise ValueError(
            f"W({g},{k}) needs truncation order {need}, above the recursion's "
            f"size bound of order {RECURSION_MAX_ORDER}"
        )
    return need


def _make_engine(args, order):
    from .toprec import LambertEngine

    engine = LambertEngine(order=order)
    flush = None
    path = _cache_path(args)
    if path:
        from .cache import attach_cache

        flush = attach_cache(engine, path)
        if args.verbose:
            print(f"cache attached at {path}", file=sys.stderr)
    return engine, flush


def _set_up(args, g_max, n_max, method):
    """The engine and the oracle a table by `method` needs (None for the
    other) and the engine's cache flush or None, after every bound is checked.
    """
    if g_max < 0 or n_max < 1:
        raise _UsageError("need --g-max >= 0 and --n-max >= 1")
    engine = flush = oracle = None
    if method != "oracle":  # first: its bound covers every genus above the oracle's
        order = _recursion_order(g_max, n_max)
    if method != "recursion":
        if n_max > ORACLE_MAX_N:
            raise ValueError(f"--n-max {n_max} is above the oracle's size bound of {ORACLE_MAX_N}")
        if g_max > ORACLE_MAX_G:
            raise ValueError(f"--g-max {g_max} is above the oracle's genus bound of {ORACLE_MAX_G}")
    if method != "oracle":
        engine, flush = _make_engine(args, order)
    if method != "recursion":
        from .partitions import HurwitzOracle

        oracle = HurwitzOracle(n_max, g_max)
    return engine, oracle, flush


def _cmd_table(args):
    from .extract import routes, table_rows

    engine, oracle, flush = _set_up(args, args.g_max, args.n_max, args.method)
    pairs = routes(engine, oracle, args.n_max)
    rows = list(table_rows(args.g_max, args.n_max, pairs))
    if flush:
        flush()
    _emit_table(rows, [name for name, _value in pairs], args.fmt)
    return EX_OK if all(row.get("equal", True) for row in rows) else EX_MISMATCH


def _mu_text(mu):
    return "(" + ",".join(str(x) for x in mu) + ")"


def _emit_table(rows, names, fmt):
    if fmt == "json":
        import json

        print(json.dumps(rows, separators=(", ", ": ")))
        return
    if fmt == "csv":
        print("g,mu,method,value")
        for row in rows:
            mu = ";".join(str(x) for x in row["mu"])
            for name in names:
                print(f"{row['g']},{mu},{name},{row[name]}")
        return
    # the columns follow the routes, so a table with no rows keeps its header
    compared = len(names) > 1
    print(f"{'g':>2}  {'mu':<14}" + "".join(f" {name:>16}" for name in names)
          + ("  equal" if compared else ""))
    for row in rows:
        line = f"{row['g']:>2}  {_mu_text(row['mu']):<14}"
        line += "".join(f" {row[name]:>16}" for name in names)
        if compared:
            line += "  " + ("yes" if row["equal"] else "NO")
        print(line)


def _cmd_wkg(args):
    from .toprec import check_stable

    check_stable(args.g, args.k)
    engine, flush = _make_engine(args, _recursion_order(args.g, args.k))
    form = engine.w(args.g, args.k)
    if flush:
        flush()
    print(form.canonical_json())
    return EX_OK


def _cmd_check(args):
    if args.suite != "bm":
        if args.g_max is not None or args.n_max is not None:
            raise _UsageError("--g-max and --n-max apply only to check bm")
        if args.cache is not None or args.verbose:
            raise _UsageError("--cache and --verbose apply only to check bm")
    if args.suite == "bm":
        from .extract import verify_bm

        g_max = 1 if args.g_max is None else args.g_max
        n_max = 4 if args.n_max is None else args.n_max
        # 2g - 2 + len(mu) is largest at the corner, so a range with a
        # stable (g, mu) has one there; a check of no case is refused
        if g_max >= 0 and n_max >= 1 and 2 * g_max - 2 + n_max <= 0:
            raise ValueError(f"no stable (g, mu) with g <= {g_max} and |mu| <= {n_max} to compare")
        engine, oracle, flush = _set_up(args, g_max, n_max, "both")
        rows = verify_bm(g_max, n_max, engine, oracle)
        if flush:
            flush()
        _emit_table(rows, ("recursion", "oracle"), "text")
        # verify_bm stops at the first mismatch, so only the last row can be one
        ok = all(row["equal"] for row in rows)
        last = rows[-1] if rows else None
        verdict = "all equal" if ok else f"MISMATCH at g={last['g']} mu={_mu_text(last['mu'])}"
        print(f"-- {len(rows)} cases: {verdict}")
        return EX_OK if ok else EX_MISMATCH

    from .bridge import elsv_consistency

    report = elsv_consistency()
    print(report.to_text())
    return EX_OK if report.ok else EX_MISMATCH


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    if sys.stdout is None:
        # descriptor 1 was closed before start, as by `>&-`
        print("error: cannot write to stdout: it is closed", file=sys.stderr)
        return EX_IOERR
    commands = {"table": _cmd_table, "wkg": _cmd_wkg, "check": _cmd_check}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except ValueError as exc:
        from .series import TruncationError

        # every truncation order is chosen here, so one too low is a fault
        if isinstance(exc, TruncationError):
            print(f"internal error: {exc}", file=sys.stderr)
            return EX_SOFTWARE
        print(f"error: {exc}", file=sys.stderr)
        return EX_RANGE
    except OSError as exc:
        # Stdout is full, or its reader is gone; point it at devnull so that
        # the flush at interpreter exit does not fail again.  A reader that
        # left (`| head -1`) chose to, so a broken pipe gets no message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return EX_IOERR
    except Exception as exc:
        # only a run with a cache path loads the module that can raise it
        from .cache import CacheWriteError

        if not isinstance(exc, CacheWriteError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EX_IOERR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EX_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
