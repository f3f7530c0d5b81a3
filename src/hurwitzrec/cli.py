"""Exact simple Hurwitz numbers from the command line.

Commands: 'table' (Hurwitz numbers by either or both routes), 'wkg'
(canonical JSON of one correlation form), 'check bm' and 'check elsv'
(verification suites).  Every command that builds an engine or an oracle
does it in one set-up, which checks every bound first.  'table' and
'check bm' also share one writer: 'check bm' prints the rows of
'table --method both' up to the first mismatch, then one verdict line.

Exit codes (64 to 74 as in sysexits.h):

- 0 success;
- 2 a mathematical mismatch was found;
- 64 bad flags, including an empty --cache, a 'check' suite other than
  'bm' and 'elsv' ('series' and 'times' among them: their checks live in
  the test suite), and a flag its command or suite does not take
  ('check elsv' takes none, and a suite's flags follow its name, so
  'check --g-max 1 bm' is refused);
- 65 request out of range, including a request above a size bound and a
  'check bm' range that holds no stable (g, mu) to compare;
- 70 internal inconsistency: an exact self-check of the recursion failed
  (for instance a form that is not symmetric in its slots), or a residue
  that the truncation order the CLI chose cannot resolve;
- 74 an I/O error: stdout is closed or full, its reader left before all
  output was written (a broken pipe, as in
  'hurwitzrec table ... | head -1'), or the cache file could not be
  written;
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
# --help loads no layer and an oracle table loads no curve code; the engine
# imports the recursion's arithmetic on its first miss, so a request whose
# forms all come from the cache runs only the extraction.

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
# about 0.10 s, 0.17 s and 0.64 s of CPU in process on a 2-core Intel Xeon
# virtual machine (medians of 7 fresh processes; wkg 2 13, which also writes
# the form's 16,799 pole terms, takes about 2.0 s of CPU as a whole
# process).  The oracle's cost grows fastest with |mu|: in a fresh process
# on the same machine, HurwitzOracle(12, 3) takes 0.06-0.10 s of CPU, and
# past the bound HurwitzOracle(14, 3) 0.18-0.32 s and HurwitzOracle(14, 6)
# 0.25-0.52 s, most of it in log.  At its genus bound, a fresh
# HurwitzOracle(12, 6) takes 0.13-0.18 s of CPU.
RECURSION_MAX_ORDER = 40
ORACLE_MAX_N = 12
ORACLE_MAX_G = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Misplaced(argparse.Action):
    """A suite's flag given before the suite's name, refused by its name
    rather than by the value argparse would take for the suite."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(None, f"argument {option_string}: a suite's flags "
                                           f"follow its name, as in 'check bm {option_string} ...'")


def _build_parser():
    # the docstring is the description, its lines and list kept as written
    parser = _Parser(prog="hurwitzrec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def ranged(p):
        p.add_argument("--g-max", type=int, default=1, help="highest genus (default 1)")
        p.add_argument("--n-max", type=int, default=4, help="highest degree |mu| (default 4)")

    def common(p):
        p.add_argument("--cache", type=_path, help="path to the PoleForm cache file")
        p.add_argument("--verbose", action="store_true")

    p_table = sub.add_parser("table", help="emit H_{g,mu} for a range")
    ranged(p_table)
    p_table.add_argument("--method", choices=("recursion", "oracle", "both"), default="both")
    p_table.add_argument("--format", dest="fmt", choices=("text", "json", "csv"), default="text")
    common(p_table)

    p_wkg = sub.add_parser("wkg", help="canonical JSON of one correlation form")
    p_wkg.add_argument("g", type=int)
    p_wkg.add_argument("k", type=int)
    common(p_wkg)

    p_check = sub.add_parser("check", help="run a verification suite")
    # one argument for all four, since argparse builds a formatter per argument
    p_check.add_argument("--g-max", "--n-max", "--cache", "--verbose", nargs="?",
                         action=_Misplaced, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    suites = p_check.add_subparsers(dest="suite", required=True)
    p_bm = suites.add_parser("bm", help="the table by both routes, up to the first mismatch")
    ranged(p_bm)
    common(p_bm)
    suites.add_parser("elsv", help="ELSV consistency of the oracle's values")

    return parser


def _path(text):
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _cache_path(args):
    # an explicit flag wins; an empty HURWITZREC_CACHE means no cache
    return args.cache if args.cache is not None else os.environ.get(CACHE_ENV)


def _set_up(args, g_max, n_max, method):
    """The engine and the oracle a table by `method` needs (None for the
    other) and the engine's cache flush or None, after every bound is checked.
    The engine's order is the one W(g_max, n_max), the largest form, needs.
    """
    if g_max < 0 or n_max < 1:
        raise _UsageError("need --g-max >= 0 and --n-max >= 1")
    engine = flush = oracle = None
    if method != "oracle":  # the recursion's bound is checked first
        from .toprec import LambertEngine, required_order

        order = required_order(g_max, n_max)
        if order > RECURSION_MAX_ORDER:
            raise ValueError(f"W({g_max},{n_max}) needs truncation order {order}, above the "
                             f"recursion's size bound of order {RECURSION_MAX_ORDER}")
    if method != "recursion":
        if n_max > ORACLE_MAX_N:
            raise ValueError(f"--n-max {n_max} is above the oracle's size bound of {ORACLE_MAX_N}")
        if g_max > ORACLE_MAX_G:
            raise ValueError(f"--g-max {g_max} is above the oracle's genus bound of {ORACLE_MAX_G}")
    if method != "oracle":
        engine = LambertEngine(order=order)
        path = _cache_path(args)
        if path:
            from .cache import attach_cache

            flush = attach_cache(engine, path)
            if args.verbose:
                print(f"cache attached at {path}", file=sys.stderr)
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
    engine, _oracle, flush = _set_up(args, args.g, args.k, "recursion")
    form = engine.w(args.g, args.k)
    if flush:
        flush()
    print(form.canonical_json())
    return EX_OK


def _cmd_check(args):
    if args.suite == "bm":
        from .extract import verify_bm
        from .common import is_stable

        g_max, n_max = args.g_max, args.n_max
        # 2g - 2 + len(mu) is largest at the corner, so a range with a
        # stable (g, mu) has one there; a check of no case is refused
        if g_max >= 0 and n_max >= 1 and not is_stable(g_max, n_max):
            raise ValueError(f"no stable (g, mu) with g <= {g_max} and |mu| <= {n_max} to compare")
        engine, oracle, flush = _set_up(args, g_max, n_max, "both")
        rows = verify_bm(g_max, n_max, engine, oracle)
        if flush:
            flush()
        _emit_table(rows, ("recursion", "oracle"), "text")
        # verify_bm stops at the first mismatch, so only the last row can be one
        ok = all(row["equal"] for row in rows)
        last = rows[-1]
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
        # a failed self-check, or a truncation order (always chosen here) too low
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except ValueError as exc:
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
