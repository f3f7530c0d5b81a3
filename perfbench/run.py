"""End-to-end and per-layer benchmark of the hurwitzrec CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Each request runs the real CLI (``from hurwitzrec.cli import main``, as the
installed ``hurwitzrec`` script does) in a fresh process from this
checkout's ``src/``, one request at a time: a closed loop with one client.
Requests are issued until ``--seconds`` have passed and at least
MIN_SAMPLES have completed. Every request's CSV is checked value by value
against a reference computed during set-up by another route.

Every process is followed by a fixed calibration loop, and its wall time
is scaled by the loop times just before and after it to a host on which
the loop takes REFERENCE_CALIB_S: on a shared host the same request takes
up to 1.8 times as long from one minute to the next, and the loop slows
with it.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` a further traced run (perfbench/
traced.py) gives the per-layer metrics instead. ``--workload all`` sets up
every workload, runs them round-robin so host drift lands on all of them
alike, and prints a table. See perfbench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ENTRY = "import sys; from hurwitzrec.cli import main; sys.exit(main())"
MIN_SAMPLES = 3
SETUP_REPS = 15
REQUEST_TIMEOUT_S = 100.0
# Times in seconds are scaled to a host on which calibrate() takes this long.
REFERENCE_CALIB_S = 0.125
# No request starts once this much time has passed since start-up, so a run
# ends well inside its 180 s limit even on a slow host.
LOOP_DEADLINE_S = 110.0


@dataclass
class Workload:
    name: str
    method: str
    g_max: int
    n_max: int
    cache: str | None  # None, "fresh" (empty path each run) or "warm"
    # The traced run fails loudly if any term pair reaches the residue table.
    sweep_free: bool = False
    reference: dict = field(default_factory=dict)
    warm_file: Path | None = None

    def args(self):
        return table_args(self.method, self.g_max, self.n_max)

    def expected(self):
        """Every (g, mu) the request must print, in no particular order."""
        stable_only = self.method == "recursion"
        return {(g, mu) for g in range(self.g_max + 1)
                for n in range(1, self.n_max + 1) for mu in partitions(n)
                if not stable_only or 2 * g - 2 + len(mu) > 0}


# Each request takes 1-3 s on the pure backend, so a run of 25 s holds eight
# or more of them and the host-speed probes around each request stay close
# to the speed during it.
WORKLOADS = {
    # High genus, few points: LambertEngine.w and the pair sweep dominate.
    "recursion-deep": lambda: Workload("recursion-deep", "recursion", 3, 4, "fresh"),
    # Many points, low genus, warm cache: h_series dominates, no sweep runs.
    "extract-warm": lambda: Workload("extract-warm", "recursion", 1, 9, "warm", True),
    # Character oracle only: build_z and log, no spectral-curve code.
    "oracle-wide": lambda: Workload("oracle-wide", "oracle", 1, 9, None),
}


class SetupError(Exception):
    pass


def table_args(method, g_max, n_max):
    return ["table", "--method", method, "--g-max", str(g_max), "--n-max", str(n_max),
            "--format", "csv"]


# -- references -------------------------------------------------------------


def partitions(n, largest=None):
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in partitions(n - first, first)]


def genus0_hurwitz(mu):
    """Hurwitz's closed formula for H_{0,mu}, counted with the b! of the
    branch points as the CLI prints it:
    (n+l-2)! n^(l-3) prod mu_i^mu_i/mu_i! / |Aut mu|."""
    n, length = sum(mu), len(mu)
    value = Fraction(factorial(n + length - 2)) * Fraction(n) ** (length - 3)
    for part in mu:
        value *= Fraction(part**part, factorial(part))
    for part in set(mu):
        value /= factorial(mu.count(part))
    return f"{value.numerator}/{value.denominator}"


def parse_csv(text):
    """{(g, mu): value} from ``table --format csv``; None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "g,mu,method,value":
        return None
    out = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            return None
        try:
            key = (int(parts[0]), tuple(int(x) for x in parts[1].split(";")))
        except ValueError:
            return None
        if key in out:
            return None
        out[key] = parts[3]
    return out


def to_csv(rows, method):
    return "g,mu,method,value\n" + "".join(
        f"{g},{';'.join(map(str, mu))},{method},{v}\n" for (g, mu), v in rows.items())


def mismatches(text, workload):
    """Descriptions of every way the output differs from the reference."""
    rows = parse_csv(text)
    if rows is None:
        return ["output is not the expected CSV table"]
    bad = [f"missing row {k}" for k in sorted(workload.reference.keys() - rows.keys())]
    bad += [f"unexpected row {k}" for k in sorted(rows.keys() - workload.reference.keys())]
    bad += [f"{k}: got {v}, want {workload.reference[k]}"
            for k, v in sorted(rows.items())
            if k in workload.reference and v != workload.reference[k]]
    return bad


# -- processes --------------------------------------------------------------


def child_env(tmp):
    env = dict(os.environ)
    # The CLI reads this by default; a user's cache would turn cold runs warm.
    env.pop("HURWITZREC_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    scaled_s: float | None = None


def spawn(cmd, tmp):
    """Run one process to completion; its wall time spans spawn to exit."""
    out_path = Path(tempfile.mkstemp(dir=tmp)[1])
    err_path = Path(tempfile.mkstemp(dir=tmp)[1])
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=child_env(tmp), cwd=ROOT)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"))
    finally:
        out_path.unlink()
        err_path.unlink()


def cli(args):
    return [sys.executable, "-c", ENTRY, *args]


def reference_run(args, tmp, what):
    run = spawn(cli(args), tmp)
    rows = parse_csv(run.stdout) if run.code == 0 else None
    if rows is None:
        raise SetupError(f"{what} failed (exit {run.code}): {' '.join(args)}\n"
                         f"{run.stderr[-2000:]}")
    return rows


# -- set-up -----------------------------------------------------------------


def set_up(workload, tmp, cold_runs):
    """Compute the workload's reference by another route than the one it
    times, and warm its cache with the code under test.

    ``cold_runs`` maps (g_max, n_max) to the rows of a cold recursion run
    already made in this set-up, so extract-warm and oracle-wide share one."""
    g_max, n_max = workload.g_max, workload.n_max
    expected = workload.expected()
    if workload.cache == "warm":
        workload.warm_file = tmp / f"warm-{workload.name}.json"
        cold_runs[(g_max, n_max)] = reference_run(
            table_args("recursion", g_max, n_max) + ["--cache", str(workload.warm_file)],
            tmp, "cold recursion run")
    if workload.method == "oracle" and (g_max, n_max) not in cold_runs:
        cold_runs[(g_max, n_max)] = reference_run(table_args("recursion", g_max, n_max),
                                                  tmp, "cold recursion run")
    if workload.method == "recursion":
        ref = reference_run(table_args("oracle", g_max, n_max), tmp, "oracle run")
    else:
        # Unstable rows (g=0 with at most two parts) have no recursion value;
        # Hurwitz's genus-0 formula is their second route.
        ref = dict(cold_runs[(g_max, n_max)])
        for g, mu in expected - ref.keys():
            if g == 0:
                ref[(g, mu)] = genus0_hurwitz(mu)
    if expected - ref.keys():
        raise SetupError(f"reference lacks rows {sorted(expected - ref.keys())[:3]}")
    workload.reference = {k: ref[k] for k in sorted(expected)}
    # The check must catch an altered value, or every later pass means nothing.
    altered = dict(workload.reference)
    key = min(altered)
    num, den = altered[key].split("/")
    altered[key] = f"{int(num) + 1}/{den}"
    if not mismatches(to_csv(altered, workload.method), workload):
        raise SetupError("the output check accepted an altered value")


def request_args(workload, tmp, tag):
    args = workload.args()
    if workload.cache:
        path = tmp / f"cache-{tag}.json"
        if workload.cache == "warm":
            shutil.copyfile(workload.warm_file, path)
        args += ["--cache", str(path)]
    return args


def calibrate():
    """A fixed exact-rational loop timed in this process: a host-speed
    probe that no change to hurwitzrec can move."""
    start = time.perf_counter()
    for _ in range(8):
        total = Fraction(0)
        for k in range(1, 3000):
            total += Fraction(k % 7 - 3, k)
    return time.perf_counter() - start


class HostClock:
    """Runs processes between calibration loops and scales each one's wall
    time by the host speed measured just before and just after it.

    On a shared host the same request can take 1.8 times as long from one
    minute to the next, and the calibration loop slows with it; the scaled
    time stays put while a slower program still reads slower."""

    def __init__(self):
        self.calibs = [calibrate()]

    def spawn(self, cmd, tmp):
        run = spawn(cmd, tmp)
        self.calibs.append(calibrate())
        run.scaled_s = run.wall_s * 2 * REFERENCE_CALIB_S / sum(self.calibs[-2:])
        return run


def provenance(tmp):
    run = spawn([sys.executable, "-c", "import hurwitzrec, hurwitzrec.cli; "
                 "print(getattr(hurwitzrec, 'KERNEL_BACKEND', 'absent'))"], tmp)
    if run.code != 0:
        raise SetupError(f"cannot import hurwitzrec.cli from src/\n{run.stderr[-2000:]}")
    sha = "unknown"
    # Only a checkout with its own .git: git must not search the parents.
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if git.returncode == 0:
                sha = git.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "kernel_backend": run.stdout.strip(),
        "HURWITZREC_PURE": os.environ.get("HURWITZREC_PURE"),
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


# -- measurement --------------------------------------------------------------


@dataclass
class Result:
    walls: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(problems[:5])


def timed_request(workload, result, tmp, clock):
    tag = f"{workload.name}-{result.attempted}"
    run = clock.spawn(cli(request_args(workload, tmp, tag)), tmp)
    problems = mismatches(run.stdout, workload) if run.code == 0 else [f"exit {run.code}"]
    result.record(problems)
    result.walls.append(run.wall_s)
    result.scaled.append(run.scaled_s)
    result.cpus.append(run.cpu_s)
    result.rss.append(run.rss_mb)
    (tmp / f"cache-{tag}.json").unlink(missing_ok=True)


def traced_request(workload, result, tmp, run_id, clock):
    """One fresh traced process: per-layer metrics, checked like any run."""
    out_dir = OUT / f"trace-{run_id}-{workload.name}"
    out_dir.mkdir(parents=True)
    run = clock.spawn([sys.executable, str(HERE / "traced.py"), str(out_dir), run_id, "--",
                       *request_args(workload, tmp, "traced")], tmp)
    layers = result.layers
    layers.update(dict.fromkeys(traced.METRICS, 0))
    layers.update({f"share.{group}": 0.0 for group in set(traced.GROUPS.values())})
    layers["cli.values_out"] = 0
    layers["proc.wall_s"] = statistics.median(result.walls)
    layers["proc.cpu_s"] = statistics.median(result.cpus)
    layers["machine.calib_s"] = statistics.median(clock.calibs)
    layers["trace.total_s"] = run.scaled_s
    layers["trace.overhead_s"] = run.scaled_s - statistics.median(result.scaled)
    summary_path = out_dir / "summary.json"
    if run.code != 0 or not summary_path.exists():
        result.record([f"traced run exit {run.code}: {run.stderr[-500:]}"])
        return
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    stdout = (out_dir / "stdout.txt").read_text(encoding="utf-8")
    problems = mismatches(stdout, workload) if summary["exit"] == 0 else [
        f"traced CLI exit {summary['exit']}"]
    layers.update(summary["metrics"])
    layers["cli.values_out"] = max(0, len(stdout.splitlines()) - 1)
    total = summary["total_s"]
    for group, seconds in summary["groups"].items():
        layers[f"share.{group}"] = seconds / total if total > 0 else 0.0
    result.absent = summary["absent_metrics"]
    if workload.sweep_free and "toprec.pairs" not in result.absent and layers["toprec.pairs"]:
        problems.append(f"{layers['toprec.pairs']} term pairs reached the residue table: "
                        "the warm cache was not used")
    result.record(problems)


def measure(workloads, seconds, trace, rng, tmp, run_id, started):
    """Set-up time, then round-robin rounds of one request per workload
    (a closed loop with one client), then the traced runs."""
    clock = HostClock()
    setup = []
    for _ in range(SETUP_REPS):
        run = clock.spawn(cli(["--help"]), tmp)
        if run.code != 0:
            raise SetupError(f"hurwitzrec --help failed (exit {run.code})")
        setup.append(run)
    results = {w.name: Result() for w in workloads}
    loop_start = time.perf_counter()
    while time.perf_counter() - started < LOOP_DEADLINE_S and (
            time.perf_counter() - loop_start < seconds
            or min(r.attempted for r in results.values()) < MIN_SAMPLES):
        for workload in rng.sample(workloads, len(workloads)):
            timed_request(workload, results[workload.name], tmp, clock)
    if trace:
        for workload in workloads:
            traced_request(workload, results[workload.name], tmp, run_id, clock)
    return setup, clock.calibs, results


# -- output -------------------------------------------------------------------


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share."):
        return "ratio"
    if metric.startswith("cache.bytes"):
        return "bytes"
    return "count"


def end_to_end(result, setup):
    return {
        "wall_s": (statistics.median(result.scaled), "s"),
        "peak_rss_mb": (statistics.median(result.rss), "MB"),
        "setup_s": (statistics.median(run.scaled_s for run in setup), "s"),
    }


def report(workloads, setup, calib, results, trace):
    raw = {"wall_s": lambda r: r.walls, "setup_s": lambda _r: [run.wall_s for run in setup]}
    for workload in workloads:
        result = results[workload.name]
        cache = f" --cache <{workload.cache} file>" if workload.cache else ""
        print(f"== {workload.name}: hurwitzrec {' '.join(workload.args())}{cache}")
        for name, (value, u) in end_to_end(result, setup).items():
            if name in raw:
                samples = raw[name](result)
                print(f"  {name:<15} {value:12.4f} {u:<5} scaled, median of {len(samples)}; "
                      f"as measured {statistics.median(samples):.4f} s")
            else:
                print(f"  {name:<15} {value:12.4f} {u:<5} median of {len(result.rss)}")
        print(f"  {'fail_rate':<15} {result.failed / result.attempted:12.4f} ratio "
              f"{result.failed} of {result.attempted} runs")
        print(f"  {'machine.calib_s':<15} {statistics.median(calib):12.4f} s     "
              f"median of {len(calib)}, one after each process")
        for errors in result.errors:
            print(f"  FAILED: {'; '.join(errors)}")
        if trace:
            for name, value in sorted(result.layers.items()):
                mark = "  (absent)" if name in result.absent else ""
                print(f"  {name:<28} {value:14.6g} {unit(name)}{mark}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn a termination request into an exit that stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hurwitzrec" / "cli.py").is_file():
        print(f"error: no hurwitzrec sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[name]() for name in names]
    # The requests are fixed so that runs compare across commits; the seed
    # orders the workloads within each round and names the run.
    rng = random.Random(args.seed)
    run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT, prefix="tmp-"))
    try:
        prov = provenance(tmp)
        cold_runs = {}
        for workload in workloads:
            set_up(workload, tmp, cold_runs)
        setup, calib, results = measure(workloads, args.seconds, args.trace, rng, tmp,
                                        run_id, started)
    except SetupError as exc:
        print(f"error: set-up: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report(workloads, setup, calib, results, args.trace)
    print("provenance: " + json.dumps(prov))
    record = {"run_id": run_id, "provenance": prov, "calib_s": calib,
              "setup_s": [(run.wall_s, run.scaled_s) for run in setup],
              "results": {name: vars(result) for name, result in results.items()}}
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, result in results.items():
        if result.failed:
            print(f"error: {name}: {result.failed} of {result.attempted} runs failed",
                  file=sys.stderr)
    if args.workload == "all":
        return 0
    result = results[args.workload]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in result.layers.items()}
    else:
        metrics = {name: {"value": value, "unit": u}
                   for name, (value, u) in end_to_end(result, setup).items()}
        # Diagnostic only: the unscaled medians, for changes the host-speed
        # scaling can misread (see README.md). The result line below holds
        # exactly the metrics BENCHMARK.json lists.
        print("measured: " + json.dumps({
            "wall_s": statistics.median(result.walls),
            "setup_s": statistics.median(run.wall_s for run in setup),
            "machine.calib_s": statistics.median(calib)}))
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
