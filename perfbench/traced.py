"""Traced run of the hurwitzrec CLI: spans and counts per layer.

Usage: python3 perfbench/traced.py OUT_DIR RUN_ID -- <hurwitzrec arguments>

Imports ``hurwitzrec.cli`` from PYTHONPATH, wraps the public entry points of
each layer from outside (nothing under ``src/`` changes), calls
``hurwitzrec.cli.main`` once with the given arguments and writes to OUT_DIR:

- ``stdout.txt``: what the CLI printed, for the caller to check;
- ``spans.jsonl``: one span per line as [id, name, start, end, parent, run];
- ``summary.json``: per-layer metrics, hooks that could not attach, the CLI's
  exit code and the traced wall time.

Each hook is attached by module and attribute name. When a name is gone the
hook is listed as absent and its metrics read 0; the run never fails on it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name self and inclusive time.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time is counted only for the outermost span of a name, so the
    nested ``LambertEngine.w`` recursion is not counted twice. Groups do the
    same for several names together (a layer), giving each layer's share.
    """

    def __init__(self, run_id, groups):
        self.run_id = run_id
        self.groups = groups
        self.spans = []
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.counts = {}
        self.group_s = {}
        self._depth = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, args, kwargs):
        self.calls[name] = self.calls.get(name, 0) + 1
        keys = (name, self.groups.get(name))
        for key in keys:
            if key is not None:
                self._depth[key] = self._depth.get(key, 0) + 1
        parent = self.stack[-1] if self.stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self.stack.pop()
            dur = end - start
            self.spans[frame[0]] = (
                frame[0], name, start, end, None if parent is None else parent[0], self.run_id
            )
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            if parent is not None:
                parent[1] += dur
            for key, totals in ((name, self.incl_s), (keys[1], self.group_s)):
                if key is None:
                    continue
                self._depth[key] -= 1
                if not self._depth[key]:
                    totals[key] = totals.get(key, 0.0) + dur


def _spanned(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(out, args)
        return out

    return wrapper


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _hooks(tracer):
    """(module, dotted attribute, span name, wrapper factory) for each layer."""
    seen_forms = set()
    seen_rows = set()

    def form_terms(form, _args):
        if id(form) not in seen_forms:
            seen_forms.add(id(form))
            tracer.count("poleform.terms", len(getattr(form, "terms", ())))

    def h_coeffs(hs, _args):
        tracer.count("extract.h_coeffs", len(getattr(hs, "coeffs", ())))

    def z_terms(z, _args):
        data = getattr(z, "data", {})
        tracer.count("partitions.z_terms", sum(len(t) for t in data.values()))

    def cache_loaded(forms, args):
        tracer.count("cache.bytes_read", _file_size(args[0]) if args else 0)
        tracer.count("cache.entries_loaded", len(forms))

    def cache_saved(_out, args):
        tracer.count("cache.bytes_written", _file_size(args[0]) if args else 0)

    def rows(fn):
        # Every call is one term pair reaching the residue table; only the
        # first call for a key computes a row, so only those get a span.
        def wrapper(self, *args):
            tracer.calls["toprec.rows"] = tracer.calls.get("toprec.rows", 0) + 1
            key = (id(self), args)
            if key in seen_rows:
                return fn(self, *args)
            seen_rows.add(key)
            return tracer.call("toprec.rows_new", fn, (self,) + args, {})

        return wrapper

    def counted(name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        return factory

    def span(name, after=None):
        return lambda fn: _spanned(tracer, name, fn, after)

    return [
        ("hurwitzrec.toprec", "LambertEngine.__init__", "toprec.engine", span("toprec.engine")),
        ("hurwitzrec.toprec", "LambertEngine.w", "toprec.w", span("toprec.w", form_terms)),
        ("hurwitzrec.toprec", "LambertEngine.rows", "toprec.rows", rows),
        ("hurwitzrec._kernels", "pair_sweep", "kernels.pair_sweep", span("kernels.pair_sweep")),
        ("hurwitzrec.series", "Series.__mul__", "series.mul", span("series.mul")),
        ("hurwitzrec.series", "Series.invert_unit", "series.invert", span("series.invert")),
        ("hurwitzrec.extract", "h_series", "extract.h_series", span("extract.h_series", h_coeffs)),
        ("hurwitzrec.extract", "PoleFactorTable.__new__", "extract.factor_table",
         span("extract.factor_table")),
        ("hurwitzrec.partitions", "build_z", "partitions.build_z",
         span("partitions.build_z", z_terms)),
        ("hurwitzrec.partitions", "PSeriesZ.log", "partitions.log", span("partitions.log")),
        ("hurwitzrec.partitions", "dim_irrep", "partitions.dim_irrep",
         counted("partitions.dim_irrep")),
        ("hurwitzrec.cache", "load_cache", "cache.load", span("cache.load", cache_loaded)),
        ("hurwitzrec.cache", "save_cache", "cache.save", span("cache.save", cache_saved)),
    ]


# Layers for the share metrics: a span's time counts once for its layer even
# when spans of the same layer nest inside it.
GROUPS = {
    "toprec.engine": "recursion",
    "toprec.w": "recursion",
    "toprec.rows_new": "recursion",
    "kernels.pair_sweep": "recursion",
    "extract.h_series": "extract",
    "extract.factor_table": "extract",
    "partitions.build_z": "partitions",
    "partitions.log": "partitions",
    "cache.load": "cache",
    "cache.save": "cache",
}

# metric -> (hook it needs, statistic of the tracer, name within it)
METRICS = {
    "toprec.engine_s": ("toprec.engine", "incl_s", "toprec.engine"),
    "toprec.w_self_s": ("toprec.w", "self_s", "toprec.w"),
    "toprec.w_calls": ("toprec.w", "calls", "toprec.w"),
    "toprec.pairs": ("toprec.rows", "calls", "toprec.rows"),
    "toprec.rows_computed": ("toprec.rows", "calls", "toprec.rows_new"),
    "toprec.rows_new_s": ("toprec.rows", "self_s", "toprec.rows_new"),
    "kernels.pair_sweep_s": ("kernels.pair_sweep", "self_s", "kernels.pair_sweep"),
    "kernels.pair_sweep_calls": ("kernels.pair_sweep", "calls", "kernels.pair_sweep"),
    "poleform.terms": ("toprec.w", "counts", "poleform.terms"),
    "series.mul_s": ("series.mul", "self_s", "series.mul"),
    "series.mul_calls": ("series.mul", "calls", "series.mul"),
    "series.invert_s": ("series.invert", "self_s", "series.invert"),
    "series.invert_calls": ("series.invert", "calls", "series.invert"),
    "extract.h_series_s": ("extract.h_series", "self_s", "extract.h_series"),
    "extract.h_series_calls": ("extract.h_series", "calls", "extract.h_series"),
    "extract.h_coeffs": ("extract.h_series", "counts", "extract.h_coeffs"),
    "extract.factor_table_s": ("extract.factor_table", "incl_s", "extract.factor_table"),
    "partitions.build_z_s": ("partitions.build_z", "self_s", "partitions.build_z"),
    "partitions.log_s": ("partitions.log", "self_s", "partitions.log"),
    "partitions.z_terms": ("partitions.build_z", "counts", "partitions.z_terms"),
    "partitions.dim_irrep_calls": ("partitions.dim_irrep", "calls", "partitions.dim_irrep"),
    "cache.load_s": ("cache.load", "incl_s", "cache.load"),
    "cache.bytes_read": ("cache.load", "counts", "cache.bytes_read"),
    "cache.entries_loaded": ("cache.load", "counts", "cache.entries_loaded"),
    "cache.save_s": ("cache.save", "incl_s", "cache.save"),
    "cache.bytes_written": ("cache.save", "counts", "cache.bytes_written"),
}


def _resolve(modname, dotted):
    """(owner, attribute name, current value), or None when a name is gone."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _aliases(owner, value):
    """Every (namespace owner, name) in hurwitzrec bound to ``value``: the
    defining name plus ``from .x import y`` copies and class-level aliases
    such as ``__rmul__ = __mul__``."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in list(owner.__dict__.items()) if v is value]
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "hurwitzrec" or name.startswith("hurwitzrec."):
            out += [(mod, k) for k, v in list(vars(mod).items()) if v is value]
    return out


def install(tracer):
    """Attach every hook it can; return the hook names that are absent."""
    absent = []
    for modname, dotted, hook, factory in _hooks(tracer):
        found = _resolve(modname, dotted)
        if found is None or not callable(getattr(found[2], "__func__", found[2])):
            absent.append(hook)
            continue
        owner, _attr, value = found
        kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
        wrapped = factory(value.__func__ if kind else value)
        if kind:
            wrapped = kind(wrapped)
        for target, name in _aliases(owner, value):
            setattr(target, name, wrapped)
    return absent


def metrics(tracer, absent):
    out = {}
    for metric, (hook, stat, name) in METRICS.items():
        out[metric] = 0 if hook in absent else getattr(tracer, stat).get(name, 0)
    return out


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    out_dir, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    from hurwitzrec import cli

    tracer = Tracer(run_id, GROUPS)
    absent = install(tracer)
    with open(out_dir / "stdout.txt", "w", encoding="utf-8") as fh:
        with contextlib.redirect_stdout(fh):
            start = _clock()
            rc = cli.main(cli_args)
            total = _clock() - start
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    summary = {
        "exit": rc,
        "total_s": total,
        "absent_hooks": absent,
        "absent_metrics": [m for m, (hook, _, _) in METRICS.items() if hook in absent],
        "metrics": metrics(tracer, absent),
        "groups": {g: tracer.group_s.get(g, 0.0) for g in sorted(set(GROUPS.values()))},
    }
    (out_dir / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
