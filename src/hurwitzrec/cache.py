"""On-disk cache of computed correlation forms.

The file is a single JSON document carrying a format version and a curve
fingerprint.  A version or fingerprint mismatch (the fingerprint covers the
sign convention and the engine version) makes the loader ignore the whole
file; it is never read partially.  So does a malformed entry or a pole of
order 1, which no stable form has.  Entries are keyed by (g, k, trunc_order).
"""

from __future__ import annotations

import json
import os

from .poleform import PoleForm

CACHE_FORMAT = 1


def load_cache(path, fingerprint):
    """Return {(g, k, trunc_order): PoleForm}; {} when unusable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(doc, dict):
        return {}
    if doc.get("format") != CACHE_FORMAT or doc.get("fingerprint") != fingerprint:
        return {}
    out = {}
    try:
        for entry in doc["poleforms"]:
            form = PoleForm.from_obj(entry)
            if any(1 in key for key in form.nums):
                return {}
            out[(form.g, form.k, int(entry["trunc_order"]))] = form
    except (ArithmeticError, KeyError, TypeError, ValueError):
        return {}
    return out


def save_cache(path, fingerprint, forms):
    """Write {(g, k, trunc_order): PoleForm} atomically."""
    entries = []
    for (g, k, order), form in sorted(forms.items()):
        obj = form.to_obj()
        obj["trunc_order"] = order
        entries.append(obj)
    doc = {
        "format": CACHE_FORMAT,
        "fingerprint": fingerprint,
        "poleforms": entries,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(", ", ": "))
    os.replace(tmp, path)


def attach_cache(engine, path):
    """Preload an engine's memo table from the file (when compatible) and
    return a closure that writes the merged table back, unless the engine
    computed nothing the file did not already hold."""
    fingerprint = engine.fingerprint()
    loaded = load_cache(path, fingerprint)
    preloaded = {
        (g, k): form for (g, k, order), form in loaded.items() if order == engine.order
    }
    engine.preload(preloaded, path)

    def flush():
        if preloaded.keys() >= engine._memo.keys():
            return
        merged = dict(loaded)
        for (g, k), form in engine._memo.items():
            merged[(g, k, engine.order)] = form
        save_cache(path, fingerprint, merged)

    return flush
