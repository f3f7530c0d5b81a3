"""On-disk cache of computed correlation forms.

The file is a single JSON document carrying a format version and a curve
fingerprint.  A version or fingerprint mismatch (the fingerprint covers the
sign convention and the engine version) makes the loader ignore the whole
file; it is never read partially.  So does a malformed entry, a repeated
(g, k), a pole of order 1 or a pole order above 6g - 4 + 2k, none of which
a stable form W(g, k) has.  Entries are keyed by (g, k): a form does not
depend on the truncation order it was computed at.
"""

from __future__ import annotations

import contextlib
import json
import os

from .poleform import PoleForm

CACHE_FORMAT = 2


def load_cache(path, fingerprint):
    """Return {(g, k): PoleForm}; {} when unusable."""
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
            key = (form.g, form.k)
            bound = 6 * form.g - 4 + 2 * form.k
            if key in out or any(1 in a or a[0] > bound for a in form.nums):
                return {}
            out[key] = form
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return {}
    return out


class CacheWriteError(Exception):
    """The cache file could not be written; the message names the path."""


def save_cache(path, fingerprint, forms):
    """Write {(g, k): PoleForm} atomically; on failure remove the temporary
    file and raise CacheWriteError."""
    doc = {
        "format": CACHE_FORMAT,
        "fingerprint": fingerprint,
        "poleforms": [form.to_obj() for _, form in sorted(forms.items())],
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(", ", ": "))
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CacheWriteError(f"cannot write the cache file {path}: {exc.strerror}") from exc


def attach_cache(engine, path):
    """Preload an engine's memo table from the file (when compatible) and
    return a closure that merges the memo into the file as it is then,
    unless the engine computed nothing the file did not already hold."""
    fingerprint = engine.fingerprint()
    loaded = load_cache(path, fingerprint)
    engine.preload(loaded, path)

    def flush():
        if loaded.keys() >= engine._memo.keys():
            return
        save_cache(path, fingerprint, {**load_cache(path, fingerprint), **engine._memo})

    return flush
