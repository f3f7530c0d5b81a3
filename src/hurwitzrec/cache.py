"""On-disk cache of computed correlation forms, in the ELSV basis.

The file is a single JSON document carrying a format version and a curve
fingerprint.  A version or fingerprint mismatch (the fingerprint covers the
sign convention and the engine version) makes the loader ignore the whole
file; it is never read partially.  So does a malformed entry, a g or k
that is not a JSON integer (true and 1.0 would pass for 1 as dict keys), a
repeated (g, k), a multi-index repeated within one form (a dict would keep
its last coefficient), an unstable (g, k), a form with no terms, or a key
outside the window 2g - 3 + k <= sum(e_i - 1) <= 3g - 3 + k, none of which
a stable form W(g, k) has (for every stable (g, k) some H_{g,mu} with
len(mu) = k is positive, so W(g, k) is never zero; the constructor refuses
a key of the wrong length or an index below 1).  Entries are keyed by
(g, k): a form does not depend on the truncation order it was computed at.
Writers merge under an exclusive `flock` on the sidecar file
``<path>.lock``.

A symlink at the path is resolved once, when the cache is attached: the
load, the lock, the temporary file and the replace all act on its target,
so the link survives and the target holds the forms.  Anything else at the
path other than a regular file, such as a directory, a FIFO or a device, is
never opened: it is unusable to the loader, and a writer refuses it with
CacheWriteError before it makes the lock or a temporary file.  A writer
refuses anything but a regular file at the lock path the same way, before
opening it, since opening a FIFO there would block.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os

from .common import is_stable
from .poleform import PoleForm
from .toprec import FINGERPRINT, outside_window

CACHE_FORMAT = 3


def load_cache(path, fingerprint):
    """Return {(g, k): PoleForm}; {} when unusable."""
    # opening a FIFO would block, and reading a device is never a cache
    if not os.path.isfile(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, ValueError):
        return {}
    if not isinstance(doc, dict):
        return {}
    if doc.get("format") != CACHE_FORMAT or doc.get("fingerprint") != fingerprint:
        return {}
    out = {}
    try:
        for entry in doc["poleforms"]:
            form = PoleForm.from_obj(entry)
            g, k = key = (form.g, form.k)
            bad = outside_window(g, k, form.nums) or not form.nums or not is_stable(*key)
            if bad or key in out:
                return {}
            out[key] = form
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return {}
    return out


class CacheWriteError(Exception):
    """The cache file could not be written; the message names the path."""


def save_cache(path, fingerprint, forms):
    """Write {(g, k): PoleForm} atomically, raising CacheWriteError on an
    OSError; the temporary file never outlives the call."""
    doc = {
        "format": CACHE_FORMAT,
        "fingerprint": fingerprint,
        "poleforms": [form.to_obj() for _, form in sorted(forms.items())],
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(", ", ": ")))
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheWriteError(f"cannot write the cache file {path}: {exc.strerror}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def attach_cache(engine, path):
    """Preload an engine's memo table from the file (when compatible) and
    return a closure that merges the memo into the file as it is then,
    unless the engine computed nothing the file did not already hold.  The
    re-read, merge and replace run under an exclusive lock on ``<path>.lock``,
    so two runs that flush at once both keep their forms.  ``path`` is
    resolved first, so a symlink's target is read and written, and every
    message names the resolved path."""
    path = os.path.realpath(path)
    lock_path = f"{path}.lock"
    loaded = load_cache(path, FINGERPRINT)
    engine.preload(loaded, path)

    def flush():
        if loaded.keys() >= engine._memo.keys():
            return
        if os.path.exists(path) and not os.path.isfile(path):
            reason = os.strerror(errno.EISDIR) if os.path.isdir(path) else "not a regular file"
            raise CacheWriteError(f"cannot write the cache file {path}: {reason}")
        if os.path.exists(lock_path) and not os.path.isfile(lock_path):
            raise CacheWriteError(
                f"cannot write the cache file {path}: its lock {lock_path} is not a regular file"
            )
        try:
            lock = open(lock_path, "a")
        except OSError as exc:
            raise CacheWriteError(f"cannot write the cache file {path}: {exc.strerror}") from exc
        with lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            save_cache(path, FINGERPRINT, {**load_cache(path, FINGERPRINT), **engine._memo})

    return flush
