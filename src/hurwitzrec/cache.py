"""On-disk cache of computed correlation forms, in the ELSV basis.

The file is a single JSON document carrying a format version, a curve
fingerprint, a digest and the forms.  The loader decides alone whether a
file can be trusted, and either takes every form or ignores the whole file;
it never reads one partially.  It checks, in this order:

- the format version and the fingerprint (which covers the sign convention
  and the engine version), so a file of another layout or another engine
  is ignored;
- the digest, the `zlib.crc32` of the ``poleforms`` list as the writer
  dumps it, so a file edited after it was written is ignored before any
  form is read;
- each entry: one that does not parse, a g or k that is not a JSON integer
  (true and 1.0 would pass for 1 as dict keys), a repeated (g, k), a
  multi-index repeated within one form (a dict would keep its last
  coefficient), an unstable (g, k), a form with no terms, or a key outside
  the window 2g - 3 + k <= sum(e_i - 1) <= 3g - 3 + k, none of which a
  stable form W(g, k) has (for every stable (g, k) some H_{g,mu} with
  len(mu) = k is positive, so W(g, k) is never zero; the constructor
  refuses a key of the wrong length or an index below 1).

The digest guards against accidental edits and hand edits, not against a
forger, who could recompute any unkeyed digest; nor against a wrong form
that a fault in the code wrote under an unchanged fingerprint.  Entries are
keyed by (g, k): a form does not depend on the truncation order it was
computed at.  Writers merge under an exclusive `flock` on the sidecar file
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
import zlib

from .common import is_stable
from .poleform import PoleForm
from .toprec import FINGERPRINT, outside_window

CACHE_FORMAT = 4
SEPARATORS = (", ", ": ")


def digest(poleforms) -> int:
    """The `zlib.crc32` of the ``poleforms`` list dumped as the writer dumps it."""
    return zlib.crc32(json.dumps(poleforms, separators=SEPARATORS).encode())


def load_cache(path, fingerprint):
    """Return {(g, k): PoleForm}; {} when the file is unusable: missing,
    not JSON, of another format or fingerprint, not matching its digest, or
    holding an entry no stable form has (see the module docstring)."""
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
        poleforms = doc["poleforms"]
        if doc.get("digest") != digest(poleforms):
            return {}
        for entry in poleforms:
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
    poleforms = [form.to_obj() for _, form in sorted(forms.items())]
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            doc = {
                "format": CACHE_FORMAT,
                "fingerprint": fingerprint,
                "digest": digest(poleforms),
                "poleforms": poleforms,
            }
            fh.write(json.dumps(doc, separators=SEPARATORS))
        os.replace(tmp, path)
    except OSError as exc:
        raise CacheWriteError(f"cannot write the cache file {path}: {exc.strerror}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def attach_cache(engine, path):
    """Seed an engine's memo table from the file (when usable) and
    return a closure that merges the memo into the file as it is then,
    unless the engine computed nothing the file did not already hold.  The
    re-read, merge and replace run under an exclusive lock on ``<path>.lock``,
    so two runs that flush at once both keep their forms.  ``path`` is
    resolved first, so a symlink's target is read and written, and every
    message names the resolved path."""
    path = os.path.realpath(path)
    lock_path = f"{path}.lock"
    loaded = load_cache(path, FINGERPRINT)
    engine._memo.update(loaded)

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
