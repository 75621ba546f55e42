"""Content-addressed result caching: keys, entry codec, and the dir backend.

A cache entry is keyed by a stable hash of (spec fn, spec kwargs,
code version, format version) where the code version is itself a hash
of every ``.py`` file in the :mod:`repro` package — editing any source
file invalidates the whole cache, so a stale result can never masquerade
as a fresh one.  The entry payload is one pickle of ``(value,
wall_time)`` (:func:`encode_entry` / :func:`decode_entry`) — every
backend stores exactly these bytes under exactly these keys, which is
what makes dir, sqlite and HTTP stores interchangeable and
bit-compatible (see :mod:`repro.parallel.backends`).

:class:`CacheBackend` is the protocol the runner and CLI program
against, and the one place ``get``/``put`` are written; a backend
supplies three blob methods under them plus the operational surface
``stats`` and ``prune``.  :class:`ResultCache` is the original
local-directory implementation (entries as atomic-replace pickle files,
two-level fan-out); it keeps its historical name, keys and on-disk
format, so caches populated before the backend split remain readable.

Backends degrade gracefully: if the store cannot be created or written
(read-only home, weird ``REPRO_CACHE_DIR``), they disable themselves
and every lookup is a miss.  Corrupt or unreadable entries are treated
as misses and removed best-effort.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.parallel.spec import PointSpec

#: Bump when the entry format changes; invalidates all old entries.
CACHE_FORMAT = 1

#: Everything :func:`decode_entry` can raise on a corrupt/alien payload.
DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    TypeError,
    AttributeError,
    ImportError,
    IndexError,
)

#: Everything :func:`encode_entry` can raise on an unpicklable value
#: (pickle raises AttributeError/TypeError for local objects).
ENCODE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)


def default_cache_dir() -> str:
    """The default local cache directory, per the XDG base-dir spec.

    Precedence: ``$REPRO_CACHE_DIR`` (ours, always wins), then
    ``$XDG_CACHE_HOME/repro`` (ignored unless absolute, as the spec
    requires), then ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Stable hash of every ``.py`` file in the installed repro package."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def spec_key(spec: PointSpec, version: Optional[str] = None) -> str:
    """Content hash addressing *spec* under code *version*.

    Stable across processes and kwargs insertion order; the label is
    deliberately excluded (it is presentation, not content).
    """
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "code": version if version is not None else code_version(),
            "fn": spec.fn,
            "kwargs": spec.kwargs,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def encode_entry(value: Any, wall_time: float) -> bytes:
    """Serialize one cache entry — the bytes every backend stores."""
    return pickle.dumps((value, wall_time), protocol=pickle.HIGHEST_PROTOCOL)


def decode_entry(data: bytes) -> Tuple[Any, float]:
    """Inverse of :func:`encode_entry`; raises :data:`DECODE_ERRORS`."""
    value, wall_time = pickle.loads(data)
    return value, wall_time


class CacheBackend:
    """The store protocol the runner and the CLI program against.

    ``get``/``put`` are stated once, here: the shared key scheme
    (:func:`spec_key`), the entry codec, the hit/miss tally and what a
    corrupt entry or a failed write means.  A concrete backend (dir
    here; sqlite and HTTP in :mod:`repro.parallel.backends`) is a blob
    store under them — ``read_blob`` / ``write_blob`` / ``delete_blob``
    by key — plus the operational surface: ``stats()`` for
    ``taq-experiments cache stats`` and ``prune()`` for retention.  All
    backends expose ``kind`` (a short tag: ``dir``/``sqlite``/``http``),
    ``enabled`` (False once the store is known unusable — every later
    lookup is a silent miss) and ``hits``/``misses`` counters.
    """

    #: Short backend tag (``stats()``, the ``/metrics`` label).
    kind = "base"

    version: Optional[str] = None
    enabled: bool = True
    hits: int = 0
    misses: int = 0

    def key(self, spec: PointSpec) -> str:
        return spec_key(spec, self.version)

    # -- the blob surface a backend implements --------------------------
    def read_blob(self, key: str) -> Optional[bytes]:
        """Entry bytes for *key*, or None when absent or unreadable
        (never raises)."""
        raise NotImplementedError

    def write_blob(self, key: str, data: bytes) -> None:
        """Atomically store entry bytes under *key*; raises OSError when
        the store cannot take them (``put`` then disables it)."""
        raise NotImplementedError

    def delete_blob(self, key: str) -> None:
        """Drop the entry under *key*, best-effort (never raises)."""
        raise NotImplementedError

    # -- get/put, once ---------------------------------------------------
    def get(self, spec: PointSpec) -> Optional[Tuple[Any, float]]:
        """Return ``(value, wall_time)`` for *spec*, or None on a miss."""
        if self.enabled:
            key = self.key(spec)
            data = self.read_blob(key)
            if data is not None:
                try:
                    entry = decode_entry(data)
                except DECODE_ERRORS:
                    # Corrupt or alien entry: drop it and treat as a miss.
                    self.delete_blob(key)
                else:
                    self.hits += 1
                    return entry
        self.misses += 1
        return None

    def put(self, spec: PointSpec, value: Any, wall_time: float) -> None:
        """Store *value* for *spec*; never raises — an unpicklable value
        or an unwritable store disables the backend instead."""
        if not self.enabled:
            return
        try:
            self.write_blob(self.key(spec), encode_entry(value, wall_time))
        except (OSError,) + ENCODE_ERRORS:
            self.enabled = False

    def stats(self) -> Dict[str, Any]:
        """Operational snapshot: entry count, bytes, hit/miss counters."""
        raise NotImplementedError

    def prune(self, older_than_s: Optional[float] = None) -> int:
        """Drop entries older than *older_than_s* seconds (all when
        None); returns the number removed."""
        raise NotImplementedError

    def describe(self) -> str:
        """``kind:location`` — the string ``--cache-backend`` accepts."""
        return self.kind

    def _base_stats(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "location": self.describe(),
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
        }


class ResultCache(CacheBackend):
    """On-disk result store mapping :func:`spec_key` to (value, wall_time).

    Entries are pickles written atomically (tmp file + ``os.replace``)
    so concurrent writers never expose torn entries to readers.  The
    HTTP store server serves a directory of exactly this layout through
    the same blob methods, so a dir cache and an HTTP store over the
    same root are the same cache.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.
    version:
        Code-version string mixed into every key; defaults to
        :func:`code_version`.  Tests override it to exercise
        invalidation without editing source files.
    """

    kind = "dir"

    def __init__(self, root: Optional[str] = None, version: Optional[str] = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.version = version
        self.hits = 0
        self.misses = 0
        self.enabled = True
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.enabled = False

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.root / key[:2] / f"{key}.pkl"

    def read_blob(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def write_blob(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            self._discard(Path(tmp))
            raise

    def delete_blob(self, key: str) -> None:
        self._discard(self._path(key))

    def iter_entries(self) -> Iterator[Path]:
        """Every entry file currently in the store."""
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("??/*.pkl")

    def stats(self) -> Dict[str, Any]:
        out = self._base_stats()
        entries = 0
        size = 0
        for path in self.iter_entries():
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        out.update(entries=entries, bytes=size)
        return out

    def prune(self, older_than_s: Optional[float] = None) -> int:
        cutoff = None if older_than_s is None else time.time() - older_than_s
        removed = 0
        for path in self.iter_entries():
            try:
                if cutoff is not None and path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def describe(self) -> str:
        return f"dir:{self.root}"

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"ResultCache({str(self.root)!r}, {state}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def parse_backend(
    text: Optional[str], version: Optional[str] = None
) -> CacheBackend:
    """Build the cache backend a ``--cache-backend`` string names.

    Accepted forms: ``dir:PATH``, ``sqlite:PATH``, ``http://host:port``
    (or https), and a bare path (treated as ``dir:``).  ``None`` or an
    empty string selects the default local dir store
    (:func:`default_cache_dir`).  The grammar is read before any client
    is imported: only a ``sqlite:`` or ``http://`` string loads
    :mod:`repro.parallel.backends` (``sqlite3``, ``urllib.request``).
    """
    if not text:
        return ResultCache(version=version)
    if text.startswith(("http://", "https://")):
        from repro.parallel.backends import HttpCache

        return HttpCache(text, version=version)
    scheme, sep, rest = text.partition(":")
    if sep and scheme == "dir":
        return ResultCache(root=rest or default_cache_dir(), version=version)
    if sep and scheme == "sqlite":
        if not rest:
            raise ValueError("sqlite backend needs a path: sqlite:PATH")
        from repro.parallel.backends import SqliteCache

        return SqliteCache(rest, version=version)
    if sep and scheme and "/" not in scheme and "\\" not in scheme and scheme != ".":
        raise ValueError(
            f"unknown cache backend {text!r}; expected dir:PATH, "
            "sqlite:PATH, or http://host:port"
        )
    return ResultCache(root=text, version=version)
