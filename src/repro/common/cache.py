"""What every on-disk cache shares: the code fingerprint, the root, the
key derivation and the atomic write.

The figure cache (:class:`repro.harness.resultdb.FigureCache`), the
sweep journal and the validation-certificate store
(:mod:`repro.sycl.certificates`) all key their entries by
:func:`code_fingerprint` and live under :func:`resolve_cache_root`.
The two content-addressed stores also share :func:`content_key` and
:func:`atomic_write`, so the on-disk policy has one copy.  All of it
lives here, below every layer that persists, so the SYCL runtime never
has to import the harness to find it.

>>> content_key({"b": 1, "a": [2, 3]}) == content_key({"a": [2, 3], "b": 1})
True
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from functools import lru_cache
from pathlib import Path

__all__ = ["code_fingerprint", "resolve_cache_root", "DEFAULT_CACHE_DIR",
           "canonical_json", "content_key", "atomic_write"]

#: cache root when neither an explicit directory nor ``$REPRO_CACHE_DIR``
#: is given (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro_cache"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (path + bytes).

    Any code change — model constants, kernel bodies, figure assembly —
    produces a new fingerprint and therefore a cold cache.  Stale
    entries can never be served after an edit.
    """
    pkg_root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for path in sorted(pkg_root.rglob("*.py")):
        digest.update(str(path.relative_to(pkg_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def resolve_cache_root(root: str | os.PathLike | None = None) -> Path:
    """The cache directory: ``root`` if given, else ``$REPRO_CACHE_DIR``,
    else :data:`DEFAULT_CACHE_DIR`.

    >>> resolve_cache_root("build/cache").as_posix()
    'build/cache'
    """
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return Path(root)


def canonical_json(value) -> str:
    """``value`` as compact JSON with sorted keys: one text per value."""
    import json  # only the content-addressed stores need it

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_key(value) -> str:
    """The entry key of ``value``: sha256 over :func:`canonical_json`,
    32 hex digits.  Callers put a schema version and the
    :func:`code_fingerprint` in ``value``, so either change is a new key.
    """
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:32]


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so readers see the old file or the
    new one, never a torn one.

    Each writer stages through its own ``mkstemp`` file in the target
    directory (a shared ``<key>.tmp`` would let one racing writer's
    ``os.replace`` strand the other's), then ``os.replace``-s it into
    place.  The staging file is removed on any failure, and the error
    propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
