"""Validation certificates: a runtime validation proven once, trusted
across processes.

A compiled plan's first launch proves its batched program bitwise equal
to the interpreter (replay or shadow validation, see
:mod:`repro.sycl.vectorize`).
That proof used to die with the process, so every fresh ``repro suite
--mode compiled`` re-ran the per-item interpreter for every plan.  The
paper's FPGA flow compiles a design once and reuses the bitstream; this
store does the same for the proof.  After a bitwise match the plan
writes a **certificate**; a later process whose launch carries the same
key finds it, marks the plan validated, and runs the batched program
directly.

The key is a sha256 over :func:`certificate_payload`: the schema, the
package :func:`~repro.common.cache.code_fingerprint`, the numpy
version, the host (:func:`host_identity`), the kernel name, digests
of the interpreter function's and the translated program's code
objects (with the launch-invariant globals they read), the global and
local range, the kernel attributes, and the argument signature (ndarray
dtype, shape and layout; ``LocalAccessor`` dtype and shape; scalar
types).  A change to any of them is a different key, so a stale
certificate is never found.  A launch whose buffers may share memory is
never certified; it is validated in each process.  The host is in the
key because the proof is host-dependent: the interpreter calls libm
through ``math`` while the batched program calls numpy's ufuncs, whose
SIMD loops numpy picks per CPU, so a cache directory shared between
hosts must not carry one host's proof to another.

The file holds the full payload, and a read compares the whole file
byte for byte with the document the current launch would write.
Anything else — a missing, unreadable, corrupt, truncated,
foreign-schema or mismatched file — is a miss, and a miss means full
validation, followed by a rewrite when the program matches.
Only bitwise matches are written; a demotion never is.

Library callers persist nothing: the store is process-wide and off
until someone installs one with
:func:`~repro.sycl.plan.using_certificate_store` (the ``suite`` and
``run`` subcommands install a root under ``--cache-dir`` /
``$REPRO_CACHE_DIR`` / ``.repro_cache``; this module and the store load
on the first compiled launch that needs validating).

>>> import tempfile
>>> payload = {"kernel": "k"}
>>> with tempfile.TemporaryDirectory() as root:
...     store = CertificateStore(root)
...     first = store.lookup(payload)
...     store.record(payload)
...     second = store.lookup(payload)
>>> (first, second)
(False, True)
>>> (store.hits, store.misses, store.writes, store.rejects)
(1, 1, 1, 0)
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import threading
import types
from functools import lru_cache

import numpy as np

from ..common.cache import (atomic_write, canonical_json, code_fingerprint,
                            content_key, resolve_cache_root)
from ..trace.metrics import registry as _metrics
from .vectorize import _SCALARS, _arg_signature, _overlaps

__all__ = [
    "CERTIFICATE_SCHEMA",
    "CertificateStore",
    "certificate_payload",
    "host_identity",
]

#: bumped whenever the payload layout or its meaning changes; a file of
#: another schema is a miss
CERTIFICATE_SCHEMA = 2


# ---------------------------------------------------------------------------
# The key payload
# ---------------------------------------------------------------------------

def _global_digest(name: str, glb: dict) -> str:
    """What a global name a kernel reads resolves to, as stable text.

    Modules by name, scalar constants (and tuples of them) by value,
    anything else by type — a module constant edited in a file outside
    the package fingerprint still changes the key.
    """
    if name not in glb:
        return "unbound"  # a builtin, or an attribute name
    value = glb[name]
    if isinstance(value, types.ModuleType):
        return f"module:{value.__name__}"
    if isinstance(value, _SCALARS) or (
            isinstance(value, tuple)
            and all(isinstance(v, _SCALARS) for v in value)):
        return f"{type(value).__name__}:{value!r}"
    return f"object:{type(value).__module__}.{type(value).__qualname__}"


def _code_digest(code: types.CodeType, glb: dict, h) -> None:
    """Feed everything behaviour-relevant in ``code`` to ``h``.

    File names and line numbers are left out (moving a kernel does not
    change what it computes); constant sets are sorted, so string-hash
    randomization cannot change the digest between processes.
    """
    h.update(code.co_code)
    h.update(repr((code.co_argcount, code.co_posonlyargcount,
                   code.co_kwonlyargcount, code.co_flags, code.co_names,
                   code.co_varnames, code.co_freevars,
                   code.co_cellvars)).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _code_digest(const, glb, h)
        elif isinstance(const, frozenset):
            h.update(repr(sorted(map(repr, const))).encode())
        else:
            h.update(f"{type(const).__name__}:{const!r}".encode())
        h.update(b"\0")
    for name in code.co_names:
        h.update(f"{name}={_global_digest(name, glb)}\0".encode())


def _function_digest(fn) -> str:
    """Digest of a kernel function's code object and the globals it reads."""
    h = hashlib.sha256()
    _code_digest(fn.__code__, fn.__globals__, h)
    return h.hexdigest()[:32]


@lru_cache(maxsize=1)
def host_identity() -> dict:
    """What about this host can change a batched program's bits: the
    Python build, the machine, and the CPU features numpy dispatches
    its ufunc loops on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": sys.version,
        "implementation": sys.implementation.cache_tag,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items()
                               if on),
    }


def certificate_payload(kernel, interp_fn, batched_fn, nd_range,
                        args: tuple) -> dict | None:
    """The key payload of one compiled launch, or ``None`` when an
    argument has no stable signature or buffers may share memory (such
    launches are never certified)."""
    if _overlaps(args):
        return None
    signature = []
    for arg in args:
        sig = _arg_signature(arg)
        if sig is None:
            return None
        signature.append(sig)
    return {
        "schema": CERTIFICATE_SCHEMA,
        "code": code_fingerprint(),
        "numpy": np.__version__,
        "host": host_identity(),
        "kernel": kernel.name,
        "interp_code": _function_digest(interp_fn),
        "batched_code": _function_digest(batched_fn),
        "global_range": list(nd_range.global_range.dims),
        "local_range": list(nd_range.local_range.dims),
        "attributes": repr(kernel.attributes),
        "args": signature,
    }


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------

class CertificateStore:
    """Content-addressed on-disk store of validation certificates.

    Certificates live in ``<root>/certificates/<key>.json``; ``root``
    resolves like the figure cache's (explicit, ``$REPRO_CACHE_DIR``,
    ``.repro_cache``), and keys and writes go through the same
    :mod:`repro.common.cache` helpers.  Every lookup is exactly one hit
    or one miss; ``rejects`` counts the misses where a file was present
    but not trusted, and ``writes`` the certificates recorded.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = resolve_cache_root(root) / "certificates"
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.rejects = 0
        self._lock = threading.Lock()

    key_for = staticmethod(content_key)

    def _count(self, outcome: str) -> None:
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
        _metrics.counter(f"vectorize.certificate.{outcome}").inc()

    def _document(self, payload: dict) -> tuple[str, bytes]:
        """(key, exact file bytes) of the certificate for ``payload``."""
        key = content_key(payload)
        doc = {"schema": CERTIFICATE_SCHEMA, "key": key, "payload": payload}
        return key, canonical_json(doc).encode()

    def lookup(self, payload: dict) -> bool:
        """Whether an intact certificate for ``payload`` is on disk.

        Intact means byte-identical to the document :meth:`record`
        writes for this payload, so every damaged, foreign, stale or
        foreign-schema file is rejected.
        """
        key, expected = self._document(payload)
        path = self.root / f"{key}.json"
        try:
            found = path.read_bytes()
        except FileNotFoundError:
            return self._miss(rejected=False)
        except OSError:  # a directory in its place, no permission
            return self._miss(rejected=True)
        if found != expected:
            return self._miss(rejected=True)
        self._count("hits")
        return True

    def _miss(self, *, rejected: bool) -> bool:
        self._count("misses")
        if rejected:
            self._count("rejects")
        return False

    def record(self, payload: dict) -> None:
        """Write the certificate for ``payload`` (after a bitwise match).

        Atomic (:func:`~repro.common.cache.atomic_write`), and best
        effort: a store that cannot be written leaves the next process
        to validate again, never the launch to fail.
        """
        key, document = self._document(payload)
        try:
            atomic_write(self.root / f"{key}.json", document)
        except OSError:
            return
        self._count("writes")
