"""ResultDB — Altis' result-collection facility, reproduced — plus the
persistent figure-cell cache.

The original Altis harness runs each benchmark for ``--passes`` passes
and aggregates every reported metric (kernel time, transfer time,
bandwidth...) into a result database that prints min/max/median/mean/
stddev per metric, with units.  Both the CLI driver and the experiment
benches record through this class, so multi-pass runs and report
formatting behave like the original suite's output.

:class:`FigureCache` adds the on-disk layer: figure results keyed by a
hash of the cell inputs **and the code fingerprint** (a digest of every
``repro`` source file), so rebuilding Figs. 1/2/4/5 is incremental —
warm rebuilds read JSON instead of re-running the models, and any code
change invalidates every entry automatically.  The JSON codec is
structure-preserving (tuples and tuple-keyed dicts round-trip exactly),
which is what makes the cold-vs-warm bit-identical guarantee testable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

# code_fingerprint is re-exported: the journal and FigureCache key by it
from ..common.cache import (atomic_write, code_fingerprint, content_key,
                            resolve_cache_root)
from ..common.errors import InvalidParameterError

__all__ = ["Result", "ResultDB", "FigureCache", "SweepJournal",
           "code_fingerprint"]


@dataclass
class Result:
    """All passes of one (benchmark, metric, attributes) combination."""

    test: str
    attribute: str
    unit: str
    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"{self.test}/{self.attribute}: non-finite result {value!r}")
        self.values.append(float(value))

    # -- statistics (Altis prints these columns) -------------------------
    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def median(self) -> float:
        s = sorted(self.values)
        n = len(s)
        mid = n // 2
        return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values)
                         / (len(self.values) - 1))


class ResultDB:
    """Accumulates results across passes and renders the Altis report."""

    def __init__(self) -> None:
        self._results: dict[tuple[str, str], Result] = {}

    def add_result(self, test: str, attribute: str, unit: str,
                   value: float) -> None:
        key = (test, attribute)
        if key not in self._results:
            self._results[key] = Result(test=test, attribute=attribute,
                                        unit=unit)
        result = self._results[key]
        if result.unit != unit:
            raise InvalidParameterError(
                f"{test}/{attribute}: unit changed from {result.unit!r} "
                f"to {unit!r}")
        result.add(value)

    def results(self) -> list[Result]:
        return list(self._results.values())

    def get(self, test: str, attribute: str) -> Result:
        try:
            return self._results[(test, attribute)]
        except KeyError:
            raise KeyError(f"no result for {test!r}/{attribute!r}") from None

    def __len__(self) -> int:
        return len(self._results)

    # -- reporting --------------------------------------------------------
    def render(self) -> str:
        header = (f"{'test':<22}{'attribute':<22}{'unit':<10}{'passes':>7}"
                  f"{'min':>12}{'median':>12}{'mean':>12}{'max':>12}"
                  f"{'stddev':>12}")
        lines = [header, "-" * len(header)]
        for r in sorted(self._results.values(),
                        key=lambda r: (r.test, r.attribute)):
            lines.append(
                f"{r.test:<22}{r.attribute:<22}{r.unit:<10}{r.count:>7}"
                f"{r.min:>12.5g}{r.median:>12.5g}{r.mean:>12.5g}"
                f"{r.max:>12.5g}{r.stddev:>12.5g}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Persistent figure-cell cache
# ---------------------------------------------------------------------------

_CODEC_SCHEMA = 1


def _encode(value):
    """JSON-encode preserving tuples and non-string dict keys."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {"__map__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    raise InvalidParameterError(
        f"figure cache cannot encode {type(value).__name__}: {value!r}")


def _decode(value):
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        if "__map__" in value:
            return {_decode(k): _decode(v) for k, v in value["__map__"]}
        raise InvalidParameterError(f"corrupt figure-cache payload: {value!r}")
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


class FigureCache:
    """Content-addressed on-disk cache for figure results.

    Keys are a sha256 over the canonical JSON of the cell inputs plus a
    schema version and the :func:`code_fingerprint`; values are stored
    through the structure-preserving codec, so a warm read returns a
    value ``==`` to (and structurally indistinguishable from) the cold
    computation.  Caching lives strictly at the figure-assembly layer —
    it can relocate *when* a number is computed, never *what* it is.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 enabled: bool = True, fingerprint: str | None = None):
        self.root = resolve_cache_root(root)
        self.enabled = enabled
        self._fingerprint = fingerprint
        self.hits = 0
        self.misses = 0

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def key_for(self, **parts) -> str:
        return content_key({"schema": _CODEC_SCHEMA, "code": self.fingerprint,
                            "parts": _encode(dict(sorted(parts.items())))})

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, **parts):
        """Return the cached value for the cell, or ``None`` on a miss.

        A corrupt or half-written entry counts as a miss: it is dropped
        and the cell recomputes.
        """
        if not self.enabled:
            return None
        path = self._path(self.key_for(**parts))
        try:
            value = _decode(json.loads(path.read_text())["value"])
        except OSError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            # corrupt or half-written entry: drop it and recompute
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, value, **parts) -> None:
        if not self.enabled:
            return
        payload = json.dumps({"schema": _CODEC_SCHEMA, "parts": repr(parts),
                              "value": _encode(value)}, sort_keys=True)
        atomic_write(self._path(self.key_for(**parts)), payload.encode())

    def clear(self) -> None:
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "root": str(self.root), "enabled": self.enabled}


# ---------------------------------------------------------------------------
# Append-only sweep journal (checkpoint-resume)
# ---------------------------------------------------------------------------

class SweepJournal:
    """Durable, append-only journal of completed sweep cells (JSONL).

    Each completed cell is appended as one JSON line and fsync'd before
    the sweep moves on, so a killed sweep loses at most its in-flight
    cells; ``suite --resume`` replays the journal and re-executes only
    what is missing.  :meth:`load` tolerates a torn final line — exactly
    what a mid-write kill leaves behind — by discarding undecodable
    lines instead of failing the resume.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def load(self) -> list[dict]:
        """All intact records, in append order; torn lines are skipped."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail of a killed writer
            if isinstance(record, dict):
                records.append(record)
        return records

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self.load())
