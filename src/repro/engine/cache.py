"""On-disk result cache: content-hashed cells, JSON payloads.

Each cell's canonical descriptor (see :func:`repro.engine.cells
.cell_descriptor`) is hashed with SHA-256; the verdict / outcome-set
payload is stored as ``<hash>.json`` under the cache directory.  Because
the key covers the test content, the model's clauses and the engine
version, a cache entry can never serve a stale result: any change to the
inputs changes the key, and semantic engine changes bump
:data:`~repro.engine.cells.ENGINE_VERSION`.

Outcome sets round-trip losslessly (register names are strings, processor
ids / addresses / values are ints), so cached results are byte-identical
to freshly computed ones once rendered.  Writes go through a temp file and
an atomic rename, which keeps concurrent pool workers from ever observing
a torn entry.

The cache directory is safe to *share*: any number of processes — pool
workers, several independent runs — may read and write one directory
concurrently.  Writers never collide (``mkstemp`` names are unique,
``os.replace`` is atomic, and duplicate stores of one key are idempotent
by construction: the key hashes the inputs and the payload is a pure
function of them), readers never see a torn entry, and a writer that is
killed mid-store leaves only an orphaned ``*.tmp`` file that lookups
ignore and :meth:`ResultCache.purge_stale_tmp` sweeps.  Entries are
self-validating and version-keyed, so a warmed directory ships between
machines with a plain ``cp -r`` or ``tar``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Optional, Sequence

from ..litmus.test import LitmusTest, Outcome
from ..obs import current as _obs_current
from ..obs import incr as _obs_incr
from .cells import (
    ORACLE_AXIOMATIC,
    CellResult,
    CellSpec,
    OutcomeSpec,
    VerdictSpec,
    cell_descriptor,
    model_descriptor,
    model_display_name,
    test_descriptor,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "batch_cache_keys",
    "cell_cache_key",
]


def _digest(descriptor: dict) -> str:
    text = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_cache_key(cell: CellSpec) -> str:
    """The SHA-256 content hash identifying a cell's cache entry."""
    return _digest(cell_descriptor(cell))


def batch_cache_keys(test: LitmusTest, cells: Sequence[CellSpec]) -> list[str]:
    """:func:`cell_cache_key` for every cell of one test's batch.

    The test's descriptor is built once and each model's once, instead of
    once per cell: model descriptors resolve the model, and test
    descriptors render every instruction.
    """
    test_part = test_descriptor(test)
    model_parts: dict = {}
    keys = []
    for cell in cells:
        model_part = None
        if cell.oracle == ORACLE_AXIOMATIC:
            # Spec strings key by value; built models by identity.
            slot = cell.model if isinstance(cell.model, str) else id(cell.model)
            model_part = model_parts.get(slot)
            if model_part is None:
                model_part = model_parts[slot] = model_descriptor(cell.model)
        keys.append(_digest(cell_descriptor(cell, test_part, model_part)))
    return keys


def _cell_label(cell: CellSpec) -> str:
    """The per-model (or per-oracle) label cache counters are keyed by.

    Axiomatic cells are keyed by their model's display name; operational
    cells by the oracle string (e.g. ``operational:gam``), matching the
    cache key's indifference to the display model.
    """
    if cell.oracle != ORACLE_AXIOMATIC:
        return cell.oracle
    return model_display_name(cell.model)


def _count_lookup(cell: CellSpec, outcome: str) -> None:
    """Record a cache lookup outcome (``hit``/``miss``) plus its label.

    The label string is only built when a recorder is active, so the
    disabled path costs one attribute check.
    """
    recorder = _obs_current()
    if not recorder.active:
        return
    recorder.incr("engine.cache." + outcome)
    recorder.incr("engine.cache." + outcome + ".by." + _cell_label(cell))


def _outcome_to_json(outcome: Outcome) -> dict:
    return {
        "regs": sorted([proc, reg, value] for proc, reg, value in outcome.regs),
        "mem": sorted([addr, value] for addr, value in outcome.mem),
    }


def _outcome_from_json(data: dict) -> Outcome:
    return Outcome(
        regs=frozenset((proc, reg, value) for proc, reg, value in data["regs"]),
        mem=frozenset((addr, value) for addr, value in data["mem"]),
    )


def _kind(cell: CellSpec) -> str:
    """The payload ``kind`` of a cell's entry (its descriptor's ``kind``)."""
    if isinstance(cell, VerdictSpec):
        return "verdict"
    if isinstance(cell, OutcomeSpec):
        return "outcomes"
    raise TypeError(f"unknown cell spec {cell!r}")


def _encode(cell: CellSpec, result: CellResult) -> dict:
    if _kind(cell) == "verdict":
        return {"kind": "verdict", "allowed": result}
    outcomes = sorted(
        (_outcome_to_json(outcome) for outcome in result),
        key=lambda d: (d["regs"], d["mem"]),
    )
    return {"kind": "outcomes", "outcomes": outcomes}


def _decode(cell: CellSpec, payload: dict) -> CellResult:
    if _kind(cell) == "verdict":
        return bool(payload["allowed"])
    return frozenset(_outcome_from_json(d) for d in payload["outcomes"])


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A point-in-time inventory of a cache directory.

    ``tmp_files`` counts orphaned ``*.tmp`` spool files — the residue of
    writers that died between ``mkstemp`` and the atomic rename (a
    SIGKILLed pool worker, a machine crash).  They are invisible to
    lookups but accumulate bytes forever unless swept by
    :meth:`ResultCache.purge_stale_tmp`.
    """

    entries: int
    entry_bytes: int
    tmp_files: int
    tmp_bytes: int


class ResultCache:
    """A directory of content-addressed cell results."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def entry_path(self, cell: CellSpec) -> pathlib.Path:
        """Where ``cell``'s result lives (whether or not it exists yet)."""
        return self._path(cell_cache_key(cell))

    def stats(self) -> CacheStats:
        """Count committed entries and orphaned temp files, with sizes.

        Files that vanish mid-scan (a concurrent purge or rename) are
        simply skipped — the inventory is advisory, not transactional.
        """
        entries = entry_bytes = tmp_files = tmp_bytes = 0
        for path in sorted(self.root.iterdir()):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if path.suffix == ".json":
                entries += 1
                entry_bytes += size
            elif path.suffix == ".tmp":
                tmp_files += 1
                tmp_bytes += size
        return CacheStats(entries, entry_bytes, tmp_files, tmp_bytes)

    def purge_stale_tmp(self, older_than: float, now: float) -> tuple[int, int]:
        """Delete orphaned ``*.tmp`` files older than ``older_than`` seconds.

        ``now`` is the caller's wall-clock reading (``time.time()``),
        passed in rather than read here so the engine itself stays free
        of raw clock reads; ages are judged against file mtimes.  Young
        temp files are left alone — they may belong to a live writer.
        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = reclaimed = 0
        for path in sorted(self.root.glob("*.tmp")):
            try:
                stat = path.stat()
            except OSError:
                continue
            if now - stat.st_mtime < older_than:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += stat.st_size
        return removed, reclaimed

    def load(self, cell: CellSpec, key: Optional[str] = None) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        ``key`` is the cell's :func:`cell_cache_key` when the caller has
        already computed it.  Unreadable or mismatched entries (e.g. a
        kind collision from a truncated write that slipped past the
        atomic rename) count as misses rather than errors; telemetry
        additionally counts them as ``engine.cache.stale``.
        """
        path = self._path(key if key is not None else cell_cache_key(cell))
        try:
            text = path.read_text()
        except FileNotFoundError:
            _count_lookup(cell, "miss")
            return None
        except OSError:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        if payload.get("kind") != _kind(cell):
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        try:
            result = _decode(cell, payload)
        except (KeyError, TypeError, ValueError):
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        _count_lookup(cell, "hit")
        return result

    def store(
        self, cell: CellSpec, result: CellResult, key: Optional[str] = None
    ) -> None:
        """Persist a cell result atomically (temp file + rename).

        Safe against concurrent writers sharing the directory: the temp
        name is unique per writer, the rename is atomic, and two writers
        racing on one key write identical bytes (the payload is a pure
        function of the key's inputs), so whichever rename lands last is
        as good as the other.  If the directory itself vanished under a
        concurrent purge, it is recreated and the write retried once —
        the one failure shape a shared store must shrug off.  ``key`` is
        as for :meth:`load`.
        """
        _obs_incr("engine.cache.store")
        if key is None:
            key = cell_cache_key(cell)
        payload = json.dumps(_encode(cell, result), sort_keys=True)
        try:
            self._spool(key, payload)
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            self._spool(key, payload)

    def _spool(self, key: str, payload: str) -> None:
        """One temp-file + atomic-rename write, orphan-guarded.

        Any failure past ``mkstemp`` unlinks the temp file, so the only
        way to orphan one is a hard kill mid-write — and those orphans
        are invisible to lookups and swept by :meth:`purge_stale_tmp`.
        """
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
