"""On-disk result cache: content-hashed cells in one SQLite database.

Each cell's canonical descriptor (see :func:`repro.engine.cells
.cell_descriptor`) is hashed with SHA-256.  Its test part is the test's
``content_key`` (:class:`~repro.litmus.test.LitmusTest`), serialized
once per test object and pickled along with it, so neither the parent
nor a pool worker describes a test twice.  The verdict / outcome-set
payload is stored as JSON text under that key, in the table
``cells(key, payload)`` of ``cells.sqlite`` in the cache directory.
Because the key covers the test content, the model's clauses and the
engine version, a cache entry can never serve a stale result: any change
to the inputs changes the key, and semantic engine changes bump
:data:`~repro.engine.cells.ENGINE_VERSION`.

Outcome sets round-trip losslessly (register names are strings, processor
ids / addresses / values are ints), so cached results are byte-identical
to freshly computed ones once rendered.  Stores made inside
:meth:`ResultCache.batch` are written together in one transaction when
the block exits, so a batch of cells costs one commit, not one write per
cell.

The cache directory is safe to *share*: any number of processes — pool
workers, several independent runs — may read and write one database
concurrently.  The database runs in WAL mode, so readers never block
the writer or each other, and writers queue for the write lock under a
busy timeout.  Duplicate stores of one key are idempotent by
construction (the key hashes the inputs and the payload is a pure
function of them).  A transaction is atomic: a writer killed inside one
is rolled back by the next process to open the file, so readers see a
batch whole or not at all and nothing is ever left orphaned.  Each
process keeps one connection per database, and a forked child opens its
own rather than using its parent's.  ``sqlite3`` is imported when the
first cache is opened, so runs without a cache never load it.

Entries are self-validating and version-keyed, so a warmed cache ships
between machines as its directory: copy it (``cells.sqlite`` together
with its ``-wal`` file) while no writer is running.  A directory left by
the older one-JSON-file-per-cell layout has no database, so it simply
starts cold; its files are never read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import time
from typing import Iterable, Iterator, Optional

from ..litmus.test import Outcome
from ..obs import current as _obs_current
from ..obs import incr as _obs_incr
from .cells import (
    ORACLE_AXIOMATIC,
    CellResult,
    CellSpec,
    OutcomeSpec,
    VerdictSpec,
    cell_descriptor,
)

__all__ = [
    "DB_NAME",
    "CacheStats",
    "ResultCache",
    "cell_cache_key",
]

DB_NAME = "cells.sqlite"
"""The database file inside a cache directory."""

_BUSY_TIMEOUT_S = 60.0
_INIT_ATTEMPTS = 100
_INIT_RETRY_S = 0.05

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS cells("
    "key TEXT PRIMARY KEY, payload TEXT NOT NULL) WITHOUT ROWID"
)
_SELECT = "SELECT payload FROM cells WHERE key = ?"
_UPSERT = "INSERT OR REPLACE INTO cells (key, payload) VALUES (?, ?)"


def _canonical(descriptor: dict) -> str:
    return json.dumps(descriptor, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_cache_key(cell: CellSpec) -> str:
    """The SHA-256 content hash identifying a cell's cache entry.

    The hashed text is the canonical JSON of :func:`cell_descriptor`,
    built with an empty test part: ``"test"`` sorts after every other
    descriptor key, so its closing ``{}}`` is where the test's cached
    ``content_key`` goes.
    """
    text = _canonical(cell_descriptor(cell, {}))
    return _sha256(text[:-3] + cell.test.content_key + "}")


def _cell_label(cell: CellSpec) -> str:
    """The per-model (or per-oracle) label cache counters are keyed by.

    Axiomatic cells are keyed by their model's name; operational cells,
    which carry no model, by the oracle string (e.g. ``operational:gam``).
    """
    if cell.oracle != ORACLE_AXIOMATIC:
        return cell.oracle
    return cell.model.name


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
    """A point-in-time inventory of a cache database.

    ``entries`` counts committed rows; ``disk_bytes`` is the size of the
    database file plus its write-ahead log.
    """

    entries: int
    disk_bytes: int


# (pid, database path) -> (connection, (st_dev, st_ino) of its file), in
# least-recently-opened order.
_connections: dict = {}
_MAX_CONNECTIONS = 16


def _initialize(db) -> None:
    """Put a new connection's database in WAL mode and create the table.

    Switching a file to WAL needs an exclusive lock, and SQLite can report
    it busy without waiting out the busy timeout when other processes are
    opening the same fresh file.  So the switch is skipped once the file
    is in WAL mode, and a busy first open sleeps briefly and starts over.
    """
    import sqlite3

    for attempt in range(_INIT_ATTEMPTS):
        try:
            if db.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
                db.execute("PRAGMA journal_mode=WAL")
            db.execute(_SCHEMA)
            return
        except sqlite3.OperationalError as exc:
            # SQLITE_BUSY and SQLITE_LOCKED both read "... is locked".
            if "locked" not in str(exc) or attempt == _INIT_ATTEMPTS - 1:
                raise
            time.sleep(_INIT_RETRY_S)


def _connection(path: str):
    """This process's connection to the database at ``path``.

    Connections are kept per (process, path).  A forked child finds its
    parent's connections in the table but opens its own: a connection
    must not cross a fork, and the parent's entries are left untouched.
    A connection whose file has since been deleted or replaced (the
    directory was removed under a live process) is replaced by one on the
    file now at ``path``.  Past :data:`_MAX_CONNECTIONS` paths the least
    recently opened is dropped from the table; a connection closes once
    no open :class:`ResultCache` uses it.
    """
    import sqlite3

    slot = (os.getpid(), path)
    entry = _connections.pop(slot, None)
    if entry is not None:
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            stat = None
        if stat is not None and (stat.st_dev, stat.st_ino) == entry[1]:
            _connections[slot] = entry
            return entry[0]
    own = [other for other in _connections if other[0] == slot[0]]
    if len(own) >= _MAX_CONNECTIONS:
        del _connections[own[0]]
    db = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S, isolation_level=None)
    _initialize(db)
    db.execute("PRAGMA synchronous=NORMAL")
    stat = os.stat(path)
    _connections[slot] = (db, (stat.st_dev, stat.st_ino))
    return db


class ResultCache:
    """A directory holding one database of content-addressed cell results.

    Opening the cache creates the directory and the database as needed.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / DB_NAME
        self._db = _connection(os.path.abspath(self.path))
        self._pending: Optional[dict[str, str]] = None

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Write the block's stores in one transaction when it exits.

        Until then the stores wait in memory, where this cache's loads
        still find them, so the write lock is held only for the commit,
        never while cells are evaluated.  If the block raises, its stores
        are dropped.
        """
        pending = self._pending = {}
        try:
            yield
        finally:
            self._pending = None
        if pending:
            self.write_rows(pending.items())

    def write_rows(self, rows: Iterable[tuple[str, str]]) -> None:
        """Commit raw ``(key, payload)`` rows in one transaction.

        ``BEGIN IMMEDIATE`` takes the write lock up front, so concurrent
        writers queue under the busy timeout instead of failing at commit.
        """
        db = self._db
        db.execute("BEGIN IMMEDIATE")
        try:
            db.executemany(_UPSERT, rows)
            db.execute("COMMIT")
        except BaseException:
            if db.in_transaction:
                db.execute("ROLLBACK")
            raise

    def stats(self) -> CacheStats:
        """Count the committed entries and measure the files on disk."""
        (entries,) = self._db.execute("SELECT COUNT(*) FROM cells").fetchone()
        disk_bytes = 0
        for path in (self.path, self.path.with_name(DB_NAME + "-wal")):
            try:
                disk_bytes += path.stat().st_size
            except FileNotFoundError:
                pass
        return CacheStats(entries, disk_bytes)

    def load(self, cell: CellSpec, key: Optional[str] = None) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        ``key`` is the cell's :func:`cell_cache_key` when the caller has
        already computed it.  Unreadable or mismatched payloads (e.g. a
        row overwritten with garbage) count as misses rather than errors;
        telemetry additionally counts them as ``engine.cache.stale``.
        """
        if key is None:
            key = cell_cache_key(cell)
        text = self._pending.get(key) if self._pending else None
        if text is None:
            row = self._db.execute(_SELECT, (key,)).fetchone()
            if row is None:
                _count_lookup(cell, "miss")
                return None
            text = row[0]
        try:
            payload = json.loads(text)
        except ValueError:
            _obs_incr("engine.cache.stale")
            _count_lookup(cell, "miss")
            return None
        if not isinstance(payload, dict) or payload.get("kind") != _kind(cell):
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
        """Persist a cell result: now, or at the end of an open :meth:`batch`.

        Two writers racing on one key write identical payloads (the
        payload is a pure function of the key's inputs), so whichever
        commit lands last is as good as the other.  ``key`` is as for
        :meth:`load`.
        """
        _obs_incr("engine.cache.store")
        if key is None:
            key = cell_cache_key(cell)
        payload = json.dumps(_encode(cell, result), sort_keys=True)
        if self._pending is not None:
            self._pending[key] = payload
        else:
            self.write_rows([(key, payload)])
