"""On-disk result cache: content-hashed cells in one SQLite database.

Each cell's canonical descriptor (see :func:`repro.engine.cells
.cell_descriptor`) is hashed with SHA-256.  Its test part is the test's
``content_key`` (:class:`~repro.litmus.test.LitmusTest`), serialized
once per test object and pickled along with it; everything before it
depends only on the cell's kind, projection, oracle, model content and
the engine version, so a :class:`CellKeyer` hashes that part once per
distinct combination and finishes each key from a copy of the hash.
The verdict / outcome-set payload is stored as JSON text under that key,
in the table ``cells(key, payload)`` of ``cells.sqlite`` in the cache
directory.  Because the key covers the test content, the model's
clauses and the engine version, a cache entry can never serve a stale
result: any change to the inputs changes the key, and semantic engine
changes bump :data:`~repro.engine.cells.ENGINE_VERSION`.

Outcome sets round-trip losslessly (register names are strings, processor
ids / addresses / values are ints), so cached results are byte-identical
to freshly computed ones once rendered.  The batch engine reads and
writes in bulk: :meth:`ResultCache.lookup` answers up to
:data:`_LOOKUP_CHUNK` keys per ``SELECT``, and :meth:`ResultCache.write_rows`
commits any number of rows in one transaction.  :meth:`ResultCache.load`
and :meth:`ResultCache.store` are the one-cell forms.

The cache directory is safe to *share*: any number of processes — several
independent runs, each of whose parent owns its cache traffic — may read
and write one database concurrently.  The database runs in WAL mode, so
readers never block the writer or each other, and writers queue for the
write lock under a busy timeout.  Duplicate stores of one key are
idempotent by construction (the key hashes the inputs and the payload is
a pure function of them).  A transaction is atomic: a writer killed
inside one is rolled back by the next process to open the file, so
readers see a commit whole or not at all and nothing is ever left
orphaned.  Each process keeps one connection per database, and a forked
child opens its own rather than using its parent's.  ``sqlite3`` is
imported when the first cache is opened, so runs without a cache never
load it.

Entries are self-validating and version-keyed, so a warmed cache ships
between machines as its directory: copy it (``cells.sqlite`` together
with its ``-wal`` file) while no writer is running.  A directory left by
the older one-JSON-file-per-cell layout has no database, so it simply
starts cold; its files are never read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import time
from typing import Iterable, Optional, Sequence

from ..core.axiomatic import MemoryModel
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
    model_descriptor,
)

__all__ = [
    "DB_NAME",
    "CacheStats",
    "CellKeyer",
    "ResultCache",
    "cell_cache_key",
    "count_lookup",
    "decode_payload",
    "encode_payload",
]

DB_NAME = "cells.sqlite"
"""The database file inside a cache directory."""

_LOOKUP_CHUNK = 500
"""Keys per ``SELECT … WHERE key IN (…)`` in :meth:`ResultCache.lookup`,
well under SQLite's bound on host parameters."""

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


class CellKeyer:
    """Computes :func:`cell_cache_key` for many cells, sharing work.

    The text before a key's test part depends only on the cell's kind,
    projection, oracle and model content (and the engine version, fixed
    for a keyer's short life), so it is hashed once per distinct
    combination and each key finishes a copy of that hash.  A model's
    descriptor JSON is computed once per model: a :class:`MemoryModel`
    is a frozen dataclass, so equal models share an entry, and the table
    holds every model it has seen.  The engine makes one keyer per call,
    so its tables stay as small as the set of models in use.
    """

    def __init__(self) -> None:
        self._models: dict[MemoryModel, str] = {}
        # (cell type, projection, oracle, model descriptor JSON) -> a
        # SHA-256 state fed the descriptor text up to the test part.
        self._prefixes: dict[tuple, "hashlib._Hash"] = {}

    def key(self, cell: CellSpec) -> str:
        """The cell's :func:`cell_cache_key`."""
        model = cell.model
        content = None
        if model is not None:
            content = self._models.get(model)
            if content is None:
                content = self._models[model] = _canonical(model_descriptor(model))
        part = (type(cell), getattr(cell, "project", None), cell.oracle, content)
        prefix = self._prefixes.get(part)
        if prefix is None:
            text = _canonical(cell_descriptor(cell, {}))
            prefix = self._prefixes[part] = hashlib.sha256(text[:-3].encode("utf-8"))
        hasher = prefix.copy()
        hasher.update(cell.test.content_key.encode("utf-8"))
        hasher.update(b"}")
        return hasher.hexdigest()


def cell_cache_key(cell: CellSpec) -> str:
    """The SHA-256 content hash identifying a cell's cache entry.

    The hashed text is the canonical JSON of :func:`cell_descriptor`,
    built with an empty test part: ``"test"`` sorts after every other
    descriptor key, so its closing ``{}}`` is where the test's cached
    ``content_key`` goes.  Keying many cells, use one
    :class:`CellKeyer`, which hashes the rest once per model.
    """
    return CellKeyer().key(cell)


def _cell_label(cell: CellSpec) -> str:
    """The per-model (or per-oracle) label cache counters are keyed by.

    Axiomatic cells are keyed by their model's name; operational cells,
    which carry no model, by the oracle string (e.g. ``operational:gam``).
    """
    if cell.oracle != ORACLE_AXIOMATIC:
        return cell.oracle
    return cell.model.name


def count_lookup(cell: CellSpec, outcome: str) -> None:
    """Record a cache lookup outcome (``hit``/``miss``/``stale``) plus its
    label.

    A stale entry (a row that does not decode) counts as
    ``engine.cache.stale`` and as a miss.  The label string is only
    built when a recorder is active, so the disabled path costs one
    attribute check.
    """
    recorder = _obs_current()
    if not recorder.active:
        return
    if outcome == "stale":
        recorder.incr("engine.cache.stale")
        outcome = "miss"
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


def encode_payload(cell: CellSpec, result: CellResult) -> str:
    """The JSON text stored for a cell's result."""
    return json.dumps(_encode(cell, result), sort_keys=True)


def decode_payload(cell: CellSpec, text: str) -> Optional[CellResult]:
    """The result a stored payload holds, or ``None`` if it is stale.

    Unreadable or mismatched payloads (e.g. a row overwritten with
    garbage, or one of another cell kind) are stale rather than errors.
    """
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != _kind(cell):
        return None
    try:
        return _decode(cell, payload)
    except (KeyError, TypeError, ValueError):
        return None


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

    def lookup(self, keys: Sequence[str]) -> dict[str, str]:
        """The committed payload text of each of ``keys`` that has a row.

        One ``SELECT … WHERE key IN (…)`` per :data:`_LOOKUP_CHUNK` keys;
        keys without a row are absent from the result.
        """
        found: dict[str, str] = {}
        for start in range(0, len(keys), _LOOKUP_CHUNK):
            chunk = keys[start:start + _LOOKUP_CHUNK]
            marks = ",".join("?" * len(chunk))
            found.update(
                self._db.execute(
                    f"SELECT key, payload FROM cells WHERE key IN ({marks})", chunk
                )
            )
        return found

    def load(self, cell: CellSpec, key: Optional[str] = None) -> Optional[CellResult]:
        """The cached result for ``cell``, or ``None`` on a miss.

        ``key`` is the cell's :func:`cell_cache_key` when the caller has
        already computed it.  A stale payload (see :func:`decode_payload`)
        counts as a miss rather than an error; telemetry additionally
        counts it as ``engine.cache.stale``.
        """
        if key is None:
            key = cell_cache_key(cell)
        row = self._db.execute(_SELECT, (key,)).fetchone()
        if row is None:
            count_lookup(cell, "miss")
            return None
        result = decode_payload(cell, row[0])
        count_lookup(cell, "hit" if result is not None else "stale")
        return result

    def store(
        self, cell: CellSpec, result: CellResult, key: Optional[str] = None
    ) -> None:
        """Persist one cell result in its own transaction.

        Two writers racing on one key write identical payloads (the
        payload is a pure function of the key's inputs), so whichever
        commit lands last is as good as the other.  ``key`` is as for
        :meth:`load`.
        """
        _obs_incr("engine.cache.store")
        if key is None:
            key = cell_cache_key(cell)
        self.write_rows([(key, encode_payload(cell, result))])
