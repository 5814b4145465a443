"""Persistent, resumable campaign state: one directory per hunt.

A campaign directory is the on-disk identity of a hunt.  Layout::

    <out>/
        campaign.json        the spec: suite, pairs, shard count, engine
                             version, model content digests
        cache/cells.sqlite   the engine's content-hashed ResultCache
                             (fine-grained resume: the engine commits
                             settled batches at most 64 at a time, so
                             an interrupted shard loses only the
                             batches not yet committed)
        shards/shard-NNNN.json   one verdict record per completed shard
                             (coarse-grained resume: completed shards
                             are never re-evaluated)
        witnesses/*.litmus   minimized diverging tests
        report.txt / report.json   the ranked hunt report
        quarantine.json      per-test failure records (tagged reason,
                             message, traceback, attempt count, shard)
                             for batches an ExecutionPolicy quarantined;
                             derived from the shard records on every run,
                             so it is crash-safe and resumable for free
        stats.json           this run's telemetry report (repro.obs
                             RunReport; overwritten per run, rendered
                             and diffed by ``repro stats``)

Every JSON file is written through a temp file and an atomic rename, so a
killed run can never leave a torn record: on restart a shard file either
exists complete or not at all, and the spec check refuses to mix state
from a different suite, pair set, shard count, engine version or model
zoo into an existing directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.axiomatic import MemoryModel
from ..engine import ENGINE_VERSION
from ..engine.cells import model_descriptor

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "CampaignDir",
    "ORACLE_AXIOMATIC",
    "ORACLE_OPERATIONAL",
    "expand_pair_specs",
    "member_names",
    "model_digest",
    "oracle_digest",
    "suite_digest",
]

CAMPAIGN_VERSION = 1
"""On-disk campaign layout version; bumped on incompatible changes."""

QUARANTINE_VERSION = 1
"""``quarantine.json`` payload version; bumped on incompatible changes."""

ORACLE_AXIOMATIC = "axiomatic"
"""Campaign oracle mode: model-vs-model verdict hunts (the default)."""

ORACLE_OPERATIONAL = "operational"
"""Campaign oracle mode: axiomatic-vs-abstract-machine outcome hunts."""


class CampaignError(RuntimeError):
    """A campaign directory cannot be (re)used as requested."""


def model_digest(model: MemoryModel) -> str:
    """Content digest of a model (clauses + axioms), for staleness
    detection: a model edited between runs — a registry factory *or* a
    ``.model`` file a spec resolves through — invalidates recorded
    verdicts."""
    descriptor = json.dumps(
        model_descriptor(model), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()


def oracle_digest(oracle: str) -> str:
    """Content digest of an ``operational:<machine>`` oracle.

    The machine side of an oracle pair has no clauses to digest; its
    identity is the machine's variant policy
    (:func:`repro.engine.cells.oracle_descriptor`), so a changed machine
    definition invalidates recorded comparisons exactly like an edited
    model does."""
    from ..engine.cells import oracle_descriptor  # cycle-free import

    descriptor = json.dumps(
        oracle_descriptor(oracle), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()


def expand_pair_specs(
    pairs: Sequence[tuple[str, str]],
    oracle: str = ORACLE_AXIOMATIC,
) -> tuple[tuple[tuple[str, str], ...], dict[str, MemoryModel]]:
    """Expand pair *specs* into concrete named pairs plus a model lookup.

    The first side of a pair is a model spec (see
    :func:`repro.models.spec.resolve_models`).  A registry name keeps its
    spelling as the member's name (an alias stays ``rmo``, preserving the
    historical campaign identity for plain pairs), while other specs
    resolve to members named by their models — family specs
    (``space:...``, ``.model`` directories) fan out into one concrete
    pair per member.  Under :data:`ORACLE_AXIOMATIC`
    the second side is a model spec too (cross-producting when both
    sides are families), and self-pairs (same display name on both
    sides) are skipped.  Under :data:`ORACLE_OPERATIONAL` the second side
    names one of the abstract machines (:func:`repro.engine.cells
    .operational_machines`), or an alias of one, and every member is
    paired with the machine's oracle label, so a concrete pair reads
    ``("gam", "operational:gam")`` and ``rmo`` reads
    ``("rmo", "operational:gam0")``.  Duplicates are dropped, in
    deterministic spec order.

    Returns:
        ``(concrete_pairs, models_by_name)`` where every model name in a
        concrete pair keys the built model of that same name in the
        lookup (``lookup[name].name == name``); machine sides carry no
        model.

    Raises:
        CampaignError: an unknown machine name, an empty expansion, or
            two different specs producing members with the same name but
            different content (the verdict table would silently conflate
            them).
    """
    from ..engine.cells import operational_machines  # cycle-free import
    from ..models.registry import canonical_name, model_names
    from ..models.spec import named_model, resolve_models

    lookup: dict[str, MemoryModel] = {}

    def expand_side(spec: str) -> list[str]:
        """The member names of one model spec, each claimed in ``lookup``."""
        if spec in model_names():
            members = [(spec, named_model(spec))]
        else:
            members = [(model.name, model) for model in resolve_models(spec)]
        for name, model in members:
            existing = lookup.setdefault(name, model)
            if existing is not model and model_descriptor(
                existing
            ) != model_descriptor(model):
                raise CampaignError(
                    f"model name {name!r} (from spec {spec!r}) collides "
                    "with a different model of the same name in this campaign"
                )
        return [name for name, _ in members]

    operational = oracle == ORACLE_OPERATIONAL
    machines = operational_machines()
    concrete: list[tuple[str, str]] = []
    for a_spec, b_spec in pairs:
        machine = canonical_name(b_spec)
        if operational and machine not in machines:
            raise CampaignError(
                f"unknown operational machine {b_spec!r}; "
                f"supported: {', '.join(machines)}"
            )
        for name_a in expand_side(a_spec):
            if operational:
                names_b = [f"operational:{machine}"]
            else:
                names_b = expand_side(b_spec)
            for name_b in names_b:
                pair = (name_a, name_b)
                if name_a != name_b and pair not in concrete:
                    concrete.append(pair)
    if not concrete:
        kind = "oracle" if operational else "two-sided"
        raise CampaignError(
            f"pair specs {[':'.join(p) for p in pairs]} expand to no "
            f"{kind} pairs"
        )
    return tuple(concrete), lookup


def member_names(
    concrete_pairs: Sequence[tuple[str, str]],
) -> tuple[str, ...]:
    """Every model a concrete pair list mentions, first-seen order."""
    names: list[str] = []
    for a, b in concrete_pairs:
        for name in (a, b):
            if name not in names:
                names.append(name)
    return tuple(names)


def suite_digest(tests) -> str:
    """Content digest of a resolved suite (ordered test content keys).

    A ``gen:`` spec's meaning is a function of the generator's code, and
    a ``.litmus`` path's meaning is a function of the files on disk —
    both can drift between runs of a long campaign.  Digesting the
    resolved tests lets :meth:`CampaignDir.check_spec` refuse a resume
    whose shard records describe tests the spec no longer produces.
    """
    payload = "[" + ",".join(test.content_key for test in tests) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """The immutable identity of one hunt campaign.

    Attributes:
        suite: the ``--suite`` spec the shards are generated from.
        pairs: the differentiated pair *specs*, in CLI order.  Under the
            default (axiomatic) oracle each side is a model spec —
            anything :func:`repro.models.spec.resolve_models` accepts, so
            one stored pair may expand to a whole family.  Under the
            operational oracle the first side is a model spec and the
            second names an abstract machine.
        num_shards: how many deterministic chunks the suite is split into.
        suite_digest: content digest of the *resolved* suite (see
            :func:`suite_digest`); ``""`` means unchecked.
        engine_version / campaign_version: staleness guards.  Execution
            policy (deadlines/retries/``on_error``) is deliberately *not*
            part of the identity, like ``jobs``: it changes how failures
            are handled, never what a recorded verdict means, so a
            campaign may be resumed under a different policy.
        oracle: :data:`ORACLE_AXIOMATIC` (model-vs-model verdict hunts)
            or :data:`ORACLE_OPERATIONAL` (axiomatic-vs-machine outcome
            hunts).
        model_digests: content digest per expanded member model.
    """

    suite: str
    pairs: tuple[tuple[str, str], ...]
    num_shards: int
    suite_digest: str = ""
    engine_version: int = ENGINE_VERSION
    campaign_version: int = CAMPAIGN_VERSION
    oracle: str = ORACLE_AXIOMATIC

    def expansion(
        self,
    ) -> tuple[tuple[tuple[str, str], ...], dict[str, MemoryModel]]:
        """The concrete (named) pairs and model lookup the specs expand to.

        Re-computed on demand — deliberately, not cached: a ``.model``
        file edited between runs must change the expansion's digests so
        :meth:`CampaignDir.check_spec` refuses a stale resume.
        """
        return expand_pair_specs(self.pairs, self.oracle)

    @property
    def model_names(self) -> tuple[str, ...]:
        """Every expanded member model, deduplicated in first-seen order.

        Machine sides of operational pairs are not models and are
        excluded.
        """
        concrete, lookup = self.expansion()
        return tuple(
            name for name in member_names(concrete) if name in lookup
        )

    def to_json(self) -> dict:
        """The ``campaign.json`` payload (includes model digests).

        Axiomatic campaigns keep the historical payload shape; the
        operational oracle adds ``oracle`` plus per-machine digests.
        """
        concrete, lookup = self.expansion()
        payload = {
            "campaign_version": self.campaign_version,
            "engine_version": self.engine_version,
            "suite": self.suite,
            "suite_digest": self.suite_digest,
            "pairs": [list(pair) for pair in self.pairs],
            "num_shards": self.num_shards,
            "model_digests": {
                name: model_digest(lookup[name])
                for name in member_names(concrete)
                if name in lookup
            },
        }
        if self.oracle != ORACLE_AXIOMATIC:
            payload["oracle"] = self.oracle
            payload["machine_digests"] = {
                label: oracle_digest(label)
                for label in sorted(
                    {b for _, b in concrete if b not in lookup}
                )
            }
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignSpec":
        """Rebuild a spec from a ``campaign.json`` payload."""
        return cls(
            suite=payload["suite"],
            pairs=tuple((a, b) for a, b in payload["pairs"]),
            num_shards=int(payload["num_shards"]),
            suite_digest=payload.get("suite_digest", ""),
            engine_version=int(payload["engine_version"]),
            campaign_version=int(payload["campaign_version"]),
            oracle=payload.get("oracle", ORACLE_AXIOMATIC),
        )


def _write_text_atomic(path: pathlib.Path, text: str) -> None:
    """Write text through a temp file + rename (never a torn record)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_json_atomic(path: pathlib.Path, payload: dict) -> None:
    """Write JSON through a temp file + rename (never a torn record)."""
    _write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2))


class CampaignDir:
    """Filesystem accessor for one campaign directory.

    Construction is side-effect free — nothing is created on disk until
    :meth:`ensure_layout` or one of the writers runs, so probing a
    directory (e.g. a typo'd ``--resume`` target) leaves no litter.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = pathlib.Path(root)

    def ensure_layout(self) -> None:
        """Create the campaign directory tree (idempotent)."""
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "shards").mkdir(exist_ok=True)
        (self.root / "witnesses").mkdir(exist_ok=True)

    @property
    def spec_path(self) -> pathlib.Path:
        """Path of ``campaign.json``."""
        return self.root / "campaign.json"

    @property
    def cache_dir(self) -> str:
        """The engine result-cache directory (created on first use)."""
        return str(self.root / "cache")

    @property
    def witness_dir(self) -> pathlib.Path:
        """Directory the minimized ``.litmus`` witnesses are written to."""
        return self.root / "witnesses"

    def shard_path(self, index: int) -> pathlib.Path:
        """Path of shard ``index``'s verdict record."""
        return self.root / "shards" / f"shard-{index:04d}.json"

    def load_spec(self) -> Optional[CampaignSpec]:
        """The stored spec, or ``None`` for a fresh directory.

        Raises :class:`CampaignError` when ``campaign.json`` exists but is
        unreadable (a directory that is *something else* should never be
        silently overwritten).
        """
        try:
            payload = json.loads(self.spec_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"unreadable campaign state {self.spec_path}: {exc}"
            ) from exc
        return CampaignSpec.from_json(payload)

    def check_spec(self, spec: CampaignSpec) -> None:
        """Refuse to mix ``spec`` into a directory holding different state.

        Compares the full stored payload — including model digests — so a
        campaign never resumes across a changed suite, pair set, oracle,
        shard count, engine version or model semantics.
        """
        stored = self.load_spec()
        if stored is None:
            return
        stored_payload = json.loads(self.spec_path.read_text())
        if stored_payload != spec.to_json():
            raise CampaignError(
                f"campaign at {self.root} was started with a different spec "
                f"(stored: suite={stored.suite!r} "
                f"pairs={[':'.join(p) for p in stored.pairs]} "
                f"shards={stored.num_shards} oracle={stored.oracle}) — the "
                "suite, pairs, oracle, shard count, engine version, or "
                "model/suite content changed; use a fresh --out directory"
            )

    def write_spec(self, spec: CampaignSpec) -> None:
        """Persist the spec (atomic; must happen before any shard work)."""
        self.check_spec(spec)
        self.ensure_layout()
        _write_json_atomic(self.spec_path, spec.to_json())

    def load_shard(self, index: int) -> Optional[dict]:
        """Shard ``index``'s record, or ``None`` if not completed yet."""
        try:
            payload = json.loads(self.shard_path(index).read_text())
        except (OSError, ValueError):
            return None
        if not payload.get("complete"):
            return None
        return payload

    def write_shard(self, index: int, record: dict) -> None:
        """Persist one completed shard record (atomic)."""
        _write_json_atomic(self.shard_path(index), record)

    def completed_shards(self, num_shards: int) -> list[int]:
        """Indices of shards whose records are already on disk."""
        return [i for i in range(num_shards) if self.load_shard(i) is not None]

    def write_report(self, text: str, data: dict) -> None:
        """Persist the final hunt report (text + machine-readable JSON)."""
        _write_json_atomic(self.root / "report.json", data)
        _write_text_atomic(self.root / "report.txt", text)

    @property
    def quarantine_path(self) -> pathlib.Path:
        """Path of ``quarantine.json``."""
        return self.root / "quarantine.json"

    def write_quarantine(self, records: dict) -> None:
        """Persist the quarantine records (atomic).

        ``records`` maps test name → ``{reason, message, traceback,
        attempts, shard}``.  The file is *derived* state — rebuilt from
        the shard records on every run — so interrupted runs can never
        leave it inconsistent with the shards, and resume gets it right
        for free.  An empty record set removes the file rather than
        leaving a stale one behind.
        """
        if not records:
            try:
                self.quarantine_path.unlink()
            except OSError:
                pass
            return
        _write_json_atomic(
            self.quarantine_path,
            {"quarantine_version": QUARANTINE_VERSION, "records": records},
        )

    def load_quarantine(self) -> dict:
        """The stored quarantine records (empty when none were written).

        Raises :class:`CampaignError` on an unreadable or wrong-version
        payload — a malformed quarantine file means the directory was
        tampered with, not that nothing was quarantined.
        """
        try:
            text = self.quarantine_path.read_text()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise CampaignError(
                f"unreadable quarantine state {self.quarantine_path}: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise CampaignError(
                f"unreadable quarantine state {self.quarantine_path}: {exc}"
            ) from exc
        if payload.get("quarantine_version") != QUARANTINE_VERSION:
            raise CampaignError(
                f"unsupported quarantine_version in {self.quarantine_path}"
            )
        return dict(payload.get("records", {}))

    @property
    def stats_path(self) -> pathlib.Path:
        """Path of the run's telemetry report (``stats.json``)."""
        return self.root / "stats.json"

    def write_stats(self, payload: dict) -> None:
        """Persist the run's telemetry report (atomic).

        ``payload`` is a :meth:`repro.obs.RunReport.to_json` document;
        unlike shard records it describes *this run* (a resumed run
        overwrites it), so ``repro stats`` can diff a cold run against a
        warm resume.
        """
        _write_json_atomic(self.stats_path, payload)
