"""The run ledger: an append-only on-disk store of run records.

Every observability primitive before this module saw exactly one run
(or one A/B pair against a single committed baseline): ``--metrics-out``
writes one snapshot family, ``repro.obs diff`` compares two files, the
perf gate diffs against one checked-in baseline. The ledger turns that
into a *longitudinal* record: each completed run appends one
:class:`RunRecord` -- its metrics-snapshot family, the runner config
that produced it, the git revision, an optional capsule roll-up and
manifest fingerprint -- to a store directory, and downstream tools
(``python -m repro.obs store/trend``, ``diff store:<id>``) read the
history back.

Layout (``.repro-store/`` by default, ``REPRO_STORE`` overrides)::

    .repro-store/
      index.jsonl          # one line per add, in append order
      records/<id>.json    # deterministic record documents

Records are content-addressed: the id is the SHA-256 (truncated) of the
record's canonical JSON bytes, so the same run always produces the same
id and a differing seed/config/revision produces a different one.
Record files carry *no* volatile fields -- wall-clock metadata lives
only on the index line -- so record bytes are reproducible and the
store's serializers sit inside the ``snapshot-determinism`` lint cone
(:data:`~repro.lint.rules.snapshot_determinism.SERIALIZER_NAMES`
includes :meth:`RunRecord.to_record` / :meth:`StoreEntry.to_index_entry`
by name). ``add`` is idempotent per content: re-adding an identical run
appends a new index line but never rewrites the record file.

The ledger is append-only by convention; the single destructive verb is
:meth:`RunStore.gc`, which keeps the last N records per label and drops
everything older (CI caches use it to bound growth).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only; the runtime import
    # lives inside the methods that need it (repro.metrics imports
    # repro.obs.histogram at init, so a module-level import would cycle,
    # same as repro.obs.diff).
    from ..metrics.registry import MetricsSnapshot

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_STORE"

#: Default store directory, relative to the working directory.
DEFAULT_STORE_DIR = ".repro-store"

#: Schema stamped into record documents (bump on incompatible change).
RECORD_SCHEMA_VERSION = 1
RECORD_KIND = "repro.obs.store.record"

#: ``repro.obs diff`` operand prefix selecting a ledger entry.
STORE_OPERAND_PREFIX = "store:"

#: Hex digits kept from the SHA-256 digest for record ids.
ID_HEX_DIGITS = 16


def default_store_root() -> Path:
    """The store directory: ``$REPRO_STORE`` or ``.repro-store``."""
    return Path(os.environ.get(STORE_ENV) or DEFAULT_STORE_DIR)


def canonical_bytes(document: Dict[str, object]) -> bytes:
    """The canonical serialized form a record id is hashed over."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def record_id(document: Dict[str, object]) -> str:
    """Content hash of a record document (truncated SHA-256 hex)."""
    return hashlib.sha256(canonical_bytes(document)).hexdigest()[
        :ID_HEX_DIGITS
    ]


def manifest_sha(path: Union[str, Path]) -> str:
    """Truncated SHA-256 of a run manifest's masked fingerprint.

    :func:`~repro.obs.remote.manifest_fingerprint` returns the whole
    masked document (handy for equality asserts); records store this
    digest of it instead.
    """
    from .remote import manifest_fingerprint

    return hashlib.sha256(
        manifest_fingerprint(path).encode("utf-8")
    ).hexdigest()[:ID_HEX_DIGITS]


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git revision, or None outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd) if cwd is not None else None,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


# ---------------------------------------------------------------------- #
# Records
# ---------------------------------------------------------------------- #

@dataclass
class RunRecord:
    """One ledger entry: a run's snapshot family plus provenance.

    ``snapshots`` maps member label -> snapshot document (the
    :meth:`~repro.metrics.registry.MetricsSnapshot.to_dict` shape).
    ``config`` records what produced the run (experiments, seeds, a
    free-form source tag) -- never scheduling parameters like ``jobs``,
    which change how cells executed but not what they computed, so the
    record id is identical at any job count. ``capsule`` is the
    distributed-capture roll-up (cell/event/byte totals), present only
    on traced runs.
    """

    label: str
    snapshots: Dict[str, dict]
    config: Dict[str, object] = field(default_factory=dict)
    git_rev: Optional[str] = None
    manifest_sha: Optional[str] = None
    capsule: Optional[Dict[str, object]] = None
    notes: str = ""

    def to_record(self) -> Dict[str, object]:
        """The deterministic record document (no volatile fields)."""
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "kind": RECORD_KIND,
            "label": self.label,
            "config": {key: self.config[key] for key in sorted(self.config)},
            "git_rev": self.git_rev,
            "manifest_sha": self.manifest_sha,
            "capsule": self.capsule,
            "notes": self.notes,
            "snapshots": {
                member: self.snapshots[member]
                for member in sorted(self.snapshots)
            },
        }

    @property
    def id(self) -> str:
        return record_id(self.to_record())

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        if payload.get("kind") != RECORD_KIND:
            raise ReproError(
                f"not a run record (kind={payload.get('kind')!r})"
            )
        version = payload.get("schema_version")
        if version != RECORD_SCHEMA_VERSION:
            raise ReproError(
                f"run record schema {version!r} != {RECORD_SCHEMA_VERSION}"
            )
        return cls(
            label=str(payload.get("label", "")),
            snapshots=dict(payload.get("snapshots") or {}),
            config=dict(payload.get("config") or {}),
            git_rev=payload.get("git_rev"),
            manifest_sha=payload.get("manifest_sha"),
            capsule=payload.get("capsule"),
            notes=str(payload.get("notes", "")),
        )

    @classmethod
    def from_snapshots(
        cls,
        label: str,
        snapshots: Dict[str, "MetricsSnapshot"],
        config: Optional[Dict[str, object]] = None,
        git_rev: Optional[str] = None,
        manifest_sha: Optional[str] = None,
        capsule: Optional[Dict[str, object]] = None,
        notes: str = "",
    ) -> "RunRecord":
        """Build a record from live :class:`MetricsSnapshot` objects."""
        return cls(
            label=label,
            snapshots={
                member: snapshots[member].to_dict()
                for member in sorted(snapshots)
            },
            config=dict(config or {}),
            git_rev=git_rev,
            manifest_sha=manifest_sha,
            capsule=capsule,
            notes=notes,
        )

    def member_snapshot(self, member: str = "") -> "MetricsSnapshot":
        """One member's :class:`MetricsSnapshot`, ``load_snapshot`` style.

        An empty ``member`` resolves to the record's only snapshot;
        multi-member records need an explicit pick.
        """
        from ..metrics.registry import MetricsSnapshot

        if member:
            if member not in self.snapshots:
                raise ReproError(
                    f"record {self.id}: no snapshot labelled {member!r} "
                    f"(have: {', '.join(sorted(self.snapshots))})"
                )
            return MetricsSnapshot.from_dict(self.snapshots[member])
        if len(self.snapshots) == 1:
            (doc,) = self.snapshots.values()
            return MetricsSnapshot.from_dict(doc)
        raise ReproError(
            f"record {self.id} holds {len(self.snapshots)} snapshots; pick "
            f"one with 'store:{self.id}#<label>' "
            f"(have: {', '.join(sorted(self.snapshots))})"
        )


@dataclass(frozen=True)
class StoreEntry:
    """One index line: record provenance in append order."""

    seq: int
    id: str
    label: str
    git_rev: Optional[str] = None
    created: Optional[float] = None
    snapshots: Tuple[str, ...] = ()
    metrics: int = 0

    def to_index_entry(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "id": self.id,
            "label": self.label,
            "git_rev": self.git_rev,
            "created": self.created,
            "snapshots": sorted(self.snapshots),
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StoreEntry":
        return cls(
            seq=int(payload.get("seq", 0)),
            id=str(payload.get("id", "")),
            label=str(payload.get("label", "")),
            git_rev=payload.get("git_rev"),
            created=payload.get("created"),
            snapshots=tuple(payload.get("snapshots") or ()),
            metrics=int(payload.get("metrics") or 0),
        )


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #

class RunStore:
    """The on-disk ledger: an index plus content-addressed records."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root else default_store_root()

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    def record_path(self, rid: str) -> Path:
        return self.records_dir / f"{rid}.json"

    def check_writable(self) -> Optional[str]:
        """An error message when the store cannot be written, else None.

        Used by the runner's fail-fast check: a full figure6 run must
        never be thrown away because the store directory turned out to
        be unwritable afterwards.
        """
        try:
            self.records_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return f"store directory {self.root} is not writable: {exc}"
        if not os.access(str(self.root), os.W_OK) or not os.access(
            str(self.records_dir), os.W_OK
        ):
            return f"store directory {self.root} is not writable"
        return None

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #

    def add(
        self, record: RunRecord, created: Optional[float] = None
    ) -> StoreEntry:
        """Append ``record``, returning its index entry (with the id).

        The record file is written once per content hash; the index line
        is always appended, so repeated identical runs still show up in
        the history (same id, new line).
        """
        error = self.check_writable()
        if error is not None:
            raise ReproError(error)
        document = record.to_record()
        rid = record_id(document)
        path = self.record_path(rid)
        if not path.exists():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
        metric_count = 0
        for member in sorted(record.snapshots):
            metric_count += len(record.snapshots[member].get("metrics") or {})
        if created is None:
            # Wall time is index-line provenance for humans (`store
            # list`), never part of the hashed record content.
            created = time.time()  # simlint: disable=wall-clock
        entry = StoreEntry(
            seq=len(self.entries()),
            id=rid,
            label=record.label,
            git_rev=record.git_rev,
            created=created,
            snapshots=tuple(sorted(record.snapshots)),
            metrics=metric_count,
        )
        with open(self.index_path, "a", encoding="utf-8") as handle:
            json.dump(entry.to_index_entry(), handle, sort_keys=True)
            handle.write("\n")
        return entry

    # ------------------------------------------------------------------ #
    # Read back
    # ------------------------------------------------------------------ #

    def entries(self, label: Optional[str] = None) -> List[StoreEntry]:
        """Index entries in append order, optionally filtered by label."""
        if not self.index_path.exists():
            return []
        entries: List[StoreEntry] = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as exc:
                    raise ReproError(
                        f"{self.index_path}: malformed index line "
                        f"{lineno}: {exc}"
                    ) from exc
                entry = StoreEntry.from_dict(payload)
                if label is None or entry.label == label:
                    entries.append(entry)
        return entries

    def last(self, n: int, label: Optional[str] = None) -> List[StoreEntry]:
        """The newest ``n`` index entries (append order preserved)."""
        entries = self.entries(label)
        return entries[-n:] if n > 0 else entries

    def resolve(self, token: str) -> str:
        """Resolve a full id or unique id prefix to the full record id."""
        if not token:
            raise ReproError("empty record id")
        if self.record_path(token).exists():
            return token
        if not self.records_dir.is_dir():
            raise ReproError(
                f"store {self.root} has no records (no such directory: "
                f"{self.records_dir})"
            )
        matches = sorted(
            path.stem
            for path in self.records_dir.glob(f"{token}*.json")
        )
        if not matches:
            raise ReproError(
                f"store {self.root}: no record matching {token!r}"
            )
        if len(matches) > 1:
            raise ReproError(
                f"store {self.root}: ambiguous record id {token!r} "
                f"(matches: {', '.join(matches)})"
            )
        return matches[0]

    def load(self, token: str) -> RunRecord:
        """Load one record by id (or unique id prefix)."""
        rid = self.resolve(token)
        with open(self.record_path(rid), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        record = RunRecord.from_dict(payload)
        actual = record.id
        if actual != rid:
            raise ReproError(
                f"store {self.root}: record file {rid}.json hashes to "
                f"{actual} -- the ledger was modified in place"
            )
        return record

    def snapshot(self, token: str, member: str = "") -> "MetricsSnapshot":
        """One member snapshot of a stored record (diff operand)."""
        return self.load(token).member_snapshot(member)

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #

    def gc(self, keep: int, label: Optional[str] = None) -> List[str]:
        """Keep the newest ``keep`` records per label; drop the rest.

        With ``label`` given only that label's history is pruned. The
        index is rewritten with the surviving lines (original ``seq``
        values preserved) and record files no longer referenced by any
        surviving line are deleted. Returns the removed record ids, in
        the order their last index line was dropped.
        """
        if keep < 0:
            raise ReproError("gc keep count must be >= 0")
        entries = self.entries()
        drop_per_label: Dict[str, int] = {}
        for entry in entries:
            if label is not None and entry.label != label:
                continue
            drop_per_label[entry.label] = (
                drop_per_label.get(entry.label, 0) + 1
            )
        for name in sorted(drop_per_label):
            drop_per_label[name] = max(0, drop_per_label[name] - keep)
        survivors: List[StoreEntry] = []
        dropped: List[StoreEntry] = []
        for entry in entries:
            remaining = drop_per_label.get(entry.label, 0)
            if remaining > 0:
                drop_per_label[entry.label] = remaining - 1
                dropped.append(entry)
            else:
                survivors.append(entry)
        if not dropped:
            return []
        with open(self.index_path, "w", encoding="utf-8") as handle:
            for entry in survivors:
                json.dump(entry.to_index_entry(), handle, sort_keys=True)
                handle.write("\n")
        referenced = {entry.id for entry in survivors}
        removed: List[str] = []
        for entry in dropped:
            if entry.id in referenced or entry.id in removed:
                continue
            removed.append(entry.id)
            path = self.record_path(entry.id)
            if path.exists():
                path.unlink()
        return removed


def snapshot_documents(path: Union[str, Path]) -> Dict[str, dict]:
    """Every member document of a snapshot file, keyed by member label.

    Accepts both shapes ``--metrics-out`` writes: a single snapshot
    (keyed by its own ``label``) or a labelled family. This is the
    record-building counterpart of
    :func:`~repro.metrics.registry.load_snapshot`, which picks one.
    """
    from ..metrics.registry import SNAPSHOT_FAMILY_KIND, SNAPSHOT_KIND

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == SNAPSHOT_KIND:
        return {str(payload.get("label", "")): payload}
    if kind == SNAPSHOT_FAMILY_KIND:
        members = dict(payload.get("snapshots") or {})
        return {str(member): members[member] for member in sorted(members)}
    raise ReproError(
        f"{path}: not a metrics snapshot file (kind={kind!r})"
    )


# ---------------------------------------------------------------------- #
# Diff operands
# ---------------------------------------------------------------------- #

def parse_store_operand(spec: str) -> Tuple[str, str]:
    """Split ``store:<id>[#member]`` into ``(id token, member)``."""
    body = spec[len(STORE_OPERAND_PREFIX):]
    token, _, member = body.partition("#")
    if not token:
        raise ReproError(
            f"malformed store operand {spec!r}; expected "
            "store:<record-id>[#member]"
        )
    return token, member


def load_operand(
    spec: Union[str, Path],
    store_root: Optional[Union[str, Path]] = None,
) -> "MetricsSnapshot":
    """Load a diff operand: a snapshot path or a ``store:<id>`` entry.

    File operands keep the ``path#label`` behaviour of
    :func:`~repro.metrics.registry.load_snapshot`; ``store:`` operands
    resolve against ``store_root`` (default: ``$REPRO_STORE`` /
    ``.repro-store``) and accept the same ``#member`` suffix for
    multi-snapshot records.
    """
    from ..metrics.registry import load_snapshot

    spec = str(spec)
    if not spec.startswith(STORE_OPERAND_PREFIX):
        return load_snapshot(spec)
    token, member = parse_store_operand(spec)
    return RunStore(store_root).snapshot(token, member)
