"""Durable state for the serving layer: snapshots + a write-ahead change log.

Two complementary artefacts live in a service's data directory:

``snapshot-<version>/``
    A point-in-time copy of the :class:`~repro.model.graph.SocialGraph`,
    written with :func:`repro.model.loader.save_graph` (the same CSV
    dialect as benchmark inputs) plus a ``meta.json`` carrying the service
    version.  Snapshots are committed atomically: the graph is written to a
    ``.tmp`` directory and renamed into place, so a crash mid-snapshot
    leaves at most an ignorable ``.tmp`` turd, never a half-readable
    snapshot.

``wal.csv``
    An append-only change log.  Each applied micro-batch is framed as::

        BEGIN,<version>,<n_changes>,<epoch>
        <one change row per change, repro.model.loader codec>
        COMMIT,<version>

    The ``COMMIT`` line is the durability point: replay ignores a torn
    trailing batch (crash mid-append), and the frame tags cannot collide
    with change rows because change tags are single characters
    (``U/P/C/L/F/-L/-F``).  The ``epoch`` field is the replication
    layer's leadership fencing token (see :mod:`repro.replication`);
    pre-replication logs framed batches without it, and replay treats a
    missing field as epoch 0.

``fence.json``
    Written by replica promotion (:func:`write_fence`): the minimum epoch
    this directory accepts appends under.  A deposed leader -- fenced by
    its successor but still believing it leads -- raises
    :class:`FencedError` on its next append instead of splitting the
    history (checked *before* any frame bytes are written).

Recovery = load the newest snapshot, then replay every committed batch
with ``version > snapshot.version``.  Because a batch's effect on the
graph is deterministic (``SocialGraph.apply`` is a pure function of graph
state and change list), snapshot + log tail provably converges to the
same graph -- and therefore the same top-k -- as applying the full stream
to the initial graph.  ``tests/serving/test_recovery_property.py`` checks
exactly that, removals included.

Crash safety: a frame is fsynced before :meth:`ChangeLog.append` returns
(and the WAL's directory entry is fsynced when the file is first
created); a snapshot's files and directories are fsynced *before* the
atomic rename publishes them.  Without the pre-rename fsync a power loss
could leave a renamed-but-empty snapshot -- acknowledged, yet torn --
which is exactly what a tailing replica must never see.  The killable
moments are marked as :mod:`repro.faults` crash points (``wal-append``,
``snapshot-write``), which is how the regression tests die there.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Iterator, Optional

from repro.faults import fire as _fire_fault
from repro.faults import register_crash_point
from repro.model.changes import ChangeSet
from repro.model.graph import SocialGraph
from repro.model.loader import change_to_row, load_graph, row_to_change, save_graph
from repro.storage import resolve_storage
from repro.util.validation import ReproError

__all__ = [
    "ChangeLog",
    "FencedError",
    "SnapshotStore",
    "dir_bytes",
    "read_fence",
    "write_fence",
]

CRASH_WAL_APPEND = register_crash_point(
    "wal-append", "ChangeLog.append, before any frame bytes are written"
)
CRASH_SNAPSHOT_WRITE = register_crash_point(
    "snapshot-write",
    "SnapshotStore.save, after the files are written but before "
    "fsync + atomic rename publish the snapshot",
)


class FencedError(ReproError):
    """An append under a stale epoch: this node has been deposed.

    Raised before any bytes hit the log, so a fenced (zombie) leader
    fail-stops without ever forking the committed history.
    """


def dir_bytes(path) -> int:
    """Total file bytes under ``path`` (the ``repro_snapshot_bytes`` gauge)."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _fsync_path(path: Path) -> None:
    """fsync one file or directory by descriptor."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    """fsync every file, then every directory (bottom-up), under ``root``."""
    dirs: list[Path] = []
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            dirs.append(path)
        elif path.is_file():
            _fsync_path(path)
    for path in reversed(dirs):
        _fsync_path(path)
    _fsync_path(root)


_FENCE = "fence.json"
_SNAP_PREFIX = "snapshot-"
_META = "meta.json"
_SCHEMA = 1


def read_fence(directory) -> int:
    """The minimum epoch ``directory`` accepts appends under (0 = none)."""
    path = Path(directory) / _FENCE
    if not path.exists():
        return 0
    with open(path) as fh:
        return int(json.load(fh)["epoch"])


def write_fence(directory, epoch: int) -> None:
    """Durably stamp ``directory`` with a fencing ``epoch`` (atomic).

    Idempotent per epoch; lowering an existing fence raises -- fences only
    ever advance, that is what makes them fences.
    """
    directory = Path(directory)
    current = read_fence(directory)
    if epoch < current:
        raise ReproError(f"cannot lower fence from epoch {current} to {epoch}")
    tmp = directory / (_FENCE + ".tmp")
    with open(tmp, "w") as fh:
        json.dump({"epoch": epoch}, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(tmp, directory / _FENCE)
    _fsync_path(directory)


class ChangeLog:
    """Append-only write-ahead log of applied change batches.

    ``epoch`` stamps every appended frame with the writer's leadership
    epoch (0 for an unreplicated service); appends are rejected with
    :class:`FencedError` when the directory's fence has moved past it.
    """

    FILENAME = "wal.csv"

    def __init__(self, directory, *, sync: bool = True, epoch: int = 0):
        self.path = Path(directory) / self.FILENAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.epoch = epoch
        self._fh: Optional[io.TextIOWrapper] = None

    # -- writing --------------------------------------------------------

    def _handle(self) -> io.TextIOWrapper:
        if self._fh is None or self._fh.closed:
            created = not self.path.exists()
            self._fh = open(self.path, "a", newline="")
            if created and self.sync:
                # the file's *directory entry* must survive power loss too
                _fsync_path(self.path.parent)
        return self._fh

    def append(self, version: int, change_set: ChangeSet) -> int:
        """Durably append one batch as ``version`` (call *before* applying).

        Returns the bytes appended for this frame (the service feeds the
        ``repro_wal_bytes_total`` counter with it).
        """
        _fire_fault(
            CRASH_WAL_APPEND, path=str(self.path), version=version, epoch=self.epoch
        )
        fence = read_fence(self.path.parent)
        if fence > self.epoch:
            raise FencedError(
                f"append to {self.path} under epoch {self.epoch} rejected: "
                f"directory is fenced at epoch {fence} (a newer leader was "
                "promoted; this writer is a zombie)"
            )
        fh = self._handle()
        t0 = fh.tell()
        w = csv.writer(fh)
        w.writerow(["BEGIN", version, len(change_set), self.epoch])
        for ch in change_set:
            w.writerow(change_to_row(ch))
        w.writerow(["COMMIT", version])
        fh.flush()
        if self.sync:
            os.fsync(fh.fileno())
        return fh.tell() - t0

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    # -- replay ---------------------------------------------------------

    def replay(self, after_version: int = 0) -> Iterator[tuple[int, ChangeSet]]:
        """Yield committed (version, batch) pairs with version > ``after_version``."""
        for version, batch, _epoch in self.replay_frames(after_version):
            yield version, batch

    def replay_frames(
        self, after_version: int = 0
    ) -> Iterator[tuple[int, ChangeSet, int]]:
        """Yield committed (version, batch, epoch) with version > ``after_version``.

        A torn batch at the tail (``BEGIN`` without its ``COMMIT``) is the
        signature of a crash mid-append and is silently dropped; a torn
        batch *followed by more records* is corruption and raises.  Frames
        written before the epoch field existed replay as epoch 0.
        """
        if not self.path.exists():
            return
        open_version: Optional[int] = None
        open_epoch = 0
        open_changes: list = []
        torn_at: Optional[int] = None
        with open(self.path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if torn_at is not None:
                    raise ReproError(
                        f"corrupt change log {self.path}: batch v{torn_at} has "
                        "no COMMIT but the log continues"
                    )
                tag = row[0]
                if tag == "BEGIN":
                    if open_version is not None:
                        torn_at = open_version
                        continue
                    open_version = int(row[1])
                    open_epoch = int(row[3]) if len(row) > 3 else 0
                    open_changes = []
                elif tag == "COMMIT":
                    if open_version is None or int(row[1]) != open_version:
                        raise ReproError(
                            f"corrupt change log {self.path}: stray COMMIT {row[1:]}"
                        )
                    if open_version > after_version:
                        yield open_version, ChangeSet(open_changes), open_epoch
                    open_version = None
                else:
                    if open_version is None:
                        raise ReproError(
                            f"corrupt change log {self.path}: change row outside "
                            f"a batch frame: {row}"
                        )
                    open_changes.append(row_to_change(row))
        # a still-open batch at EOF is the torn tail: dropped by design

    def last_version(self) -> int:
        """Highest committed version in the log (0 when empty/missing)."""
        last = 0
        for version, _ in self.replay(0):
            last = version
        return last

    def repair(self) -> bool:
        """Truncate an uncommitted trailing frame; True if bytes were cut.

        Recovery must call this before the log is appended to again:
        replay merely *skips* a torn tail, but appending a new frame after
        one would turn the recoverable crash artefact into mid-log
        corruption on the next recovery.  Truncating at the last
        ``COMMIT`` is tail-only by construction -- an interior torn frame
        (real corruption) sits *before* a later COMMIT, survives the
        truncation, and still raises in :meth:`replay`.
        """
        if not self.path.exists():
            return False
        good = 0
        with open(self.path, "rb") as fh:
            while True:
                line = fh.readline()
                if not line:
                    break
                if line.split(b",", 1)[0].strip() == b"COMMIT":
                    good = fh.tell()
        if good >= self.path.stat().st_size:
            return False
        self.close()  # never truncate under an open append handle
        os.truncate(self.path, good)
        return True


class _UnreadableMeta(Exception):
    """A meta.json whose *bytes* cannot be parsed (empty/torn/foreign).

    The quarantine signal: :meth:`SnapshotStore.versions` warns and skips
    such a snapshot dir instead of bricking recovery.  Distinct from a
    schema mismatch, which is readable-but-wrong and stays a loud
    :class:`ReproError`.
    """


class SnapshotStore:
    """Atomic point-in-time graph snapshots under one directory.

    ``sweep=False`` opens the store read-only with respect to crash
    artefacts: orphaned ``.tmp`` trees are left alone.  A *reader* of
    someone else's live directory (replica bootstrap through
    :class:`~repro.replication.shipper.DirectoryWalShipper`) must pass
    it, because sweeping could delete a save the owning writer has in
    flight; the owning service sweeps on construction and recovery.
    """

    def __init__(self, directory, *, sweep: bool = True):
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        if sweep:
            self.sweep_tmp()

    def sweep_tmp(self) -> list[str]:
        """Remove orphaned ``snapshot-*.tmp`` trees; returns their names.

        A save that crashed at version V (e.g. at ``snapshot-write``)
        leaves ``snapshot-...V.tmp`` behind, and :meth:`save` only clears
        the tmp of the *same* version it is retrying -- after recovery the
        service's version moves on and the turd would otherwise leak
        forever.
        """
        victims = sorted(self.root.glob(f"{_SNAP_PREFIX}*.tmp"))
        for path in victims:
            shutil.rmtree(path, ignore_errors=True)
        return [p.name for p in victims]

    def _dirname(self, version: int) -> Path:
        return self.root / f"{_SNAP_PREFIX}{version:010d}"

    def _read_meta(self, path: Path) -> dict:
        """Parse + schema-check one snapshot's ``meta.json``.

        Unparseable bytes or a non-snapshot object raise
        :class:`_UnreadableMeta` (the quarantine signal); readable meta
        with the wrong schema raises :class:`ReproError` loudly -- format
        drift must never be silently skipped.
        """
        try:
            with open(path / _META) as fh:
                meta = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise _UnreadableMeta(str(exc)) from None
        if not isinstance(meta, dict) or "version" not in meta:
            raise _UnreadableMeta("not a snapshot meta object")
        if meta.get("schema") != _SCHEMA:
            raise ReproError(
                f"snapshot {path} has schema {meta.get('schema')}, "
                f"expected {_SCHEMA}"
            )
        return meta

    def save(self, graph: SocialGraph, version: int) -> Path:
        """Write a snapshot of ``graph`` at ``version``; atomic via rename.

        The tmp tree is fsynced *before* the rename and the store
        directory after it: the rename is the commit point, and a commit
        point over unsynced data would let power loss publish a torn
        snapshot -- the one artefact bootstrap (recovery, replica
        :meth:`~repro.replication.Replica` seeding) must be able to trust
        unconditionally.

        A graph with durable arenas (mmap/sqlite backends) additionally
        flushes and copies its arena files into ``arenas/`` inside the
        snapshot, recorded in the meta as ``"arenas": <backend>`` --
        :meth:`load` then restores edges by remapping those files instead
        of replaying the CSV rows.
        """
        final = self._dirname(version)
        if final.exists():
            raise ReproError(f"snapshot for version {version} already exists")
        tmp = final.with_suffix(".tmp")
        if tmp.exists():  # leftover of a crashed attempt at this version
            shutil.rmtree(tmp)
        save_graph(tmp, graph)
        arenas = graph.snapshot_arenas(tmp / "arenas")
        meta = {"schema": _SCHEMA, "version": version}
        if arenas:
            meta["arenas"] = arenas
        with open(tmp / _META, "w") as fh:
            json.dump(meta, fh)
        _fire_fault(CRASH_SNAPSHOT_WRITE, path=str(tmp), version=version)
        _fsync_tree(tmp)
        os.rename(tmp, final)
        _fsync_path(self.root)
        return final

    def versions(self) -> list[int]:
        """Versions of all complete snapshots, ascending.

        A snapshot dir whose ``meta.json`` is unreadable (empty, torn,
        foreign junk) is quarantined -- warned about and skipped -- so one
        bad artefact cannot brick :meth:`latest`/recovery while a good
        snapshot exists.  A *readable* meta with the wrong schema still
        raises: that is drift, not damage.
        """
        out = []
        for path in self.root.glob(f"{_SNAP_PREFIX}*"):
            if path.suffix == ".tmp" or not (path / _META).exists():
                continue
            try:
                meta = self._read_meta(path)
            except _UnreadableMeta as exc:
                warnings.warn(
                    f"quarantining snapshot {path.name}: unreadable meta.json "
                    f"({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            out.append(int(meta["version"]))
        return sorted(out)

    def latest(self) -> Optional[int]:
        versions = self.versions()
        return versions[-1] if versions else None

    def load(self, version: int, *, storage=None, storage_dir=None) -> SocialGraph:
        """Materialise the snapshot at ``version`` as a fresh graph.

        ``storage``/``storage_dir`` choose the *loaded* graph's backend
        (defaulting through ``REPRO_STORAGE`` like any constructor).
        When the snapshot carries durable arenas for that same backend,
        edges are restored by copying + remapping the arena files
        (entities still come from the CSVs); otherwise the full CSV
        replay runs.  Schema is enforced here exactly as in
        :meth:`versions` -- loading an explicit version fails loudly on
        any damage, it never quarantines.
        """
        path = self._dirname(version)
        if not (path / _META).exists():
            raise ReproError(f"no snapshot for version {version} in {self.root}")
        try:
            meta = self._read_meta(path)
        except _UnreadableMeta as exc:
            raise ReproError(
                f"snapshot {path} has unreadable meta.json: {exc}"
            ) from None
        backend = resolve_storage(storage)
        adopt = backend != "heap" and meta.get("arenas") == backend
        graph = load_graph(
            path, storage=backend, storage_dir=storage_dir, edges=not adopt
        )
        if adopt:
            graph.adopt_arenas(path / "arenas")
        return graph

    def prune(self, keep: int = 2) -> list[int]:
        """Drop all but the newest ``keep`` snapshots; returns dropped versions."""
        victims = self.versions()[:-keep] if keep > 0 else self.versions()
        for version in victims:
            shutil.rmtree(self._dirname(version), ignore_errors=True)
        return victims
