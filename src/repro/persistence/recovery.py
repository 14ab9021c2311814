"""Recovery manager: snapshot + WAL tail -> a transcript-identical service.

One :class:`CheckpointManager` owns a checkpoint directory::

    <dir>/
        snapshot-000000000000.json      # oldest retained snapshot
        snapshot-000000000042.json      # newest (name = WAL records covered)
        wal/wal-000000000042.seg        # records past the newest snapshot
        ...

Recovery (:func:`restore_service`) loads the newest snapshot — protocol
state, RNG streams, comm/space ledgers, everything — and replays the WAL
records it does not cover through the service's normal registration and
batched-ingestion paths.  Because every component's randomness and
counters were restored exactly, the replayed tail produces the same
messages in the same order as the original run: a killed-and-restarted
service is indistinguishable (transcripts, ledgers, query answers) from
one that never died.

Checkpointing (:meth:`CheckpointManager.save`) is the inverse: write the
state atomically, then drop WAL segments and old snapshots the new
snapshot has made redundant.
"""

from __future__ import annotations

import os
from typing import Optional

from .codec import decode_value
from .snapshot import latest_snapshot, prune_snapshots, write_snapshot
from .wal import (
    REC_BATCH,
    REC_REGISTER,
    REC_UNREGISTER,
    WriteAheadLog,
)

__all__ = ["CheckpointManager", "restore_service"]

_WAL_SUBDIR = "wal"


class CheckpointManager:
    """Snapshot files plus the write-ahead log under one directory."""

    def __init__(self, directory: str, sync: bool = False):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.wal = WriteAheadLog(
            os.path.join(directory, _WAL_SUBDIR), sync=sync
        )

    def has_data(self) -> bool:
        """True if the directory already holds a snapshot or WAL records."""
        return self.latest_state() is not None or self.wal.last_seq >= 0

    def latest_state(self) -> Optional[dict]:
        return latest_snapshot(self.directory)

    def save(self, service) -> str:
        """Checkpoint a service: snapshot, then prune covered WAL/snapshots."""
        return self.save_state(service.state_dict())

    def save_state(self, state: dict) -> str:
        """Checkpoint a pre-collected state dict (``wal_seq`` required).

        The state-collection side of :meth:`save`, split out for callers
        whose state does not live in one object — the distributed runtime
        (:mod:`repro.net.cluster`) gathers actor snapshots over the wire
        and hands the assembled bundle here.
        """
        path = write_snapshot(self.directory, state)
        self.wal.truncate_through(state["wal_seq"])
        prune_snapshots(self.directory)
        return path

    def close(self) -> None:
        self.wal.close()


def replay_into(service, manager: CheckpointManager, after_seq: int) -> int:
    """Replay WAL records past ``after_seq`` into a restored service.

    Registration and batch records go through the service's normal code
    paths (flagged as replay so they are not re-logged).  Returns the
    number of records applied.
    """
    applied = 0
    service._replaying = True
    try:
        for record in manager.wal.records(after_seq):
            kind, seq = record[0], record[1]
            if kind == REC_BATCH:
                _, _, site_ids, items = record
                service.ingest(site_ids, items)
            elif kind == REC_REGISTER:
                _, _, name, scheme_state, seed, budget = record
                service.register(
                    name,
                    decode_value(scheme_state),
                    seed=seed,
                    space_budget_words=budget,
                )
            elif kind == REC_UNREGISTER:
                service.unregister(record[2])
            service._wal_seq = seq
            applied += 1
    finally:
        service._replaying = False
    return applied


def restore_service(directory: str, sync: bool = False):
    """Rebuild a :class:`~repro.service.TrackingService` from disk.

    Loads the newest snapshot under ``directory``, replays the WAL tail,
    and hands back a live service that continues logging to the same
    directory.  Raises ``FileNotFoundError`` if the directory holds no
    snapshot (a service with ``checkpoint_dir`` always writes an initial
    one, so this means the directory was never a checkpoint dir).
    """
    from ..service.service import TrackingService  # deferred: import cycle

    # Probe before CheckpointManager touches the filesystem: restoring a
    # mistyped path must not conjure an empty checkpoint directory.
    state = latest_snapshot(directory)
    if state is None:
        raise FileNotFoundError(
            f"no snapshot under {directory!r}; nothing to restore"
        )
    manager = CheckpointManager(directory, sync=sync)
    # A fully truncated WAL carries no sequence history; re-anchor it at
    # the snapshot's position so post-restore records stay monotonic.
    manager.wal.ensure_seq_floor(state.get("wal_seq", -1))
    service = TrackingService.from_state(state)
    replay_into(service, manager, state.get("wal_seq", -1))
    service._attach_checkpoints(manager)
    return service
