"""Snapshot/restore, deterministic replay and process migration.

Three layers, bottom to top:

* :mod:`repro.persist.snapshot` — the on-disk container (magic, header,
  CRC, compressed canonical JSON);
* :mod:`repro.persist.state` / :mod:`repro.persist.image` — capturing
  and rebuilding machines (a bare chip, a simulation, a mesh), always
  as a :class:`~repro.sim.api.Simulation`;
* :mod:`repro.persist.delta`, :mod:`repro.persist.migrate`,
  :mod:`repro.persist.replay` — what the base layers enable:
  O(dirty-pages) checkpoints, live cross-node process migration, and
  replayable crash dumps for the differential fuzzer.

The reason any of this is *simple* is the paper's thesis: protection
lives inside guarded pointers, so serialising the words serialises the
capabilities, and a restored or migrated machine needs no fixup pass.
"""

from repro.persist.delta import (DeltaChainError, DeltaCheckpointer,
                                 chain_paths, load_chain)
from repro.persist.image import (capture_multicomputer, capture_node,
                                 capture_simulation, load_machine,
                                 restore_machine, restore_multicomputer_state,
                                 restore_node)
from repro.persist.migrate import (MigrationError, MigrationReport,
                                   MigrationService)
from repro.persist.replay import (dump_snapshot_bytes, read_crash_dump,
                                  replay_crash, state_digest,
                                  write_crash_dump)
from repro.persist.snapshot import (SnapshotChecksumError, SnapshotError,
                                    SnapshotFormatError,
                                    SnapshotVersionError, canonical_json,
                                    decode_snapshot, encode_snapshot,
                                    read_header, read_snapshot,
                                    write_snapshot)
from repro.persist.state import (SPEED_KNOBS, capture_chip,
                                 restore_chip_state, threads_by_tid)

__all__ = [
    "SPEED_KNOBS",
    "DeltaChainError",
    "DeltaCheckpointer",
    "MigrationError",
    "MigrationReport",
    "MigrationService",
    "SnapshotChecksumError",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "canonical_json",
    "capture_chip",
    "capture_multicomputer",
    "capture_node",
    "capture_simulation",
    "chain_paths",
    "decode_snapshot",
    "dump_snapshot_bytes",
    "encode_snapshot",
    "load_chain",
    "load_machine",
    "read_crash_dump",
    "read_header",
    "read_snapshot",
    "replay_crash",
    "restore_chip_state",
    "restore_machine",
    "restore_multicomputer_state",
    "restore_node",
    "state_digest",
    "threads_by_tid",
    "write_crash_dump",
    "write_snapshot",
]
