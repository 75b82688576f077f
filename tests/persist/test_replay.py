"""Crash dumps and the replay loop: a fuzz divergence in a file.

A dump must be self-contained — case, divergence, and (when the axis
captured one) the machine image — and ``replay_crash`` must re-run the
recorded case through every diff axis.  ``write_failure_artifacts`` is
what CI uploads on red runs; its layout is part of the contract.
"""

import json

import pytest

from repro.fuzz.differ import Divergence
from repro.fuzz.generator import generate_case
from repro.fuzz.runner import Failure, FuzzReport, write_failure_artifacts
from repro.persist import (decode_snapshot, dump_snapshot_bytes,
                           read_crash_dump, replay_crash, write_crash_dump)
from repro.persist.replay import decode_case, encode_case
from repro.persist.snapshot import SnapshotFormatError
from repro.sim.api import Simulation


def healthy_case():
    """A generated case that (by construction of the suite) diverges on
    no axis — replaying its dump must come back clean."""
    return generate_case(12345, "plain")


def machine_snapshot_bytes() -> bytes:
    from repro.persist.snapshot import encode_snapshot
    from repro.persist.image import capture_simulation

    sim = Simulation()
    sim.spawn("movi r2, 9\nhalt")
    sim.step(5)
    return encode_snapshot(capture_simulation(sim))


def synthetic_divergence(snapshot: bytes | None = None) -> Divergence:
    return Divergence(axis="replay-roundtrip", case=healthy_case(),
                      kind="state", detail="synthetic, for the dump tests",
                      bundle_index=17, snapshot=snapshot)


class TestCaseCodec:
    def test_round_trip(self):
        case = healthy_case()
        assert decode_case(encode_case(case)) == case

    def test_non_finite_fregs_survive(self):
        case = healthy_case()
        case.fregs.update({0: float("inf"), 1: float("-inf"), 2: -0.0})
        encoded = json.loads(json.dumps(encode_case(case)))  # JSON-safe
        decoded = decode_case(encoded)
        assert decoded.fregs[0] == float("inf")
        assert decoded.fregs[1] == float("-inf")
        assert str(decoded.fregs[2]) == "-0.0"  # bit-exact, sign included


class TestCrashDump:
    def test_write_read_round_trip(self, tmp_path):
        snapshot = machine_snapshot_bytes()
        path = write_crash_dump(synthetic_divergence(snapshot),
                                tmp_path / "dump.json")
        dump = read_crash_dump(path)
        assert dump["divergence"]["axis"] == "replay-roundtrip"
        assert dump["divergence"]["bundle_index"] == 17
        assert decode_case(dump["case"]) == healthy_case()
        assert dump_snapshot_bytes(dump) == snapshot
        # the embedded image is a valid, restorable container
        assert decode_snapshot(snapshot)["kind"] == "simulation"

    def test_dump_without_snapshot(self, tmp_path):
        path = write_crash_dump(synthetic_divergence(None),
                                tmp_path / "dump.json")
        assert dump_snapshot_bytes(read_crash_dump(path)) is None

    def test_dump_is_plain_json(self, tmp_path):
        path = write_crash_dump(synthetic_divergence(machine_snapshot_bytes()),
                                tmp_path / "dump.json")
        json.loads(path.read_text())  # no custom framing

    def test_foreign_json_is_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(SnapshotFormatError):
            read_crash_dump(path)

    def test_version_skew_is_rejected(self, tmp_path):
        path = write_crash_dump(synthetic_divergence(None),
                                tmp_path / "dump.json")
        dump = json.loads(path.read_text())
        dump["version"] = 99
        path.write_text(json.dumps(dump))
        with pytest.raises(SnapshotFormatError):
            read_crash_dump(path)


class TestReplay:
    def test_healthy_dump_replays_clean(self, tmp_path):
        path = write_crash_dump(synthetic_divergence(None),
                                tmp_path / "dump.json")
        lines = []
        divergences = replay_crash(path, log=lines.append)
        assert divergences == []
        assert any("replaying seed=12345" in line for line in lines)


class TestBareChipDump:
    """The replay axis round-trips ``plain``/``self_modify``/
    ``enter_call`` cases as a bare ``chip`` image — the snapshot a crash
    artifact carries — so ``repro restore`` must take one too."""

    def test_plain_case_blob_restores_to_the_uninterrupted_digest(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.fuzz.differ import DATA_BASE
        from repro.fuzz.generator import DATA_BYTES
        from repro.fuzz.scenarios import (MAX_CYCLES, _digest_chip, _rebind,
                                          run_scenario)
        from repro.persist.state import threads_by_tid

        case = healthy_case()
        whole = run_scenario(case, decode_cache=True)
        split = run_scenario(case, decode_cache=True, roundtrip=True)
        path = tmp_path / "snapshot.snap"
        path.write_bytes(split.pop("_snapshot"))
        assert decode_snapshot(path.read_bytes())["kind"] == "chip"

        assert main(["restore", str(path)]) in (0, 1)  # no traceback
        assert "restored chip snapshot" in capsys.readouterr().out

        sim = Simulation.restore(path)
        (thread,) = threads_by_tid(sim.chip).values()
        thread, monitor = _rebind(sim.chip, thread)
        sim.run(MAX_CYCLES - sim.now)
        resumed = _digest_chip(sim.chip, [thread], [(DATA_BASE, DATA_BYTES)],
                               [monitor])
        for digest in (whole, split, resumed):
            digest.pop("_flight")
        assert resumed == split == whole


class TestFailureArtifacts:
    def test_layout(self, tmp_path):
        snapshot = machine_snapshot_bytes()
        report = FuzzReport(campaign_seed=0, cases=1)
        report.failures.append(Failure(synthetic_divergence(snapshot)))
        (crash_dir,) = write_failure_artifacts(report, tmp_path / "crashes")
        assert crash_dir.name == "000-replay-roundtrip-plain"
        assert (crash_dir / "dump.json").exists()
        assert (crash_dir / "snapshot.snap").read_bytes() == snapshot
        assert healthy_case().source in (crash_dir / "program.s").read_text()
        assert "def test_" in (crash_dir / "repro.py").read_text()

    def test_snapshotless_failure_writes_no_snap_file(self, tmp_path):
        report = FuzzReport(campaign_seed=0, cases=1)
        report.failures.append(Failure(synthetic_divergence(None)))
        (crash_dir,) = write_failure_artifacts(report, tmp_path / "crashes")
        assert not (crash_dir / "snapshot.snap").exists()
        assert (crash_dir / "dump.json").exists()

    def test_replay_take_artifact_dump_directly(self, tmp_path):
        """The round trip CI relies on: campaign artifact → repro replay."""
        report = FuzzReport(campaign_seed=0, cases=1)
        report.failures.append(
            Failure(synthetic_divergence(machine_snapshot_bytes())))
        (crash_dir,) = write_failure_artifacts(report, tmp_path / "crashes")
        assert replay_crash(crash_dir / "dump.json") == []
