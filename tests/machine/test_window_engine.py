"""The one window engine behind every Simulation: verbs behave the same
on both executors, the in-process (lockstep) executor never captures or
forks, and a dead worker fails the sharded executor cleanly."""

import os
import signal
import time

import pytest

from repro.machine.counters import architectural
from repro.machine.parallel import ParallelError
from repro.sim.api import Simulation

LOOP = """
    movi r2, 30
loop:
    ld r3, r1, 0
    addi r3, r3, 1
    st r3, r1, 0
    subi r2, r2, 1
    bne r2, loop
    halt
"""


def mesh(workers, nodes=2):
    return Simulation(nodes=nodes, memory_bytes=2 * 1024 * 1024,
                      arena_order=24, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_retire_finished_rejects_an_out_of_range_node(workers):
    sim = mesh(workers)
    try:
        sim.step(1)  # starts the workers on the sharded engine
        with pytest.raises(ValueError, match="node 5 out of range"):
            sim.retire_finished([(5, 0)])
    finally:
        sim.close()


def test_lockstep_never_captures_or_forks(monkeypatch):
    import multiprocessing

    import repro.persist.image as image

    def refuse(*_args, **_kwargs):
        raise AssertionError("the lockstep engine captured or forked")

    sim = mesh(workers=1)
    data = sim.allocate(4096, node=1, eager=True)
    entry = sim.load(LOOP, node=0)
    monkeypatch.setattr(image, "capture_multicomputer", refuse)
    monkeypatch.setattr(image, "capture_node", refuse)
    monkeypatch.setattr(multiprocessing, "get_context", refuse)

    sim.step(3)
    tid = sim.spawn_request(0, entry, regs={1: data.word})
    assert sim.retire_finished([(0, tid)]) == []  # still running
    assert sim.run().reason == "halted"
    [done] = sim.retire_finished([(0, tid)])
    assert done["state"] == "HALTED"
    sim.advance_idle(100)
    sim.record_sample(1, "request_latency", 7)
    sim.emit(0, "request.done", sim.now, tid=tid)
    assert sim.chips[1].obs.histograms["request_latency"].count == 1
    assert sim.snapshot()["chip.issued_bundles"] > 0
    assert set(sim.counters_per_node()) == {0, 1}
    assert sim.engine is None
    sim.sync_back()  # a no-op in-process


def test_a_dead_worker_fails_cleanly(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
    sim = mesh(workers=2)
    data = sim.allocate(4096, node=1, eager=True)
    sim.spawn(LOOP, node=0, regs={1: data.word})
    try:
        sim.engine.start()
        procs = list(sim.engine._ex._procs)
        os.kill(procs[1].pid, signal.SIGKILL)
        procs[1].join(timeout=5)
        assert not procs[1].is_alive()
        began = time.monotonic()
        with pytest.raises(ParallelError):
            sim.run()
        assert time.monotonic() - began < 5
        procs[0].join(timeout=5)
        assert not procs[0].is_alive()  # the survivor is not left behind
    finally:
        sim.close()


def test_restore_reships_a_started_sharded_machine():
    """Restoring into a started sharded machine re-ships the image to
    the workers, and the run continues exactly as lockstep does."""
    results = []
    for workers in (1, 2):
        sim = mesh(workers)
        data = sim.allocate(4096, node=1, eager=True)
        sim.spawn(LOOP, node=0, regs={1: data.word})
        try:
            image = sim.capture_state()
            first = sim.run()
            sim.sync_back()
            sim.restore_state(image)
            again = sim.run()
            results.append((first.cycles, again.cycles,
                            architectural(sim.snapshot()),
                            sim.capture_state()))
        finally:
            sim.close()
    assert results[0][0] == results[0][1]
    assert results[1] == results[0]


def test_direct_counters_after_a_sync_read_architectural_state():
    """After a sharded sync, direct access reads every node's
    architectural counters exactly as the merged view does; the host
    tallies (``HOST_COUNTERS``) describe the workers, so only
    ``snapshot()`` carries them."""
    sim = mesh(workers=2)
    data = sim.allocate(4096, node=1, eager=True)
    sim.spawn(LOOP, node=0, regs={1: data.word})
    try:
        sim.run()
        merged = architectural(sim.snapshot())
        sim.sync_back()
        for node in (0, 1):
            prefix = f"node{node}."
            direct = architectural(sim.counters_of(node).snapshot())
            assert direct == {name[len(prefix):]: value
                              for name, value in merged.items()
                              if name.startswith(prefix)}
    finally:
        sim.close()
