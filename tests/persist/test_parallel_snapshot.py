"""Snapshots taken by the sharded engine: ``Simulation.save`` drains
the workers to the window barrier first, so a parallel-captured image
is indistinguishable from a lockstep one — it must restore into a
plain lockstep simulation and continue bit-identically."""

import hashlib

from repro.persist.snapshot import encode_snapshot
from repro.sim.api import Simulation

CROSS_LOOP = """
    movi r2, 20
loop:
    ld r3, r1, 0
    addi r3, r3, 1
    st r3, r1, 0
    subi r2, r2, 1
    bne r2, loop
    halt
"""


def build(workers):
    sim = Simulation(nodes=2, memory_bytes=2 * 1024 * 1024,
                     arena_order=24, workers=workers)
    for node in range(2):
        data = sim.allocate(4096, node=(node + 1) % 2, eager=True)
        sim.spawn(CROSS_LOOP, node=node, regs={1: data.word})
    return sim


def digest(sim):
    return hashlib.sha256(
        encode_snapshot(sim.capture_state())).hexdigest()


class TestParallelImage:
    def test_parallel_save_restores_into_lockstep(self, tmp_path):
        path = tmp_path / "mid.repro"

        # the sharded arm: run to a window-aligned split, save, finish
        sharded = build(workers=2)
        try:
            split = 7 * sharded.machine.window
            sharded.run(max_cycles=split)
            sharded.save(path)
            sharded.run()
            parallel_final = digest(sharded)
        finally:
            sharded.close()

        # the image continues under the lockstep engine
        restored = Simulation.restore(path)
        restored.run()
        restored_final = digest(restored)
        assert restored_final == parallel_final

        # and both match an uninterrupted lockstep run
        serial = build(workers=1)
        serial.run()
        assert digest(serial) == parallel_final

    def test_saved_image_is_at_the_window_barrier(self, tmp_path):
        # save mid-window: the drain must park the machine at a
        # boundary the lockstep restore can resume from, and the clock
        # in the image must match what the engine then reports
        path = tmp_path / "midwindow.repro"
        sharded = build(workers=2)
        try:
            sharded.step(sharded.machine.window // 2)
            sharded.save(path)
            saved_now = sharded.now
        finally:
            sharded.close()
        restored = Simulation.restore(path)
        assert restored.now == saved_now
        assert restored.run().reason is not None
