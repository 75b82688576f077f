"""Compiled nodes and superblock turbo execution (PERF.md §6): every
bundle issues through its compiled node, one cycle at a time or in
bulk.  Bulk dispatch must be invisible — identical cycles, identical
counter snapshots, identical flight-recorder contents — with the knob
on (superblocks) vs off (per-cycle node issue), for every functional
unit, with one ready thread (superblocks engage) and with several
(per-cycle issue on both sides), across mid-superblock invalidation
(self-modifying stores, unmap, swap-out, remote writes) and across a
snapshot taken while a superblock is hot."""

import pytest

from repro.core.operations import lea
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord
from repro.machine.isa import BUNDLE_BYTES
from repro.machine.chip import ChipConfig, MAPChip, RunReason
from repro.machine.counters import architectural
from repro.machine.thread import ThreadState
from repro.runtime import services
from repro.runtime.subsystem import ProtectedSubsystem
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

MEMORY = 2 * 1024 * 1024


def run_pair(source, *, data_bytes=0, max_cycles=100_000, threads=1,
             nodes=1, setup=None):
    """The same program on two fresh machines differing only in the
    ``superblock`` knob; returns ``(sim_on, res_on, sim_off, res_off)``.
    When ``data_bytes`` is set an eager segment lands in r8; ``setup``
    may prepare the machine and the loaded program (it gets both) and
    returns further registers.  ``threads``
    copies of the program run side by side: with one, the knob-on chip
    runs superblocks; with two or more ready, both chips issue every
    bundle per cycle.  Either way the knob-off chip issues per cycle
    through the same compiled nodes, so the pair isolates bulk
    dispatch and its accounting."""
    out = []
    for sb in (True, False):
        sim = Simulation(nodes=nodes, memory_bytes=MEMORY, superblock=sb)
        regs = {}
        if data_bytes:
            regs[8] = sim.allocate(data_bytes, eager=True).word
        entry = sim.load(source)
        if setup is not None:
            regs.update(setup(sim, entry))
        for _ in range(threads):
            sim.spawn(entry, regs=regs)
        out.append(sim)
        out.append(sim.run(max_cycles))
    return out[0], out[1], out[2], out[3]


def assert_parity(sim_on, res_on, sim_off, res_off):
    """The timing-model-identical contract, in full, on every node."""
    assert res_on.cycles == res_off.cycles
    assert res_on.reason == res_off.reason
    assert res_on.issued_bundles == res_off.issued_bundles
    assert sim_on.snapshot() == sim_off.snapshot()
    for chip_on, chip_off in zip(sim_on.chips, sim_off.chips):
        assert chip_on.obs.flight.dump() == chip_off.obs.flight.dump()
        assert ([type(r.cause).__name__ for r in chip_on.fault_log] ==
                [type(r.cause).__name__ for r in chip_off.fault_log])


# -- per-functional-unit parity (one workload per unit/op class) ----------

UNIT_WORKLOADS = {
    # integer unit, compiled closures
    "int-alu-imm": """
        movi r2, 200
    loop:
        addi r3, r3, 7
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-alu-reg": """
        movi r2, 200
        movi r4, 3
    loop:
        add  r3, r3, r4
        xor  r5, r3, r2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-movi": """
        movi r2, 150
    loop:
        movi r3, 42
        movi r4, -7
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "int-branches": """
        movi r2, 120
    loop:
        beq  r2, done
        subi r2, r2, 1
        br   loop
    done:
        halt
    """,
    # integer unit: MOV, ISPTR and GETIP nodes
    "int-fallback": """
        movi r2, 100
    loop:
        mov  r3, r2
        isptr r4, r3
        getip r5, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # floating-point unit
    "fp-arith": """
        movi r2, 120
        itof f1, r2
    loop:
        fadd f2, f2, f1
        fmul f3, f2, f1
        fsub f4, f3, f2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "fp-div-casts": """
        movi r2, 80
        movi r3, 3
        itof f1, r3
    loop:
        fdiv f2, f1, f1
        ftoi r4, f2
        fmov f5, f2
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # memory unit: compiled load/store closures
    "mem-loads": """
        movi r2, 150
    loop:
        ld   r3, r8, 0
        ld   r4, r8, 64
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "mem-stores": """
        movi r2, 150
    loop:
        st   r2, r8, 0
        st   r2, r8, 128
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    "mem-float": """
        movi r2, 100
        itof f1, r2
    loop:
        stf  f1, r8, 0
        ldf  f2, r8, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # memory unit: LEA derives through the LEA memo
    "mem-lea-fallback": """
        movi r2, 100
    loop:
        lea  r3, r8, 8
        ld   r4, r3, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # all three units live in the same bundle stream
    "mixed-units": """
        movi r2, 150
        itof f1, r2
    loop:
        ld   r3, r8, 0  | fadd f2, f2, f1
        addi r3, r3, 1
        st   r3, r8, 0  | fmul f3, f2, f1
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # integer unit: GETIP pre-derived, LEAR through the LEA memo
    "getip-lear": """
        movi r2, 100
        movi r6, 16
    loop:
        getip r5, 0
        lear r3, r8, r6
        ld   r4, r3, 0
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # JMP through an ENTER_PRIV gateway (r1) and back through r15:
    # the enter-call tracker must see identical calls and round trips
    "jmp-enter-gateway": """
        movi r2, 40
    loop:
        getip r15, back
        jmp  r1
    back:
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
    # HALT shares its bundle with a load that misses (a cold line
    # holding 77): the blocking load's write must land before the
    # thread's state goes final.  The code is pre-decoded, so even a
    # lone thread issues the HALT bundle from its compiled node
    "halt-blocking-load": """
        movi r2, 3
        halt | ld r3, r8, 0
    """,
    # loads and stores homed on the other node of a 2-node mesh
    "mem-remote": """
        movi r2, 30
    loop:
        ld   r3, r8, 0
        addi r3, r3, 1
        st   r3, r8, 8
        subi r2, r2, 1
        bne  r2, loop
        halt
    """,
}

NEEDS_DATA = {"mem-loads", "mem-stores", "mem-float", "mem-lea-fallback",
              "mixed-units", "getip-lear"}

GATEWAY = """
    entry:
        movi r11, 99
        jmp  r15
"""


def _gateway(sim, entry):
    gate = ProtectedSubsystem.install(sim.kernel, GATEWAY, privileged=True)
    return {1: gate.enter.word}


def _cold_word(sim, entry):
    chip = sim.chip
    chip.fetch(entry)
    chip.fetch(GuardedPointer.from_word(lea(entry.word, BUNDLE_BYTES).word))
    data = sim.allocate(4096, eager=True)
    chip.memory.store_word(chip.page_table.walk(data.address),
                           TaggedWord.integer(77))
    return {8: data.word}


def _remote_segment(sim, entry):
    return {8: sim.allocate(4096, node=1, eager=True).word}


#: per-unit machine set-up beyond the program (returns registers)
SETUP = {"jmp-enter-gateway": _gateway, "halt-blocking-load": _cold_word,
         "mem-remote": _remote_segment}
NODES = {"mem-remote": 2}


class TestUnitParity:
    """coreblocks-style per-unit sweep: each functional unit (and each
    op class within it) proves that bulk dispatch matches per-cycle
    node issue, once with a lone thread (superblocks against per-cycle
    issue) and once with two ready threads (per-cycle issue on both
    sides)."""

    @pytest.mark.parametrize("unit", sorted(UNIT_WORKLOADS))
    def test_unit_is_timing_identical(self, unit):
        data = 4096 if unit in NEEDS_DATA else 0
        for threads in (1, 2):
            sim_on, res_on, sim_off, res_off = run_pair(
                UNIT_WORKLOADS[unit], data_bytes=data, threads=threads,
                nodes=NODES.get(unit, 1), setup=SETUP.get(unit))
            assert res_on.reason == "halted"
            assert_parity(sim_on, res_on, sim_off, res_off)
            bulk = sum(c.superblock_bundles for c in sim_on.chips)
            if threads == 1:
                assert bulk > 0
            else:
                assert bulk < res_on.issued_bundles
            # the knob-off side never dispatches in bulk, yet issues
            # through compiled nodes kept in its decode cache
            assert not any(c.superblock_blocks for c in sim_off.chips)
            assert any(node for c in sim_off.chips
                       for _, _, node in c._decode_cache.values())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_enter_round_trips_match(self, threads):
        sim_on, _, sim_off, _ = run_pair(
            UNIT_WORKLOADS["jmp-enter-gateway"], threads=threads,
            setup=_gateway)
        for sim in (sim_on, sim_off):
            assert sim.snapshot()["hist.enter_roundtrip.count"] == \
                40 * threads
            assert all(t.regs.read(11).value == 99 for t in sim.threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_halt_lands_the_blocking_load(self, threads):
        sim_on, _, sim_off, _ = run_pair(
            UNIT_WORKLOADS["halt-blocking-load"], threads=threads,
            setup=_cold_word)
        for sim in (sim_on, sim_off):
            # the first load missed (it would have blocked the thread)
            assert sim.snapshot()["hist.load_to_use.max"] > 1
            assert [t.regs.read(3).value for t in sim.threads] == \
                [77] * threads

    def test_remote_accesses_cross_the_mesh(self):
        sim_on, _, sim_off, _ = run_pair(
            UNIT_WORKLOADS["mem-remote"], nodes=2, setup=_remote_segment)
        for sim in (sim_on, sim_off):
            snap = sim.snapshot()
            assert snap["router.remote_reads"] == 30
            assert snap["router.remote_writes"] == 30

    def test_superblocks_actually_engage(self):
        sim_on, res_on, sim_off, res_off = run_pair(
            UNIT_WORKLOADS["int-alu-imm"])
        assert sim_on.chip.superblock_blocks > 0
        assert sim_on.chip.superblock_bundles > res_on.issued_bundles // 2
        assert sim_off.chip.superblock_blocks == 0

    def test_fault_mid_superblock(self):
        # the loop walks a pointer off the end of its segment: the
        # bounds fault lands mid-trace and must hit at the same cycle,
        # with the faulting bundle committing nothing, on and off
        source = """
            movi r2, 100
        loop:
            ld   r3, r8, 0
            addi r8, r8, 8
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        sim_on, res_on, sim_off, res_off = run_pair(source, data_bytes=64)
        thread_on = sim_on.threads[0]
        assert thread_on.state is ThreadState.FAULTED
        assert_parity(sim_on, res_on, sim_off, res_off)

    def test_trap_dispatch_runs_per_cycle(self):
        # a lone thread loops through a spawn trap: the handler puts a
        # child on a later cluster, which issues in the trap's own
        # cycle when stepping — so superblocks must end before a TRAP
        # and leave its dispatch to the per-cycle path
        source = f"""
            movi r2, 3
        loop:
            getip r3, child
            trap  {services.TRAP_SPAWN}
            addi  r7, r7, 1
            subi  r2, r2, 1
            bne   r2, loop
            halt
        child:
            addi  r1, r1, 1
            halt
        """
        out = []
        for sb in (True, False):
            sim = Simulation(memory_bytes=MEMORY, superblock=sb)
            services.install(sim.kernel)
            sim.spawn(sim.load(source), cluster=0)
            out.append(sim)
            out.append(sim.run(100_000))
        assert out[1].reason == "halted"
        assert out[0].kernel.stats.traps == 3
        assert len(out[0].threads) == 4
        assert out[0].chip.superblock_blocks > 0
        assert_parity(*out)

    def test_blocking_load_exits_the_superblock(self):
        # a cold miss blocks the thread; the superblock must account
        # the stall exactly as per-cycle stepping does (lazy segment:
        # first touches take misses + demand paging)
        source = """
            movi r2, 60
        loop:
            ld   r3, r8, 0
            ld   r4, r8, 2048
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        out = []
        for sb in (True, False):
            sim = Simulation(memory_bytes=MEMORY, superblock=sb)
            regs = {8: sim.allocate(4096).word}  # lazy: faults + misses
            sim.spawn(sim.load(source), regs=regs)
            out.append(sim)
            out.append(sim.run(100_000))
        assert_parity(*out)


class TestMidSuperblockInvalidation:
    def test_store_into_the_cached_trace(self):
        # the loop patches its own body (movi imm) every iteration —
        # stale superblock nodes would keep executing the old immediate
        source = """
            movi r2, 40
            lea  r9, r15, 48
        loop:
            movi r3, 1
            st   r10, r9, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        # r15 is fuzz-style rw alias; build by hand for the alias
        from repro.core.permissions import Permission
        from repro.core.pointer import GuardedPointer
        out = []
        for sb in (True, False):
            sim = Simulation(memory_bytes=MEMORY, superblock=sb)
            entry = sim.load(source)
            alias = GuardedPointer.make(Permission.READ_WRITE,
                                        entry.seglen, entry.address)
            patch = sim.load("movi r3, 2\nhalt")  # donor word
            word = sim.chip.memory.load_word(
                sim.chip.page_table.walk(patch.address))
            sim.spawn(entry, regs={15: alias.word, 10: word})
            out.append(sim)
            out.append(sim.run(100_000))
        assert_parity(*out)
        assert out[0].threads[0].regs.read(3).value == \
            out[2].threads[0].regs.read(3).value

    def test_unmap_mid_run(self):
        source = """
            movi r2, 4000
        loop:
            addi r3, r3, 1
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        out = []
        for sb in (True, False):
            sim = Simulation(memory_bytes=MEMORY, superblock=sb)
            entry = sim.load(source)
            sim.spawn(entry)
            sim.step(50)  # compiled nodes are hot across this boundary
            cache = sim.chip._decode_cache
            assert any(node for _, _, node in cache.values())
            table = sim.chip.page_table
            table.unmap(table.page_of(entry.address))
            assert not cache  # the nodes went with their entries
            res = sim.run(100_000)
            out.append(sim)
            out.append(res)
        # the kernel demand-pages the code back in: one recorded page
        # fault, then the (invalidated, re-decoded) loop runs to halt
        assert out[0].threads[0].stats.faults == 1
        assert out[0].threads[0].state is ThreadState.HALTED
        assert_parity(*out)

    def test_swap_out_mid_run(self):
        source = """
            movi r2, 3000
        loop:
            ld   r3, r8, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        out = []
        for sb in (True, False):
            sim = Simulation(memory_bytes=MEMORY, superblock=sb)
            data = sim.allocate(4096, eager=True)
            entry = sim.load(source)
            sim.spawn(entry, regs={8: data.word})
            swap = SwapManager(sim.kernel, swap_cycles=50)
            sim.step(40)
            table = sim.chip.page_table
            swap.swap_out(table.page_of(entry.address))
            swap.swap_out(table.page_of(data.segment_base))
            assert not sim.chip._decode_cache
            res = sim.run(100_000)
            out.append(sim)
            out.append(res)
        assert out[1].reason == "halted"
        assert_parity(*out)

    def test_remote_write_and_mesh_inertness(self):
        # superblocks run inside each node's share of a lookahead
        # window: on a mesh the knob must engage and still change
        # nothing, across a remote patch of the hot loop body
        from repro.machine.assembler import assemble
        source = """
            movi r2, 2000
        loop:
            movi r3, 7
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        digests = []
        for sb in (True, False):
            sim = Simulation(nodes=2, memory_bytes=MEMORY, superblock=sb)
            entry = sim.load(source, node=0)
            thread = sim.spawn(entry)
            sim.step(30)
            patch = assemble("movi r3, 9").encode()[0]
            # node 1 patches node 0's loop body through the mesh
            sim.chips[1].access_memory(entry.address + 24, write=True,
                                       now=sim.chips[1].now, value=patch)
            sim.run(100_000)
            assert (sim.chips[0].superblock_blocks > 0) == sb
            digests.append((sim.now, sim.snapshot(),
                            thread.regs.read(3).value,
                            thread.state.name))
        assert digests[0] == digests[1]
        assert digests[0][2] == 9  # the remote patch took effect


class TestSnapshotMidSuperblock:
    def test_restore_inside_a_hot_loop(self, tmp_path):
        source = """
            movi r2, 2500
        loop:
            addi r3, r3, 1
            st   r3, r8, 0
            subi r2, r2, 1
            bne  r2, loop
            halt
        """
        sim = Simulation(memory_bytes=MEMORY, superblock=True)
        sim.spawn(sim.load(source),
                  regs={8: sim.allocate(256, eager=True).word})
        sim.run(101)  # the horizon lands mid-superblock, mid-loop
        assert sim.now == 101
        assert sim.chip.superblock_blocks > 0
        path = sim.save(tmp_path / "hot.snap")

        restored = Simulation.restore(path)
        assert restored.capture_state() == sim.capture_state()

        live = sim.run(100_000)
        back = restored.run(100_000)
        assert live.reason == back.reason == "halted"
        assert live.cycles == back.cycles
        # captured machine state — counters included — is exactly
        # equal; the memo tallies are host telemetry (the restored
        # machine re-warmed its memos from cold)
        assert architectural(sim.snapshot()) == \
            architectural(restored.snapshot())
        assert sim.capture_state() == restored.capture_state()

        # and the whole interrupted run matches one that never paused
        clean = Simulation(memory_bytes=MEMORY, superblock=False)
        clean.spawn(clean.load(source),
                    regs={8: clean.allocate(256, eager=True).word})
        clean.run(100_000)
        assert clean.now == sim.now
