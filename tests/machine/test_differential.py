"""Differential testing: the pipelined chip vs the sequential reference.

Random programs (straight-line arithmetic, memory traffic against a
data segment, FP work, bounded loops) run on both engines; final
architectural state must match exactly.  Divergence means a pipeline
bug — commit ordering, deferred load writeback, or IP handling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.machine.assembler import assemble
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.cluster import Cluster
from repro.machine.faults import TrapFault
from repro.machine.isa import OP_INFO, Opcode, Slot
from repro.machine.reference import ReferenceInterpreter
from repro.machine.thread import ThreadState

CODE_BASE = 0x10000
DATA_BASE = 0x40000
DATA_SEGLEN = 12  # 4096 bytes


def run_both(source, fregs=None):
    """Run on chip and reference with the same initial state; return
    (thread, reference)."""
    program = assemble(source)

    chip = MAPChip(ChipConfig(memory_bytes=2 * 1024 * 1024))
    chip.page_table.ensure_mapped(CODE_BASE, max(program.size_bytes, 8))
    for i, word in enumerate(program.encode()):
        chip.memory.store_word(chip.page_table.walk(CODE_BASE + i * 8), word)
    chip.page_table.ensure_mapped(DATA_BASE, 1 << DATA_SEGLEN)
    from repro.mem.allocator import round_up_log2
    seglen = max(round_up_log2(max(program.size_bytes, 1)), 3)
    entry = GuardedPointer.make(Permission.EXECUTE_USER, seglen, CODE_BASE)
    data = GuardedPointer.make(Permission.READ_WRITE, DATA_SEGLEN, DATA_BASE)
    thread = chip.spawn(entry, regs={8: data.word})
    if fregs:
        for i, v in fregs.items():
            thread.regs.write_f(i, v)

    ref = ReferenceInterpreter()
    ref.load_program(program, CODE_BASE)
    ref.regs.write(8, data.word)
    if fregs:
        for i, v in fregs.items():
            ref.regs.write_f(i, v)

    chip_result = chip.run(max_cycles=200_000)
    ref_result = ref.run(max_bundles=100_000)
    return thread, chip_result, ref, ref_result, chip


def assert_same_state(thread, chip_result, ref, ref_result, chip):
    status = {"halted": "halted", "faulted": "faulted"}
    assert status.get(chip_result.reason) == ref_result.reason, (
        chip_result.reason, ref_result.reason, thread.fault, ref_result.fault)
    if ref_result.reason == "halted":
        for i in range(16):
            assert thread.regs.read(i) == ref.regs.read(i), f"r{i} differs"
        for i in range(16):
            a, b = thread.regs.read_f(i), ref.regs.read_f(i)
            assert a == b or (a != a and b != b), f"f{i} differs"
        # data memory must agree word for word
        for offset in range(0, 1 << DATA_SEGLEN, 8):
            vaddr = DATA_BASE + offset
            chip_word = chip.memory.load_word(chip.page_table.walk(vaddr))
            assert chip_word == ref.load_word(vaddr), f"mem[{vaddr:#x}]"


#: FP unit, including IEEE division by zero (inf, -inf, nan), and the
#: FP load/store path
FP_PROGRAM = (
    "movi r1, 7\nmovi r2, 2\nitof f1, r1\nitof f2, r2\nfsub f3, f1, f2\n"
    "fadd f13, f1, f2\nfdiv f4, f1, f2\nfdiv f5, f1, f0\nfsub f6, f0, f1\nfdiv f7, f6, f0\n"
    "fdiv f9, f0, f0\nfmov f10, f4\nstf f4, r8, 0\nldf f11, r8, 0\n"
    "stf f7, r8, 8\nstf f9, r8, 16\nldf f12, r8, 16\nftoi r3, f5\nhalt")

#: shifts and compares, register and immediate forms
SHIFT_COMPARE_PROGRAM = (
    "movi r1, -5\nmovi r2, 3\nshl r3, r1, r2\nshr r4, r1, r2\n"
    "slt r5, r1, r2\nseq r6, r2, r2\nslt r7, r2, r1\nseq r9, r1, r2\n"
    "shli r10, r1, 60\nshri r11, r1, 1\nslti r12, r1, 0\nseqi r13, r2, 3\n"
    "halt")

#: hand-written programs that, with the fault-parity cases below, hold
#: every opcode of the ISA.  The reference interpreter is the second
#: implementation of op semantics the chip is checked against, but it
#: shares the ALU and FP tables (``_INT_ALU``/``_FP_ALU``) with the
#: chip, so :data:`LITERAL_RESULTS` pins their arithmetic by value
KNOWN_PROGRAMS = [
    "movi r1, 5\naddi r2, r1, 3\nhalt",
    "movi r1, 10\nloop:\nbeq r1, out\nsubi r1, r1, 1\nbr loop\nout:\nhalt",
    "movi r2, 3\nst r2, r8, 0\nld r3, r8, 0\nadd r4, r3, r3\nhalt",
    "movi r1, 6\nitof f1, r1\nfmul f2, f1, f1\nftoi r2, f2\nhalt",
    "lea r9, r8, 8\nst r8, r9, 0\nld r10, r9, 0\nisptr r11, r10\nhalt",
    # intra-bundle read-before-write
    "movi r1, 1\nmovi r2, 2\nadd r1, r1, r2 | st r1, r8, 0\nld r3, r8, 0\nhalt",
    # register-offset and base-relative derivation; derived pointers
    # are stored so the memory comparison checks their bits too
    "movi r1, 16\nlear r9, r8, r1\nst r1, r9, 0\nleab r10, r9, 8\n"
    "leabr r11, r9, r1\nld r2, r8, 16\nst r10, r8, 32\nst r11, r8, 40\n"
    "ld r3, r11, 0\nhalt",
    FP_PROGRAM,
    # GETIP builds a return-style execute pointer; JMP goes through it
    "getip r5, target\njmp r5\nmovi r1, 1\ntarget:\nmovi r2, 2\nhalt",
    SHIFT_COMPARE_PROGRAM,
    # the rest of the ALU, a register copy and a not-taken/taken BNE
    "movi r1, 12\nmovi r2, 10\nmul r3, r1, r2\nsub r4, r2, r1\n"
    "and r5, r1, r2\nor r6, r1, r2\nxor r7, r1, r2\nandi r9, r1, 4\n"
    "ori r10, r1, 1\nxori r11, r1, -1\nmov r12, r8\nbne r0, skip\n"
    "bne r1, skip\nmovi r13, 1\nskip:\nhalt",
    # RESTRICT to read-only, then load through it; SUBSEG to 64 bytes,
    # then store and reload through the smaller segment
    "movi r1, 0\nrestrict r9, r8, r1\nld r2, r9, 0\nmovi r3, 6\n"
    "subseg r10, r8, r3\nst r10, r8, 8\nld r4, r10, 8\nst r4, r10, 56\n"
    "halt",
]

#: literal results for the programs whose arithmetic the chip and the
#: reference compute with the same table entries: (r|f, index) -> value
#: (``nan`` matches any NaN)
LITERAL_RESULTS = {
    FP_PROGRAM: {
        ("f", 3): 5.0, ("f", 13): 9.0, ("f", 4): 3.5,
        ("f", 5): float("inf"), ("f", 6): -7.0, ("f", 7): float("-inf"),
        ("f", 9): float("nan"), ("f", 10): 3.5, ("f", 11): 3.5,
        ("f", 12): float("nan"),
    },
    SHIFT_COMPARE_PROGRAM: {
        ("r", 3): 0xFFFF_FFFF_FFFF_FFD8,   # -5 << 3
        ("r", 4): 0x1FFF_FFFF_FFFF_FFFF,   # logical -5 >> 3
        ("r", 5): 1, ("r", 6): 1, ("r", 7): 0, ("r", 9): 0,
        ("r", 10): 0xB000_0000_0000_0000,  # -5 << 60
        ("r", 11): 0x7FFF_FFFF_FFFF_FFFD,  # logical -5 >> 1
        ("r", 12): 1, ("r", 13): 1,
    },
}

#: the fault-parity programs (TestKnownPrograms.test_fault_parity_*)
FAULT_PROGRAMS = {
    "out_of_bounds": "ld r2, r8, 8192\nhalt",
    "bad_jump": "jmp r8\nhalt",
    "setptr_unprivileged": "movi r1, 4\nsetptr r2, r1\nhalt",
    "trap": "movi r1, 1\ntrap 3\nhalt",
}


class TestKnownPrograms:
    @pytest.mark.parametrize("source", KNOWN_PROGRAMS)
    def test_matches_reference(self, source):
        thread, chip_result, ref, ref_result, chip = run_both(source)
        assert_same_state(thread, chip_result, ref, ref_result, chip)
        for (bank, index), want in LITERAL_RESULTS.get(source, {}).items():
            got = (thread.regs.read(index).value if bank == "r"
                   else thread.regs.read_f(index))
            assert got == want or (want != want and got != got), \
                f"{bank}{index} = {got!r}, want {want!r}"

    def test_programs_cover_every_opcode(self):
        reached = {op.opcode
                   for source in KNOWN_PROGRAMS + list(FAULT_PROGRAMS.values())
                   for bundle in assemble(source).bundles
                   for op in bundle.operations}
        assert reached == set(OP_INFO)

    def test_fault_parity_out_of_bounds(self):
        thread, cr, ref, rr, chip = run_both(FAULT_PROGRAMS["out_of_bounds"])
        assert cr.reason == "faulted" and rr.reason == "faulted"
        assert type(thread.fault.cause) is type(rr.fault)

    def test_fault_parity_bad_jump(self):
        thread, cr, ref, rr, chip = run_both(FAULT_PROGRAMS["bad_jump"])
        assert cr.reason == "faulted" and rr.reason == "faulted"

    def test_fault_parity_setptr_unprivileged(self):
        thread, cr, ref, rr, chip = run_both(
            FAULT_PROGRAMS["setptr_unprivileged"])
        assert cr.reason == "faulted" and rr.reason == "faulted"

    def test_fault_parity_trap(self):
        # no kernel: the trap kills the thread, with r1 already committed
        thread, cr, ref, rr, chip = run_both(FAULT_PROGRAMS["trap"])
        assert cr.reason == "faulted" and rr.reason == "faulted"
        assert type(thread.fault.cause) is type(rr.fault) is TrapFault
        assert thread.fault.cause.code == rr.fault.code == 3
        assert thread.fault.opcode_name == "trap"
        assert rr.bundles == thread.stats.bundles == 1
        assert thread.regs.read(1) == ref.regs.read(1)


class TestOpTable:
    def test_every_opcode_has_a_builder_in_its_slot(self):
        for opcode, (slot, _) in OP_INFO.items():
            assert opcode in Cluster.NODE_BUILDERS[slot], opcode.name
        # the memory slot's filler is the integer NOP
        assert Opcode.NOP in Cluster.NODE_BUILDERS[Slot.MEM]


# -- random program generation -----------------------------------------------

_SAFE_RRR = ["add", "sub", "mul", "and", "or", "xor", "slt", "seq"]
_SAFE_RRI = ["addi", "subi", "andi", "ori", "xori", "slti", "seqi"]
_FP_RRR = ["fadd", "fsub", "fmul"]

# computation registers r1..r7; r8 = data pointer (never overwritten)
_regs = st.integers(min_value=1, max_value=7)
_fregs = st.integers(min_value=0, max_value=7)
_imm = st.integers(min_value=-1000, max_value=1000)
_offsets = st.integers(min_value=0, max_value=(1 << DATA_SEGLEN) // 8 - 1)


@st.composite
def random_line(draw):
    kind = draw(st.sampled_from(
        ["rrr", "rri", "movi", "mov", "ld", "st", "lea", "fp", "itof", "ftoi",
         "isptr", "leab", "restrict", "subseg"]))
    if kind == "rrr":
        op = draw(st.sampled_from(_SAFE_RRR))
        return f"{op} r{draw(_regs)}, r{draw(_regs)}, r{draw(_regs)}"
    if kind == "rri":
        op = draw(st.sampled_from(_SAFE_RRI))
        return f"{op} r{draw(_regs)}, r{draw(_regs)}, {draw(_imm)}"
    if kind == "movi":
        return f"movi r{draw(_regs)}, {draw(_imm)}"
    if kind == "mov":
        return f"mov r{draw(_regs)}, r{draw(_regs)}"
    if kind == "ld":
        return f"ld r{draw(_regs)}, r8, {draw(_offsets) * 8}"
    if kind == "st":
        return f"st r{draw(_regs)}, r8, {draw(_offsets) * 8}"
    if kind == "lea":
        # derive into r9..r11 so r8 stays pristine
        return f"lea r{draw(st.integers(min_value=9, max_value=11))}, r8, " \
               f"{draw(_offsets) * 8}"
    if kind == "fp":
        op = draw(st.sampled_from(_FP_RRR))
        return f"{op} f{draw(_fregs)}, f{draw(_fregs)}, f{draw(_fregs)}"
    if kind == "itof":
        return f"itof f{draw(_fregs)}, r{draw(_regs)}"
    if kind == "ftoi":
        return f"ftoi r{draw(_regs)}, f{draw(_fregs)}"
    if kind == "isptr":
        return f"isptr r{draw(_regs)}, r{draw(_regs)}"
    if kind == "leab":
        return f"leab r{draw(st.integers(min_value=9, max_value=11))}, r8, " \
               f"{draw(_offsets) * 8}"
    if kind == "restrict":
        # target permission may or may not be a legal restriction of
        # READ_WRITE: fault parity is part of what we check
        perm = draw(st.integers(min_value=0, max_value=8))
        reg = draw(_regs)
        return (f"movi r{reg}, {perm}\n"
                f"restrict r{draw(st.integers(min_value=9, max_value=11))}, "
                f"r8, r{reg}")
    if kind == "subseg":
        length = draw(st.integers(min_value=0, max_value=14))
        reg = draw(_regs)
        return (f"movi r{reg}, {length}\n"
                f"subseg r{draw(st.integers(min_value=9, max_value=11))}, "
                f"r8, r{reg}")
    raise AssertionError(kind)


@st.composite
def random_program(draw):
    lines = draw(st.lists(random_line(), min_size=1, max_size=40))
    # optionally wrap in a bounded countdown loop
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=5))
        body = "\n".join(lines)
        return (f"movi r12, {count}\n"
                f"top:\nbeq r12, out\n{body}\n"
                f"subi r12, r12, 1\nbr top\nout:\nhalt")
    return "\n".join(lines) + "\nhalt"


class TestRandomPrograms:
    @settings(max_examples=120, deadline=None)
    @given(random_program())
    def test_chip_matches_reference(self, source):
        assert_same_state(*run_both(source))

    @settings(max_examples=30, deadline=None)
    @given(random_program(),
           st.dictionaries(st.integers(min_value=0, max_value=7),
                           st.floats(allow_nan=False, allow_infinity=False,
                                     width=32),
                           max_size=4))
    def test_with_fp_initial_state(self, source, fregs):
        assert_same_state(*run_both(source, fregs=fregs))
