"""RegisterFile.land — the one bank-dispatching write used by commits,
HALT and landing loads on every executor path."""

from repro.core.word import TaggedWord
from repro.machine.registers import RegisterFile


def test_land_dispatches_banks_in_order():
    regs = RegisterFile()
    regs.land([("r", 3, TaggedWord.integer(7)), ("f", 2, 1),
               ("r", 3, TaggedWord.integer(9))])
    assert regs.read(3) == TaggedWord.integer(9)   # later write wins
    assert regs.read_f(2) == 1.0 and isinstance(regs.read_f(2), float)
    assert regs.read(2) == TaggedWord.zero()       # banks stay apart


def test_land_matches_single_writes():
    writes = [("r", i, TaggedWord.integer(i * 11)) for i in range(16)]
    writes += [("f", i, i / 4) for i in range(16)]
    landed, stepped = RegisterFile(), RegisterFile()
    landed.land(writes)
    for bank, index, value in writes:
        if bank == "r":
            stepped.write(index, value)
        else:
            stepped.write_f(index, value)
    assert landed.snapshot() == stepped.snapshot()
    landed.land(())
    assert landed.snapshot() == stepped.snapshot()
