"""Documentation can't silently rot: every counter and event name the
machine emits must appear in the docs name tables.

Two sweeps feed the check:

* a **dynamic** sweep — representative workloads covering every
  subsystem the E1–E15 experiments exercise (issue, cache/TLB, faults,
  enter crossings, swap, mesh, migration) — collects real snapshot
  keys and real emitted event names;
* a **static** sweep greps every ``incr("...")`` literal in the source
  tree, catching counters the workloads happened not to trip.

Per-instance name components (``node<N>``, ``cluster<N>``,
``thread.<tid>``, ``fault.<ExceptionName>``, ``bucket<K>``,
``hist.<name>``) are normalized to the documented generic spellings.
"""

import re
from pathlib import Path

import pytest

from repro.machine.chip import ChipConfig
from repro.machine.network import MeshShape
from repro.obs import EVENT_NAMES, HISTOGRAM_NAMES, TraceSession
from repro.persist import MigrationService
from repro.runtime.process import ProcessManager
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

REPO = Path(__file__).resolve().parents[2]

DOC_FILES = ("docs/PERF.md", "docs/OBSERVABILITY.md")


def documented_names() -> set[str]:
    """Every backticked name in the docs' tables and prose (fenced
    code blocks removed first — they would mispair the backticks)."""
    names = set()
    for doc in DOC_FILES:
        text = (REPO / doc).read_text(encoding="utf-8")
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in re.finditer(r"`([^`\n]+)`", text):
            for part in match.group(1).split(" / "):
                names.add(part.strip())
    return names


def normalize(name: str) -> str:
    """A snapshot key as its documented generic spelling."""
    name = re.sub(r"^node\d+\.", "", name)
    name = re.sub(r"^cluster\d+\.", "cluster<N>.", name)
    name = re.sub(r"^thread\.\d+\.", "thread.<tid>.", name)
    name = re.sub(r"^fault\.[A-Z]\w*$", "fault.<ExceptionName>", name)
    name = re.sub(r"^(hist\.)\w+(\.)", r"\1<name>\2", name)
    name = re.sub(r"bucket\d+$", "bucket<K>", name)
    name = re.sub(r"sum\d+$", "sum<K>", name)
    return name


def documented(name: str, docs: set[str]) -> bool:
    normalized = normalize(name)
    if normalized in docs:
        return True
    # "hist.<name>.*"-style wildcard rows cover their whole prefix
    parts = normalized.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        if ".".join(parts[:cut]) + ".*" in docs:
            return True
    return False


def sweep_snapshot_and_events():
    """Run the representative workloads; return (counter keys, event
    names) actually produced."""
    keys: set[str] = set()
    events: set[str] = set()

    # single node: issue stream, cache/TLB misses, demand faults, swap
    sim = Simulation()
    swap = SwapManager(sim.kernel, swap_cycles=10)
    data = sim.allocate(4096, eager=True)
    page = sim.chip.page_table.page_of(data.segment_base)
    swap.swap_out(page)
    with TraceSession([sim.chip.obs]) as session:
        sim.spawn("""
            movi r2, 4
        loop:
            ld r3, r1, 0
            st r3, r1, 8
            subi r2, r2, 1
            bne r2, loop
            halt
        """, regs={1: data.word})
        sim.run()
        # an unhandled fault, for fault.* counters and events
        sim.spawn("movi r1, 3\nld r2, r1, 0\nhalt", stack_bytes=0)
        sim.run()
    keys |= set(sim.snapshot())
    events |= {e.name for e in session.events}
    events |= {e.name for e in sim.chip.obs.flight.events()}

    # enter-pointer crossing (E3's subsystem-call shape)
    from repro.machine.chip import MAPChip
    from repro.runtime.kernel import Kernel
    from repro.runtime.subsystem import ProtectedSubsystem

    kernel = Kernel(MAPChip(ChipConfig(memory_bytes=2 * 1024 * 1024)))
    gateway = ProtectedSubsystem.install(kernel, "entry:\n  jmp r15",
                                         privileged=True)
    caller = kernel.load_program(
        "getip r15, ret\njmp r1\nret:\nhalt")
    kernel.spawn(caller, regs={1: gateway.enter.word}, stack_bytes=0)
    kernel.run()
    keys |= set(kernel.chip.counters.snapshot())
    events |= {e.name for e in kernel.chip.obs.flight.events()}

    # mesh + migration (E15's multinode shape)
    page_bytes = 256
    sim = Simulation.mesh(MeshShape(2, 1, 1), page_bytes=page_bytes,
                          arena_order=24)
    process = ProcessManager(sim.kernels[0]).create("""
    entry:
        movi r3, 60
    spin:
        subi r3, r3, 1
        bne r3, spin
        ld r5, r1, 0
        addi r6, r5, 1
        st r6, r1, 8
        halt
    """)
    data = sim.kernels[0].allocate_segment(page_bytes, eager=True)
    process.segments.append(data)
    process.start(regs={1: data.word})
    sim.run(max_cycles=50)
    with sim.trace() as mesh_session:
        remote = sim.allocate(4096, node=1, eager=True)
        sim.chips[0].access_memory(remote.segment_base, write=False,
                                   now=sim.chips[0].now)
        MigrationService(sim.machine).migrate(process, destination=1)
        sim.run()
    events |= {e.name for e in mesh_session.events}
    keys |= set(sim.snapshot())
    for chip in sim.chips:
        events |= {e.name for e in chip.obs.flight.events()}

    return keys, events


def static_counter_literals() -> set[str]:
    """Every ``incr("name")`` literal in the source tree."""
    names = set()
    for path in (REPO / "src/repro").rglob("*.py"):
        for match in re.finditer(r'incr\(\s*"([^"]+)"',
                                 path.read_text(encoding="utf-8")):
            names.add(match.group(1))
    return names


@pytest.fixture(scope="module")
def sweep():
    return sweep_snapshot_and_events()


class TestNamesAreDocumented:
    def test_every_emitted_counter_is_in_the_docs(self, sweep):
        keys, _ = sweep
        docs = documented_names()
        missing = sorted(k for k in keys if not documented(k, docs))
        assert not missing, f"undocumented counters: {missing}"

    def test_every_static_counter_literal_is_in_the_docs(self):
        docs = documented_names()
        missing = sorted(n for n in static_counter_literals()
                         if not documented(n, docs))
        assert not missing, f"undocumented incr() literals: {missing}"

    def test_every_emitted_event_is_in_the_docs(self, sweep):
        _, emitted = sweep
        docs = documented_names()
        missing = sorted(n for n in emitted if n not in docs)
        assert not missing, f"undocumented events: {missing}"

    def test_every_taxonomy_event_is_in_the_docs_and_vice_versa(self):
        docs = documented_names()
        missing = sorted(n for n in EVENT_NAMES if n not in docs)
        assert not missing, f"EVENT_NAMES missing from docs: {missing}"

    def test_the_sweep_actually_covered_the_machine(self, sweep):
        """Guard the guard: the sweep must trip every subsystem, or the
        docs check proves nothing."""
        keys, emitted = sweep
        assert {"cache.misses", "tlb.misses", "chip.faults",
                "router.remote_reads", "migrate.pages"} <= \
            {normalize(k) for k in keys} | keys
        # every histogram fed at least once
        for name in HISTOGRAM_NAMES:
            assert keys & {f"hist.{name}.count"}, name
        # every cold event class observed, most hot ones too
        assert {"bundle", "fault.raise", "enter.call", "swap.in",
                "migrate.ship", "router.hop", "cache.miss_fill"} <= emitted
