"""One MAP cluster: an integer, a memory and a floating-point unit fed
by up to four resident threads (§3, Figure 5).

Every cycle the cluster wakes any threads whose memory operations have
completed, selects one ready thread round-robin, and issues its current
bundle to the three units.  All guarded-pointer checks (§2.2) happen
here, *before* an operation reaches the memory system:

* the integer unit checks jump targets (enter→execute conversion);
* the memory unit checks tag, permission and segment bounds on every
  load, store and pointer-manipulation op;
* nothing downstream re-checks anything.

Fault atomicity: a bundle commits no architectural state unless every
operation in it passes its checks, so a faulted bundle can simply be
re-executed after the kernel repairs the cause.  Operations are
evaluated int → fp → mem, with the memory access — the only operation
with a side effect beyond registers — performed last.

Every bundle issues through its *compiled node* (``docs/PERF.md`` §6):
one closure per live op, built once per decoded bundle from the op
table :attr:`Cluster.NODE_BUILDERS` (slot → opcode → builder) and kept
in the bundle's decode-cache entry.  That table is the only definition
of op semantics the chip executes.  :meth:`Cluster._run_nodes` is the
only issue body: the per-cycle path calls it for one cycle, superblock
turbo for a whole straight-line stretch.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core import operations as ops
from repro.core.constants import ADDRESS_MASK as _ADDRESS_MASK
from repro.core.constants import WORD_MASK as _WORD_MASK
from repro.core.exceptions import (
    FetchPending,
    GuardedPointerFault,
    PermissionFault,
    RestrictFault,
)
from repro.core.permissions import Permission
from repro.core.pointer import GuardedPointer
from repro.core.word import TaggedWord, to_s64
from repro.machine.disasm import disassemble_bundle
from repro.machine.faults import FaultRecord, TrapFault
from repro.machine.isa import BUNDLE_BYTES, Bundle, Opcode, Operation, Slot
from repro.machine.registers import float_to_word, saturating_ftoi, word_to_float
from repro.machine.thread import REMOTE_WAIT, Thread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.chip import MAPChip


class _Halt(Exception):
    """Internal: bundle executed a HALT."""


def _halt(thread, regs, commits, now):
    """HALT's node closure: the halt sentinel, finished by the issuer."""
    return _Halt


#: a memory-slot node's "no blocking, nothing pending" result
_NO_BLOCK = (None, ())


def _ieee_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (b >= 0) else -math.inf


_INT_ALU = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
    Opcode.SLT: lambda a, b: int(to_s64(a) < to_s64(b)),
    Opcode.SEQ: lambda a, b: int(a == b),
}

_INT_ALU_IMM = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.SUBI: Opcode.SUB,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SHLI: Opcode.SHL,
    Opcode.SHRI: Opcode.SHR,
    Opcode.SLTI: Opcode.SLT,
    Opcode.SEQI: Opcode.SEQ,
}

_FP_ALU = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: _ieee_div,
}


class Cluster:
    """Thread slots plus the three execution units."""

    def __init__(self, cluster_id: int, chip: "MAPChip", slots: int = 4):
        self.cluster_id = cluster_id
        self.chip = chip
        self.slots: list[Thread | None] = [None] * slots
        self._next_slot = 0  # round-robin cursor
        self.last_domain: int | None = None
        self._stall_until = 0
        #: thread waiting out a domain-switch drain; it issues first
        #: when the drain ends
        self._pending: Thread | None = None
        self.issued_cycles = 0
        self.idle_cycles = 0
        self.switch_stall_cycles = 0
        #: incremental per-state occupancy of this cluster's slots; kept
        #: exact by add/remove_thread and by Thread.state's setter, so
        #: the chip's run loop never rescans threads to learn liveness
        #: (plain ints, not an enum-keyed dict — these are read every
        #: cycle and the chip mirrors ready/runnable totals chip-wide)
        self._n_ready = 0
        self._n_blocked = 0
        self._n_faulted = 0
        self._n_halted = 0
        #: tid of the last thread this cluster issued from (trace-only:
        #: feeds the ``thread.switch`` event, never read by the model)
        self._last_tid: int | None = None
        #: scratch list for a compiled node's register commits
        self._commits: list[tuple[str, int, object]] = []

    # -- thread management ------------------------------------------------

    def add_thread(self, thread: Thread) -> int:
        for i, slot in enumerate(self.slots):
            if slot is None:
                return self._install(i, thread)
        # a halted thread's slot can be reused: its architectural state
        # is dead and system software would have reaped it
        for i, slot in enumerate(self.slots):
            if slot is not None and slot.state is ThreadState.HALTED:
                self._evict(slot)
                return self._install(i, thread)
        raise RuntimeError(f"cluster {self.cluster_id} has no free thread slot")

    def _install(self, index: int, thread: Thread) -> int:
        self.slots[index] = thread
        self._count(thread._state, +1)
        thread.scheduler = self
        return index

    def _evict(self, thread: Thread) -> None:
        self._count(thread._state, -1)
        thread.scheduler = None

    def remove_thread(self, thread: Thread) -> None:
        for i, slot in enumerate(self.slots):
            if slot is thread:
                self._evict(slot)
                self.slots[i] = None
                return
        raise ValueError("thread is not resident on this cluster")

    def live_threads(self) -> list[Thread]:
        return [t for t in self.slots if t is not None]

    # -- scheduler bookkeeping ---------------------------------------------

    def _count(self, state: ThreadState, delta: int) -> None:
        """Adjust this cluster's (and the chip's) occupancy counts."""
        if state is ThreadState.READY:
            self._n_ready += delta
            chip = self.chip
            chip._ready_count += delta
            chip._runnable_count += delta
        elif state is ThreadState.BLOCKED:
            self._n_blocked += delta
            self.chip._runnable_count += delta
        elif state is ThreadState.FAULTED:
            self._n_faulted += delta
        else:
            self._n_halted += delta

    def on_state_change(self, thread: Thread, old: ThreadState,
                        new: ThreadState) -> None:
        """Thread.state's setter reports every transition here."""
        self._count(old, -1)
        self._count(new, +1)

    @property
    def faulted_count(self) -> int:
        return self._n_faulted

    @property
    def active_count(self) -> int:
        """Occupied slots whose thread has not halted (spawn placement)."""
        return self._n_ready + self._n_blocked + self._n_faulted

    def next_wake(self) -> int | None:
        """Earliest wake cycle among blocked threads, or None."""
        wake = None
        for thread in self.slots:
            if thread is not None and thread._state is ThreadState.BLOCKED:
                if wake is None or thread.wake_at < wake:
                    wake = thread.wake_at
        return wake

    def as_counters(self) -> dict[str, int]:
        """This cluster's view for :class:`~repro.machine.counters.PerfCounters`."""
        return {
            "issued": self.issued_cycles,
            "idle": self.idle_cycles,
            "switch_stalls": self.switch_stall_cycles,
            "occupied_slots": sum(1 for t in self.slots if t is not None),
        }

    # -- per-cycle issue ----------------------------------------------------

    def step(self, now: int) -> bool:
        """Run one cycle; returns True when a bundle issued."""
        if self._n_blocked:
            for thread in self.slots:
                if (thread is not None
                        and thread._state is ThreadState.BLOCKED
                        and now >= thread.wake_at):
                    thread.maybe_wake(now)

        if now < self._stall_until:
            self.switch_stall_cycles += 1
            return False

        if self._pending is not None and self._pending._state is ThreadState.READY:
            thread = self._pending
            self._pending = None
        else:
            self._pending = None
            thread = self._select(now)
        if thread is None:
            self.idle_cycles += 1
            return False

        # E5 contrast knob: a conventional machine pays to interleave
        # threads from different protection domains.  Guarded pointers
        # leave this at zero.
        penalty = self.chip.config.domain_switch_penalty
        if penalty and self.last_domain is not None and thread.domain != self.last_domain:
            self._stall_until = now + penalty
            self._pending = thread  # issues as soon as the drain ends
            self.last_domain = thread.domain
            if self.chip.config.flush_on_domain_switch:
                self.chip.tlb.flush()
                self.chip.cache.flush()
            self.switch_stall_cycles += 1
            return False
        self.last_domain = thread.domain

        obs = self.chip.obs
        if obs.hot and thread.tid != self._last_tid:
            obs.emit("thread.switch", now, cluster=self.cluster_id,
                     tid=thread.tid, from_tid=self._last_tid)
        self._last_tid = thread.tid

        if self._run_nodes(thread, now, now + 1):
            self.issued_cycles += 1
            return True
        # the fetch is waiting on remote code words (FetchPending):
        # nothing issued; the cycle is idle like any other stall
        self.idle_cycles += 1
        return False

    def _select(self, now: int) -> Thread | None:
        n = len(self.slots)
        for i in range(n):
            index = (self._next_slot + i) % n
            thread = self.slots[index]
            if thread is not None and thread._state is ThreadState.READY:
                self._next_slot = (index + 1) % n
                return thread
        return None

    # -- pointer derivation and address checks --------------------------------

    def _lea(self, word: TaggedWord, offset: int):
        """LEA through the chip's derivation memo.

        ``ops.lea`` is a pure function of the pointer's bits and the
        offset — the same (word, offset) pair always yields the same
        (immutable) pointer, independent of any page-table or memory
        state — so successful derivations are memoized chip-wide.  IP
        advance, branch targets and load/store address arithmetic all
        come through here.  Faulting derivations are never cached, and
        untagged words bypass the memo (a pointer and an integer can
        share a bit pattern).
        """
        cache = self.chip._lea_cache
        if cache is None or not word.tag:
            return ops.lea(word, offset)
        key = (word.value, offset)
        ptr = cache.get(key)
        if ptr is None:
            ptr = ops.lea(word, offset)
            cache[key] = ptr
        return ptr

    def _mem_address(self, word: TaggedWord, offset: int, *, write: bool) -> int:
        """The checked virtual address of a load/store, through the
        chip's access-check memo.

        The whole derivation — LEA bounds, tag check, READ/WRITE
        permission — is a pure function of (pointer bits, offset): none
        of it consults the page table or memory.  So once a (word,
        offset) pair has passed, a later access through the *same*
        pointer word is a single dictionary probe; that is the paper's
        thesis applied to the data path (checks resolve once, nothing
        downstream re-walks).  A different pointer word — even to the
        same address — takes the full check path.  Faulting derivations
        are never cached, and untagged words bypass the memo (a pointer
        and an integer can share a bit pattern).
        """
        chip = self.chip
        memo = chip._store_check_memo if write else chip._load_check_memo
        if memo is None or not word.tag:
            ptr = self._lea(word, offset)
            (ops.check_store if write else ops.check_load)(ptr.word)
            return ptr.address
        key = (word.value, offset)
        vaddr = memo.get(key)
        if vaddr is not None:
            chip.check_memo_hits += 1
            return vaddr
        ptr = self._lea(word, offset)
        (ops.check_store if write else ops.check_load)(ptr.word)
        chip.check_memo_misses += 1
        memo[key] = ptr.address
        return ptr.address

    # -- the issue body ----------------------------------------------------------

    def _run_nodes(self, thread: Thread, start: int, end: int,
                   bulk: bool = False) -> int:
        """Issue ``thread``'s bundles through their compiled nodes for
        cycles ``[start, end)``; returns the cycles consumed.  The one
        issue body: the per-cycle path calls it for a single cycle,
        superblocks (``bulk``) for a whole stretch.

        A bundle's node sits in its decode-cache entry.  When the probe
        misses on a call's first bundle (not decoded yet, or a new
        pointer word to the address), the bundle goes through
        :meth:`MAPChip.fetch` — checks, translation, decode — and its
        node is built from the result: stored in the entry, or used
        once when the decode cache is off.  A fetch waiting on remote
        code words (``FetchPending``) blocks the thread and issues
        nothing (returns 0); any other fetch error faults at site
        ``"fetch"``.  A miss later in a stretch ends it, because
        ``chip.now`` is current only at a call's first bundle.  Bulk
        calls never fetch, and a TRAP ends a bulk stretch before it
        (the trap committed nothing): a trap handler may ready threads
        on clusters that step later in the same cycle, so trap
        dispatch runs per cycle.

        Per bundle it charges the fetch hit, the register commit, the
        IP advance, the blocking-load scoreboard (a local stall or a
        remote wait), HALT's final state and event, and the fault site.
        The per-bundle totals (fetch hits, the thread's bundle and op
        counts) are settled on exit, before the fault handler or the
        halt event can observe them.  It stops after the cycle in which
        the thread faults, halts or blocks.  While a hot sink listens
        (``obs.hot``; superblocks are off then) each bundle emits its
        ``bundle`` event before it runs.
        """
        chip = self.chip
        cache = chip._decode_cache
        obs = chip.obs
        hot = obs.hot
        regs = thread.regs
        stats = thread.stats
        commits = self._commits
        bundles = 0   # committed bundles (a faulting one commits nothing)
        ops = 0
        fetched = 0   # 1 when the first bundle came through chip.fetch
        fault = None
        halted = False
        now = start
        while now < end:
            ip = thread.ip
            word = ip.word.value
            address = word & _ADDRESS_MASK
            entry = cache.get(address)
            if entry is not None and entry[1] == word:
                node = entry[2]
                if node is None:
                    node = self._compile_node(entry[0], ip)
                    cache[address] = (entry[0], word, node)
            elif bulk or now != start:
                break
            else:
                fetched = 1
                try:
                    bundle = chip.fetch(ip)
                except FetchPending as pend:
                    # remote code words were requested at the window
                    # barrier; the thread blocks until they land and
                    # the fetch retries
                    thread.block_until(pend.resume_at)
                    return 0
                except Exception as cause:  # decode/translation failure
                    fault = (cause, "fetch")
                    now += 1
                    break
                node = self._compile_node(bundle, ip)
                if chip._decode_enabled:
                    cache[address] = (bundle, word, node)
            bundle, int_fn, fp_fn, mem_fn, next_ip, live = node
            if hot:
                obs.emit("bundle", now, cluster=self.cluster_id,
                         tid=thread.tid, address=ip.address,
                         priv=thread.privileged,
                         text=disassemble_bundle(bundle))
            commits.clear()
            branch_target = None
            block_until = None
            pending = None
            try:
                if int_fn is not None:
                    branch_target = int_fn(thread, regs, commits, now)
                if fp_fn is not None:
                    fp_fn(thread, regs, commits, now)
                if mem_fn is not None:
                    block_until, pending = mem_fn(thread, regs, commits, now)
            except GuardedPointerFault as cause:
                if bulk and isinstance(cause, TrapFault):
                    break
                # the faulting cycle still elapses and the bundle still
                # issues (fetch hit, then the unit faulted), but it
                # commits nothing
                fault = (cause, self._fault_site(bundle, cause))
                now += 1
                break
            regs.land(commits)
            bundles += 1
            ops += live
            now += 1
            if branch_target is not None:
                if branch_target is _Halt:
                    # a halting bundle still commits everything it did:
                    # a blocking load sharing the bundle with HALT lands
                    # its register write before the state goes final
                    if pending:
                        regs.land(pending)
                    halted = True
                    break
                thread.ip = branch_target
            elif next_ip is not None:
                thread.ip = next_ip
            else:
                # the fall-through derivation faulted at node-build
                # time; re-derive live (pure, so it faults identically)
                try:
                    thread.ip = self._lea(ip.word, BUNDLE_BYTES)
                except GuardedPointerFault as cause:
                    fault = (cause, "ip-advance")
                    break
            if block_until is not None and block_until > now:
                thread.pending_writes.extend(pending)
                if block_until != REMOTE_WAIT:
                    # a remote load's stall is charged at the window
                    # barrier, which computes its true reply cycle
                    stats.stall_cycles += block_until - now
                thread.block_until(block_until)
                break
            if pending:
                regs.land(pending)
        issued = now - start
        if issued:
            # chip.fetch counted its own hit or miss
            chip.fetch_hits += issued - fetched
            stats.bundles += bundles
            stats.operations += ops
            if fault is not None:
                chip.now = now - 1
                self._fault(thread, fault[0], fault[1], now - 1)
            elif halted:
                thread.state = ThreadState.HALTED
                thread.halted_at = now - 1
                if obs.enabled:
                    obs.emit("thread.halt", now - 1, cluster=self.cluster_id,
                             tid=thread.tid, bundles=stats.bundles)
        return issued

    def run_superblock(self, thread: Thread, start: int, end: int) -> int:
        """Execute ``thread``'s bundles for cycles ``[start, end)`` in
        one dispatch; returns the cycles consumed.

        The chip has proven (in :meth:`MAPChip._run_superblock`) that
        nothing else can act before ``end``, so this is exactly the
        per-cycle path with the invariant parts hoisted: scheduling
        collapses to "this thread again", fetch collapses to a node
        probe, and cycle/issue/idle accounting is settled in bulk at
        exit.  The bundles issue through :meth:`_run_nodes`, the same
        body the per-cycle path uses, so cycle counts, counters and
        trace events are bit-identical to the knob being off.
        """
        issued = self._run_nodes(thread, start, end, bulk=True)
        if issued:
            self._sb_exit(thread, start, start + issued)
        return issued

    def _sb_exit(self, thread: Thread, start: int, end: int) -> None:
        """Settle the bulk accounting for a superblock spanning cycles
        ``[start, end)`` — every per-cycle total a stepped run would
        have accumulated over the same stretch, applied at once (the
        per-bundle totals were charged by :meth:`_run_nodes`)."""
        n = end - start
        chip = self.chip
        chip.now = end
        chip.stats.cycles += n
        # every superblock cycle issued a bundle (a faulting bundle
        # issues too; only the thread's commit stats skip it)
        chip.stats.issued_bundles += n
        chip.superblock_blocks += 1
        chip.superblock_bundles += n
        self.issued_cycles += n
        # scheduling bookkeeping a per-cycle run would have left behind
        self._next_slot = (self.slots.index(thread) + 1) % len(self.slots)
        self.last_domain = thread.domain
        self._last_tid = thread.tid
        for cl in chip.clusters:
            if cl is not self:
                cl.idle_cycles += n

    # -- the op table: one node builder per opcode and slot ------------------

    def _compile_node(self, bundle: Bundle, ip: GuardedPointer) -> tuple:
        """The compiled node of ``bundle``, fetched through ``ip``.

        A node is a pre-picked execution plan for one decoded bundle:
        each slot's op built into a closure by its slot's builder in
        :attr:`NODE_BUILDERS` (``None`` for a filler, which the issue
        body skips), the memoized fall-through IP, and the live-op
        count.  Whatever is a pure function of the op encoding and the
        bundle's (fixed) fetch pointer — ALU immediates, branch
        targets, MOVI's word, GETIP's result — resolves here, once, so
        issuing the node spends no cycles re-deciding what an op *is*.
        The caller keeps the node in the bundle's decode-cache entry
        beside the pointer word it was built through, so every
        invalidation that drops a decoded bundle drops its node, and a
        different pointer to the same address — which re-validates
        through :meth:`MAPChip.fetch` — gets a node of its own.  Nodes
        are chip-wide (a bundle may issue on any cluster), so closures
        bind only chip-level state; the issuing cluster is
        ``thread.scheduler``.

        Every closure takes ``(thread, regs, commits, now)`` and
        appends its register writes to ``commits``.  The integer slot's
        returns the branch target, the halt sentinel or None; the
        memory slot's returns ``(block_until, pending_writes)``.
        """
        table = self.NODE_BUILDERS
        int_op, mem_op, fp_op = bundle.int_op, bundle.mem_op, bundle.fp_op
        try:
            next_ip = self._lea(ip.word, BUNDLE_BYTES)
        except GuardedPointerFault:
            # fall-through runs off the code segment; the issue body
            # re-derives live so the fault raises exactly as stepping
            next_ip = None
        return (bundle,
                table[Slot.INT][int_op.opcode](self, int_op, ip),
                table[Slot.FP][fp_op.opcode](self, fp_op, ip),
                table[Slot.MEM][mem_op.opcode](self, mem_op, ip),
                next_ip, bundle.live_ops)

    def _filler(self, op: Operation, ip: GuardedPointer):
        """NOP and FNOP: no closure; the issue body skips the slot."""
        return None

    # the integer unit.  The ALU closures build TaggedWords the way the
    # frozen dataclass's own __init__ does (object.__setattr__), skipping
    # three Python calls per op.  Operands are read as ``.value``: an
    # ALU op untags its inputs, and untagging never changes the bits

    def _alu_node(self, op: Operation, ip: GuardedPointer):
        fn = _INT_ALU[op.opcode]
        ra, rb, rd = op.ra, op.rb, op.rd
        new = TaggedWord.__new__
        setattr_ = object.__setattr__

        def run(thread, regs, commits, now):
            word = new(TaggedWord)
            setattr_(word, "value",
                     fn(regs.read(ra).value, regs.read(rb).value) & _WORD_MASK)
            setattr_(word, "tag", False)
            commits.append(("r", rd, word))
            return None
        return run

    def _alu_imm_node(self, op: Operation, ip: GuardedPointer):
        fn = _INT_ALU[_INT_ALU_IMM[op.opcode]]
        b = op.imm & _WORD_MASK
        ra, rd = op.ra, op.rd
        new = TaggedWord.__new__
        setattr_ = object.__setattr__

        def run(thread, regs, commits, now):
            word = new(TaggedWord)
            setattr_(word, "value", fn(regs.read(ra).value, b) & _WORD_MASK)
            setattr_(word, "tag", False)
            commits.append(("r", rd, word))
            return None
        return run

    def _movi_node(self, op: Operation, ip: GuardedPointer):
        word = TaggedWord.integer(op.imm)
        rd = op.rd

        def run(thread, regs, commits, now):
            commits.append(("r", rd, word))
            return None
        return run

    def _mov_node(self, op: Operation, ip: GuardedPointer):
        # MOV preserves the tag: copying a pointer yields the pointer
        ra, rd = op.ra, op.rd

        def run(thread, regs, commits, now):
            commits.append(("r", rd, regs.read(ra)))
            return None
        return run

    def _isptr_node(self, op: Operation, ip: GuardedPointer):
        ra, rd = op.ra, op.rd
        ispointer = ops.ispointer

        def run(thread, regs, commits, now):
            commits.append(("r", rd, ispointer(regs.read(ra))))
            return None
        return run

    def _ip_relative(self, ip: GuardedPointer, imm: int):
        """The pointer ``imm`` bytes from the fetch pointer, derived at
        build time through the LEA memo (pure, so pre-deriving is
        invisible), or None when the derivation faults: then the node
        derives live, so the fault raises only when the op runs."""
        try:
            return self._lea(ip.word, imm)
        except GuardedPointerFault:
            return None

    def _branch_node(self, op: Operation, ip: GuardedPointer):
        """BR, and BEQ/BNE (taken when ``rd`` is zero / nonzero)."""
        code, rd, imm = op.opcode, op.rd, op.imm
        target = self._ip_relative(ip, imm)
        lea, base = self._lea, ip.word
        if code is Opcode.BR:
            if target is None:
                def run(thread, regs, commits, now):
                    return lea(base, imm)
            else:
                def run(thread, regs, commits, now):
                    return target
            return run
        want_zero = code is Opcode.BEQ
        if target is None:
            def run(thread, regs, commits, now):
                value = regs.read(rd).value
                if (value == 0) if want_zero else (value != 0):
                    return lea(base, imm)
                return None
        else:
            def run(thread, regs, commits, now):
                value = regs.read(rd).value
                taken = (value == 0) if want_zero else (value != 0)
                return target if taken else None
        return run

    def _getip_node(self, op: Operation, ip: GuardedPointer):
        rd, imm = op.rd, op.imm
        target = self._ip_relative(ip, imm)
        if target is None:
            lea, base = self._lea, ip.word

            def run(thread, regs, commits, now):
                commits.append(("r", rd, lea(base, imm).word))
                return None
        else:
            result = target.word

            def run(thread, regs, commits, now):
                commits.append(("r", rd, result))
                return None
        return run

    def _jmp_node(self, op: Operation, ip: GuardedPointer):
        """JMP.  ``check_jump`` is a pure function of the tagged target
        word (enter→execute conversion included), so a passed check is
        memoized chip-wide together with the target's decoded
        permission; faulting targets are never cached and untagged
        words always take the full check.  The jump auditor and the
        enter-call tracker still see every jump."""
        chip = self.chip
        memo = chip._jump_memo
        obs = chip.obs
        check_jump = ops.check_jump
        from_word = GuardedPointer.from_word
        ra = op.ra

        def run(thread, regs, commits, now):
            target = regs.read(ra)
            hit = (memo.get(target.value)
                   if memo is not None and target.tag else None)
            if hit is None:
                new_ip = check_jump(target, thread.privileged)
                perm = from_word(target).permission
                if memo is not None:
                    memo[target.value] = (new_ip, perm)
            else:
                new_ip, perm = hit
            auditor = chip.jump_auditor
            if auditor is not None:
                auditor(thread, from_word(target), new_ip, now)
            if obs.enabled:
                obs.note_jump(thread, target, new_ip, now,
                              cluster=thread.scheduler.cluster_id,
                              target_perm=perm)
            return new_ip
        return run

    def _halt_node(self, op: Operation, ip: GuardedPointer):
        """HALT returns the halt sentinel; :meth:`_run_nodes` finishes
        the thread."""
        return _halt

    def _trap_node(self, op: Operation, ip: GuardedPointer):
        code = op.imm

        def run(thread, regs, commits, now):
            raise TrapFault(code)
        return run

    # the floating-point unit

    def _fp_alu_node(self, op: Operation, ip: GuardedPointer):
        fn = _FP_ALU[op.opcode]
        ra, rb, rd = op.ra, op.rb, op.rd

        def run(thread, regs, commits, now):
            commits.append(("f", rd, fn(regs.read_f(ra), regs.read_f(rb))))
        return run

    def _fmov_node(self, op: Operation, ip: GuardedPointer):
        ra, rd = op.ra, op.rd

        def run(thread, regs, commits, now):
            commits.append(("f", rd, regs.read_f(ra)))
        return run

    def _itof_node(self, op: Operation, ip: GuardedPointer):
        ra, rd = op.ra, op.rd

        def run(thread, regs, commits, now):
            commits.append(("f", rd, float(regs.read(ra).as_signed())))
        return run

    def _ftoi_node(self, op: Operation, ip: GuardedPointer):
        ra, rd = op.ra, op.rd

        def run(thread, regs, commits, now):
            commits.append(("r", rd, TaggedWord.integer(
                saturating_ftoi(regs.read_f(ra)))))
        return run

    # the memory unit.  Loads and stores keep the exact per-execution
    # path: the access-check memo, then MAPChip.access_memory (the
    # store's decoded-bundle invalidation, the banked cache's timing,
    # the mesh route for remote addresses) and the load-to-use histogram

    def _load_node(self, op: Operation, ip: GuardedPointer):
        """LD/LDF.  A remote load binds its destination register and
        returns the ``REMOTE_WAIT`` sentinel: the window barrier
        resolves the value and the true latency (the histogram is
        charged then too)."""
        chip = self.chip
        mem_address = self._mem_address
        access = chip.access_memory
        obs = chip.obs
        load_to_use = obs.load_to_use.add
        is_ld = op.opcode is Opcode.LD
        bank = "r" if is_ld else "f"
        ra, rd, imm = op.ra, op.rd, op.imm

        def run(thread, regs, commits, now):
            vaddr = mem_address(regs.read(ra), imm, write=False)
            result = access(vaddr, write=False, now=now)
            ready = result.ready_cycle
            if ready == REMOTE_WAIT:
                chip.router.bind_remote_load(chip, thread.tid, bank, rd)
                return REMOTE_WAIT, ()
            if obs.enabled:
                load_to_use(ready - now)
            if is_ld:
                write = ("r", rd, result.word)
            else:
                write = ("f", rd, word_to_float(result.word))
            return ready, (write,)
        return run

    def _store_node(self, op: Operation, ip: GuardedPointer):
        """ST/STF: stores are buffered, the thread proceeds."""
        mem_address = self._mem_address
        access = self.chip.access_memory
        is_st = op.opcode is Opcode.ST
        ra, rd, imm = op.ra, op.rd, op.imm

        def run(thread, regs, commits, now):
            vaddr = mem_address(regs.read(ra), imm, write=True)
            if is_st:
                value = regs.read(rd)
            else:
                value = float_to_word(regs.read_f(rd))
            access(vaddr, write=True, now=now, value=value)
            return _NO_BLOCK
        return run

    def _lea_node(self, op: Operation, ip: GuardedPointer):
        """LEA/LEAB by an immediate, LEAR/LEABR by a register offset;
        LEA and LEAR derive through the LEA memo."""
        code, ra, rb, rd, imm = op.opcode, op.ra, op.rb, op.rd, op.imm
        derive = self._lea if code in (Opcode.LEA, Opcode.LEAR) else ops.leab
        if code in (Opcode.LEA, Opcode.LEAB):
            def run(thread, regs, commits, now):
                commits.append(("r", rd, derive(regs.read(ra), imm).word))
                return _NO_BLOCK
        else:
            def run(thread, regs, commits, now):
                offset = to_s64(regs.read(rb).value)
                commits.append(("r", rd, derive(regs.read(ra), offset).word))
                return _NO_BLOCK
        return run

    def _setptr_node(self, op: Operation, ip: GuardedPointer):
        ra, rd = op.ra, op.rd
        setptr = ops.setptr

        def run(thread, regs, commits, now):
            forged = setptr(regs.read(ra), privileged=thread.privileged)
            commits.append(("r", rd, forged.word))
            return _NO_BLOCK
        return run

    def _restrict_node(self, op: Operation, ip: GuardedPointer):
        ra, rb, rd = op.ra, op.rb, op.rd
        restrict = ops.restrict

        def run(thread, regs, commits, now):
            perm_code = regs.read(rb).value
            try:
                perm = Permission(perm_code)
            except ValueError:
                raise RestrictFault(
                    f"not a permission code: {perm_code}") from None
            commits.append(("r", rd, restrict(regs.read(ra), perm).word))
            return _NO_BLOCK
        return run

    def _subseg_node(self, op: Operation, ip: GuardedPointer):
        ra, rb, rd = op.ra, op.rb, op.rd
        subseg = ops.subseg

        def run(thread, regs, commits, now):
            length = regs.read(rb).value
            commits.append(("r", rd, subseg(regs.read(ra), length).word))
            return _NO_BLOCK
        return run

    #: the op table: slot -> opcode -> node builder, covering every
    #: opcode in ``isa.OP_INFO`` (the memory slot also takes NOP, its
    #: filler).  This is the one definition of op semantics the chip
    #: executes; ``ReferenceInterpreter`` is the independent oracle.
    NODE_BUILDERS = {
        Slot.INT: {
            Opcode.NOP: _filler,
            **dict.fromkeys(_INT_ALU, _alu_node),
            **dict.fromkeys(_INT_ALU_IMM, _alu_imm_node),
            Opcode.MOVI: _movi_node,
            Opcode.MOV: _mov_node,
            Opcode.ISPTR: _isptr_node,
            Opcode.BR: _branch_node,
            Opcode.BEQ: _branch_node,
            Opcode.BNE: _branch_node,
            Opcode.JMP: _jmp_node,
            Opcode.GETIP: _getip_node,
            Opcode.HALT: _halt_node,
            Opcode.TRAP: _trap_node,
        },
        Slot.MEM: {
            Opcode.NOP: _filler,
            Opcode.LD: _load_node,
            Opcode.LDF: _load_node,
            Opcode.ST: _store_node,
            Opcode.STF: _store_node,
            **dict.fromkeys((Opcode.LEA, Opcode.LEAR, Opcode.LEAB,
                             Opcode.LEABR), _lea_node),
            Opcode.SETPTR: _setptr_node,
            Opcode.RESTRICT: _restrict_node,
            Opcode.SUBSEG: _subseg_node,
        },
        Slot.FP: {
            Opcode.FNOP: _filler,
            **dict.fromkeys(_FP_ALU, _fp_alu_node),
            Opcode.FMOV: _fmov_node,
            Opcode.ITOF: _itof_node,
            Opcode.FTOI: _ftoi_node,
        },
    }

    # -- fault plumbing ------------------------------------------------------

    @staticmethod
    def _fault_site(bundle: Bundle, cause: Exception) -> str:
        if isinstance(cause, TrapFault):
            return "trap"
        for op in bundle.operations:
            if op.opcode not in (Opcode.NOP, Opcode.FNOP):
                return op.opcode.name.lower()
        return "bundle"

    def _fault(self, thread: Thread, cause: Exception, site: str, now: int) -> None:
        if not isinstance(cause, GuardedPointerFault):
            cause = PermissionFault(f"{type(cause).__name__}: {cause}")
        record = FaultRecord(
            thread_id=thread.tid,
            cycle=now,
            cause=cause,
            opcode_name=site,
            ip_address=thread.ip.address,
        )
        thread.record_fault(record)
        self.chip.report_fault(record, thread)
