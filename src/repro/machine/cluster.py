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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core import operations as ops
from repro.core.constants import ADDRESS_MASK as _SB_ADDRESS_MASK
from repro.core.constants import WORD_MASK as _SB_WORD_MASK
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
from repro.machine.isa import BUNDLE_BYTES, Bundle, Opcode, Operation
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
    def ready_count(self) -> int:
        return self._n_ready

    @property
    def runnable_count(self) -> int:
        """Threads that can still make progress (ready or blocked)."""
        return self._n_ready + self._n_blocked

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

        chip = self.chip
        obs = chip.obs
        if obs.hot and thread.tid != self._last_tid:
            obs.emit("thread.switch", now, cluster=self.cluster_id,
                     tid=thread.tid, from_tid=self._last_tid)
        self._last_tid = thread.tid

        # a decoded bundle issues through its compiled node, the body
        # superblocks run too (hot tracing wants the per-bundle
        # executor's ``bundle`` event, so it skips the nodes)
        if (chip._node_issue and not obs.hot
                and self._run_nodes(thread, now, now + 1)):
            chip.node_bundles += 1
            self.issued_cycles += 1
            return True
        if self._execute_bundle(thread, now):
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

    # -- bundle execution ----------------------------------------------------

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

    def _execute_bundle(self, thread: Thread, now: int) -> bool:
        """Execute one bundle; returns True when the bundle issued (a
        faulting bundle issues too), False when the fetch is stalled on
        remote code words and nothing happened this cycle."""
        try:
            bundle = self.chip.fetch(thread.ip)
        except FetchPending as pend:
            # remote code words were requested at the window barrier;
            # the thread blocks until they land and the fetch retries
            thread.block_until(pend.resume_at)
            return False
        except Exception as cause:  # decode/translation failure at fetch
            self._fault(thread, cause, "fetch", now)
            return True

        obs = self.chip.obs
        if obs.hot:
            obs.emit("bundle", now, cluster=self.cluster_id, tid=thread.tid,
                     address=thread.ip.address, priv=thread.privileged,
                     text=disassemble_bundle(bundle))

        commits: list[tuple[str, int, object]] = []
        branch_target: GuardedPointer | None = None
        halted = False
        block_until: int | None = None
        pending: list[tuple[str, int, object]] = []

        try:
            target = self._exec_int(thread, bundle.int_op, commits, now)
            if target is _Halt:
                halted = True
            elif target is not None:
                branch_target = target
            self._exec_fp(thread, bundle.fp_op, commits)
            block_until, pending = self._exec_mem(thread, bundle.mem_op, commits, now)
        except GuardedPointerFault as cause:
            self._fault(thread, cause, self._fault_site(bundle, cause), now)
            return True

        # Commit phase: nothing above faulted.
        thread.regs.land(commits)

        thread.stats.bundles += 1
        thread.stats.operations += bundle.live_ops

        if halted:
            # a halting bundle still commits everything it did — a
            # blocking load sharing the bundle with HALT must land its
            # register write before the thread's state goes final
            thread.regs.land(pending)
            thread.state = ThreadState.HALTED
            thread.halted_at = now
            if obs.enabled:
                obs.emit("thread.halt", now, cluster=self.cluster_id,
                         tid=thread.tid, bundles=thread.stats.bundles)
            return True

        try:
            if branch_target is not None:
                thread.ip = branch_target
            else:
                thread.ip = self._lea(thread.ip.word, BUNDLE_BYTES)
        except GuardedPointerFault as cause:
            # running off the end of the code segment
            self._fault(thread, cause, "ip-advance", now)
            return True

        if block_until == REMOTE_WAIT:
            # remote load: the true reply cycle is computed at the next
            # window barrier, which rewrites wake_at and charges the
            # stall; the register write arrives the same way
            thread.pending_writes.extend(pending)
            thread.block_until(REMOTE_WAIT)
        elif block_until is not None and block_until > now + 1:
            thread.pending_writes.extend(pending)
            thread.stats.stall_cycles += block_until - (now + 1)
            thread.block_until(block_until)
        else:
            thread.regs.land(pending)
        return True

    # -- compiled-node execution ---------------------------------------------

    def _compile_node(self, address: int, entry: tuple, ip: "GuardedPointer"):
        """Build (or refuse) the compiled node for the decoded bundle
        ``entry`` at ``address``, fetched through pointer ``ip``, and
        store it in that decode-cache entry.

        A node is a pre-picked execution plan for one decoded bundle:
        NOP slots resolved to ``None`` (the units early-out on fillers
        with zero side effects, so skipping the call is behaviorally
        identical), each live op compiled to a closure, plus the
        memoized fall-through IP.  Only TRAP bundles refuse a node:
        trap dispatch stays with the per-bundle executor.  The node
        sits in the decode-cache entry beside the pointer word it was
        built through, so every invalidation that drops a decoded
        bundle drops its node with it, and a different pointer to the
        same address — which re-validates through
        :meth:`MAPChip.fetch` — gets a node of its own.  Nodes are
        chip-wide (a bundle may issue on any cluster), so closures bind
        only chip-level state; the issuing cluster is
        ``thread.scheduler``.
        """
        bundle, word = entry[0], entry[1]
        int_op = bundle.int_op
        code = int_op.opcode
        if code is Opcode.NOP:
            int_fn = None
        elif code is Opcode.TRAP:
            return None
        else:
            int_fn = self._sb_compile_int(int_op, ip)
        fp_op = bundle.fp_op
        if fp_op.opcode is Opcode.FNOP or fp_op.opcode is Opcode.NOP:
            fp_op = None
        mem_op = bundle.mem_op
        if mem_op.opcode is Opcode.NOP or mem_op.opcode is Opcode.FNOP:
            mem_fn = None
        else:
            mem_fn = self._sb_compile_mem(mem_op)
        try:
            next_ip = self._lea(ip.word, BUNDLE_BYTES)
        except GuardedPointerFault:
            # fall-through runs off the code segment; the node
            # re-derives live so the fault raises exactly as stepping
            next_ip = None
        node = (bundle, int_fn, fp_op, mem_fn, next_ip, bundle.live_ops)
        self.chip._decode_cache[address] = (bundle, word, node)
        return node

    def _sb_compile_int(self, op: Operation, ip: "GuardedPointer"):
        """Compile an integer-slot op into a node closure.

        The trace-cache idiom: everything that is a pure function of
        the operation encoding and the bundle's (fixed) fetch pointer —
        ALU immediates, branch targets, MOVI's word, GETIP's result —
        resolves once at node-build time, so executing the node spends
        no cycles re-deciding what the op *is*.  Derived pointers come
        through the same LEA memo the per-bundle executor uses (pure,
        so pre-deriving is invisible); a derivation that faults falls
        back to the unit so the fault raises only when the op actually
        needs the pointer, exactly as stepping.  JMP resolves its
        target check through the chip's jump memo and still runs the
        jump auditor and the enter-call tracker on every execution.
        HALT returns the halt sentinel; :meth:`_run_nodes` finishes
        the thread.
        """
        code = op.opcode
        # the hot ALU closures build TaggedWords the way the frozen
        # dataclass's own __init__ does (object.__setattr__), skipping
        # three Python calls per op; ``.untagged().value`` collapses to
        # ``.value`` (untagging never changes the bits)
        new = TaggedWord.__new__
        setattr_ = object.__setattr__
        if code in _INT_ALU_IMM:
            fn = _INT_ALU[_INT_ALU_IMM[code]]
            b = op.imm & _SB_WORD_MASK
            ra, rd = op.ra, op.rd

            def run(thread, regs, commits, now):
                word = new(TaggedWord)
                setattr_(word, "value",
                         fn(regs.read(ra).value, b) & _SB_WORD_MASK)
                setattr_(word, "tag", False)
                commits.append(("r", rd, word))
                return None
            return run
        if code in _INT_ALU:
            fn = _INT_ALU[code]
            ra, rb, rd = op.ra, op.rb, op.rd

            def run(thread, regs, commits, now):
                word = new(TaggedWord)
                setattr_(word, "value",
                         fn(regs.read(ra).value,
                            regs.read(rb).value) & _SB_WORD_MASK)
                setattr_(word, "tag", False)
                commits.append(("r", rd, word))
                return None
            return run
        if code is Opcode.MOVI:
            word = TaggedWord.integer(op.imm)
            rd = op.rd

            def run(thread, regs, commits, now):
                commits.append(("r", rd, word))
                return None
            return run
        if code is Opcode.MOV:
            ra, rd = op.ra, op.rd

            def run(thread, regs, commits, now):
                commits.append(("r", rd, regs.read(ra)))
                return None
            return run
        if code is Opcode.HALT:
            return _halt
        if code is Opcode.JMP:
            return self._sb_compile_jmp(op)
        if code is Opcode.GETIP:
            target = self._sb_branch_target(ip, op.imm)
            if target is not None:
                result = target.word
                rd = op.rd

                def run(thread, regs, commits, now):
                    commits.append(("r", rd, result))
                    return None
                return run
        elif code is Opcode.BEQ or code is Opcode.BNE:
            target = self._sb_branch_target(ip, op.imm)
            if target is not None:
                rd = op.rd
                want_zero = code is Opcode.BEQ

                def run(thread, regs, commits, now):
                    value = regs.read(rd).value
                    taken = (value == 0) if want_zero else (value != 0)
                    return target if taken else None
                return run
        elif code is Opcode.BR:
            target = self._sb_branch_target(ip, op.imm)
            if target is not None:
                def run(thread, regs, commits, now):
                    return target
                return run
        exec_int = self._exec_int

        def run(thread, regs, commits, now):
            return exec_int(thread, op, commits, now)
        return run

    def _sb_compile_jmp(self, op: Operation):
        """JMP's node closure.  ``check_jump`` is a pure function of
        the tagged target word (enter→execute conversion included), so
        a passed check is memoized chip-wide together with the target's
        decoded permission; faulting targets are never cached and
        untagged words always take the full check.  The jump auditor
        and the enter-call tracker still see every jump."""
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

    def _sb_branch_target(self, ip: "GuardedPointer", imm: int):
        """Pre-derive an IP-relative pointer (branch target, GETIP
        result) at node-build time, or None when the derivation faults
        (then the op falls back to the unit, so the fault raises only
        when the op needs the pointer, as stepping would)."""
        try:
            return self._lea(ip.word, imm)
        except GuardedPointerFault:
            return None

    def _sb_compile_mem(self, op: Operation):
        """Compile a memory-slot op into a node closure returning
        ``(block_until, pending_writes)`` — :meth:`_exec_mem`'s
        contract with its opcode dispatch pre-resolved.

        Loads and stores keep the exact per-execution path — the
        access-check memo, :meth:`MAPChip.access_memory` (the store's
        decoded-bundle invalidation, the banked cache's timing, the
        mesh route for remote addresses), the load-to-use histogram.  A
        remote load binds its destination register and returns the
        ``REMOTE_WAIT`` sentinel exactly as the memory unit does.  LEA
        and LEAR derive through the LEA memo.  Everything else falls
        back to the memory unit.
        """
        code = op.opcode
        chip = self.chip
        ra, rb, rd, imm = op.ra, op.rb, op.rd, op.imm
        if code is Opcode.LD or code is Opcode.LDF:
            mem_address = self._mem_address
            access = chip.access_memory
            obs = chip.obs
            load_to_use = obs.load_to_use.add
            is_ld = code is Opcode.LD
            bank = "r" if is_ld else "f"

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
        if code is Opcode.ST or code is Opcode.STF:
            mem_address = self._mem_address
            access = chip.access_memory
            is_st = code is Opcode.ST

            def run(thread, regs, commits, now):
                vaddr = mem_address(regs.read(ra), imm, write=True)
                if is_st:
                    value = regs.read(rd)
                else:
                    value = float_to_word(regs.read_f(rd))
                access(vaddr, write=True, now=now, value=value)
                return _NO_BLOCK
            return run
        if code is Opcode.LEA:
            lea = self._lea

            def run(thread, regs, commits, now):
                commits.append(("r", rd, lea(regs.read(ra), imm).word))
                return _NO_BLOCK
            return run
        if code is Opcode.LEAR:
            lea = self._lea

            def run(thread, regs, commits, now):
                offset = to_s64(regs.read(rb).value)
                commits.append(("r", rd, lea(regs.read(ra), offset).word))
                return _NO_BLOCK
            return run
        exec_mem = self._exec_mem

        def run(thread, regs, commits, now):
            return exec_mem(thread, op, commits, now)
        return run

    def _run_nodes(self, thread: Thread, start: int, end: int) -> int:
        """Issue ``thread``'s bundles through their compiled nodes for
        cycles ``[start, end)``; returns the cycles consumed (0 when the
        first bundle has no node).  The one node-running body: the
        per-cycle path calls it for a single cycle, superblocks for a
        whole stretch.

        It charges exactly what the per-bundle executor charges for the
        same bundles — the fetch hit, the register commit, the IP
        advance, the blocking-load scoreboard (a local stall or a remote
        wait), HALT's final state and event, and the fault site — so
        nodes are invisible to cycles, counters and trace events.  The
        per-bundle totals (fetch hits, the thread's bundle and op
        counts) are settled on exit, before the fault handler or the
        halt event can observe them.  It stops after the cycle in which
        the thread faults, halts or blocks, and before a bundle the
        decode cache cannot answer (not decoded yet, self-modified,
        TRAP), which the per-bundle executor then handles.
        """
        chip = self.chip
        cache = chip._decode_cache
        regs = thread.regs
        stats = thread.stats
        commits = self._commits
        bundles = 0   # committed bundles (a faulting one commits nothing)
        ops = 0
        fault = None
        halted = False
        now = start
        while now < end:
            ip = thread.ip
            word = ip.word.value
            address = word & _SB_ADDRESS_MASK
            entry = cache.get(address)
            if entry is None or entry[1] != word:
                break
            node = entry[2]
            if node is None:
                node = self._compile_node(address, entry, ip)
                if node is None:
                    break
            bundle, int_fn, fp_op, mem_fn, next_ip, live = node
            commits.clear()
            branch_target = None
            block_until = None
            pending = None
            try:
                if int_fn is not None:
                    branch_target = int_fn(thread, regs, commits, now)
                if fp_op is not None:
                    self._exec_fp(thread, fp_op, commits)
                if mem_fn is not None:
                    block_until, pending = mem_fn(thread, regs, commits, now)
            except GuardedPointerFault as cause:
                # the faulting cycle still elapses and the bundle still
                # issues (fetch hit, then the unit faulted), but it
                # commits nothing, exactly like the per-bundle executor
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
            chip.fetch_hits += issued
            stats.bundles += bundles
            stats.operations += ops
            if fault is not None:
                chip.now = now - 1
                self._fault(thread, fault[0], fault[1], now - 1)
            elif halted:
                thread.state = ThreadState.HALTED
                thread.halted_at = now - 1
                obs = chip.obs
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
        issued = self._run_nodes(thread, start, end)
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
        chip.node_bundles += n
        self.issued_cycles += n
        # scheduling bookkeeping a per-cycle run would have left behind
        self._next_slot = (self.slots.index(thread) + 1) % len(self.slots)
        self.last_domain = thread.domain
        self._last_tid = thread.tid
        for cl in chip.clusters:
            if cl is not self:
                cl.idle_cycles += n

    # -- the integer unit ------------------------------------------------------

    def _exec_int(self, thread: Thread, op: Operation, commits: list,
                  now: int):
        """Returns a branch-target pointer, the _Halt sentinel, or None."""
        code = op.opcode
        regs = thread.regs
        if code is Opcode.NOP:
            return None
        if code is Opcode.HALT:
            return _Halt
        if code is Opcode.TRAP:
            raise TrapFault(op.imm)
        if code in _INT_ALU:
            a = regs.read(op.ra).untagged().value
            b = regs.read(op.rb).untagged().value
            commits.append(("r", op.rd, TaggedWord.integer(_INT_ALU[code](a, b))))
            return None
        if code in _INT_ALU_IMM:
            a = regs.read(op.ra).untagged().value
            b = op.imm & ((1 << 64) - 1)
            fn = _INT_ALU[_INT_ALU_IMM[code]]
            commits.append(("r", op.rd, TaggedWord.integer(fn(a, b))))
            return None
        if code is Opcode.MOVI:
            commits.append(("r", op.rd, TaggedWord.integer(op.imm)))
            return None
        if code is Opcode.MOV:
            # MOV preserves the tag: copying a pointer yields the pointer.
            commits.append(("r", op.rd, regs.read(op.ra)))
            return None
        if code is Opcode.ISPTR:
            commits.append(("r", op.rd, ops.ispointer(regs.read(op.ra))))
            return None
        if code is Opcode.GETIP:
            commits.append(("r", op.rd, self._lea(thread.ip.word, op.imm).word))
            return None
        if code is Opcode.BR:
            return self._lea(thread.ip.word, op.imm)
        if code in (Opcode.BEQ, Opcode.BNE):
            value = regs.read(op.rd).untagged().value
            taken = (value == 0) if code is Opcode.BEQ else (value != 0)
            return self._lea(thread.ip.word, op.imm) if taken else None
        if code is Opcode.JMP:
            target_word = regs.read(op.ra)
            new_ip = ops.check_jump(target_word, thread.privileged)
            auditor = self.chip.jump_auditor
            if auditor is not None:
                auditor(thread, GuardedPointer.from_word(target_word),
                        new_ip, now)
            obs = self.chip.obs
            if obs.enabled:
                obs.note_jump(thread, target_word, new_ip, now,
                              cluster=self.cluster_id)
            return new_ip
        raise AssertionError(f"unhandled integer op {code.name}")

    # -- the floating-point unit -------------------------------------------------

    def _exec_fp(self, thread: Thread, op: Operation, commits: list) -> None:
        code = op.opcode
        regs = thread.regs
        if code in (Opcode.FNOP, Opcode.NOP):
            return
        if code in _FP_ALU:
            result = _FP_ALU[code](regs.read_f(op.ra), regs.read_f(op.rb))
            commits.append(("f", op.rd, result))
            return
        if code is Opcode.FMOV:
            commits.append(("f", op.rd, regs.read_f(op.ra)))
            return
        if code is Opcode.ITOF:
            commits.append(("f", op.rd, float(regs.read(op.ra).as_signed())))
            return
        if code is Opcode.FTOI:
            commits.append(("r", op.rd,
                            TaggedWord.integer(saturating_ftoi(regs.read_f(op.ra)))))
            return
        raise AssertionError(f"unhandled fp op {code.name}")

    # -- the memory unit ------------------------------------------------------

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

    def _exec_mem(self, thread: Thread, op: Operation, commits: list, now: int):
        """Returns (block_until, pending_writes)."""
        code = op.opcode
        regs = thread.regs
        no_block = (None, [])
        if code in (Opcode.NOP, Opcode.FNOP):
            return no_block

        if code is Opcode.LD or code is Opcode.LDF:
            vaddr = self._mem_address(regs.read(op.ra), op.imm, write=False)
            result = self.chip.access_memory(vaddr, write=False, now=now)
            if result.ready_cycle == REMOTE_WAIT:
                # remote load: the window barrier resolves the value and
                # the true latency (the histogram is charged then too)
                self.chip.router.bind_remote_load(
                    self.chip, thread.tid,
                    "r" if code is Opcode.LD else "f", op.rd)
                return REMOTE_WAIT, []
            obs = self.chip.obs
            if obs.enabled:
                obs.load_to_use.add(result.ready_cycle - now)
            if code is Opcode.LD:
                write = ("r", op.rd, result.word)
            else:
                write = ("f", op.rd, word_to_float(result.word))
            return result.ready_cycle, [write]

        if code is Opcode.ST or code is Opcode.STF:
            vaddr = self._mem_address(regs.read(op.ra), op.imm, write=True)
            if code is Opcode.ST:
                value = regs.read(op.rd)
            else:
                value = float_to_word(regs.read_f(op.rd))
            self.chip.access_memory(vaddr, write=True, now=now, value=value)
            return no_block  # stores are buffered; the thread proceeds

        if code is Opcode.LEA:
            commits.append(("r", op.rd, self._lea(regs.read(op.ra), op.imm).word))
            return no_block
        if code is Opcode.LEAR:
            offset = to_s64(regs.read(op.rb).untagged().value)
            commits.append(("r", op.rd, self._lea(regs.read(op.ra), offset).word))
            return no_block
        if code is Opcode.LEAB:
            commits.append(("r", op.rd, ops.leab(regs.read(op.ra), op.imm).word))
            return no_block
        if code is Opcode.LEABR:
            offset = to_s64(regs.read(op.rb).untagged().value)
            commits.append(("r", op.rd, ops.leab(regs.read(op.ra), offset).word))
            return no_block
        if code is Opcode.SETPTR:
            forged = ops.setptr(regs.read(op.ra), privileged=thread.privileged)
            commits.append(("r", op.rd, forged.word))
            return no_block
        if code is Opcode.RESTRICT:
            perm_code = regs.read(op.rb).untagged().value
            try:
                perm = Permission(perm_code)
            except ValueError:
                raise RestrictFault(f"not a permission code: {perm_code}") from None
            commits.append(("r", op.rd, ops.restrict(regs.read(op.ra), perm).word))
            return no_block
        if code is Opcode.SUBSEG:
            length = regs.read(op.rb).untagged().value
            commits.append(("r", op.rd, ops.subseg(regs.read(op.ra), length).word))
            return no_block
        raise AssertionError(f"unhandled memory op {code.name}")

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
