"""The window engine: one loop, two node executors.

The window protocol (see :mod:`repro.machine.multicomputer`) guarantees
that nodes never interact *inside* a window — all cross-node traffic
queues in per-node outboxes and is exchanged at the barrier in the
deterministic ``(cycle, src_node, seq)`` order.  So the machine-wide
clock is one loop — :meth:`WindowEngine.run`, ``step``,
``advance_idle``, the two-phase barrier exchange and the drain to a
barrier — written once here, and *where* the nodes advance is a
detail of the executor it drives:

* the **in-process executor** (lockstep) calls the chips and kernels of
  the live machine directly — no pipe, no pickling, no capture — and
  reads node clocks, runnable counts and fault counts straight from the
  chips;
* the **process executor** (``workers > 1``) forks OS processes, hands
  each a contiguous slice of the nodes, and keeps mirrors of the
  per-node clock / runnable / faulted state, refreshed by every reply.

Both executors run the same verb bodies (:class:`_Worker`): a worker
process holds one, the in-process executor holds one owning every node
of the live machine.  At a barrier, phase A (network timing and the
per-home service lists, :meth:`Multicomputer._plan_barrier`) runs on
the engine's machine, which owns the mesh and the migration forwarding
map; home ops (:meth:`Multicomputer._apply_home_op`) and phase-B
effects (:meth:`Multicomputer._apply_effects`) run at the executor
owning each node, in global batch order.  Every machine-state mutation
for node ``n`` happens where ``n`` lives, so the ownership map cannot
change the interleaving and any map produces **bit-identical**
machines; the partitioned-vs-lockstep fuzz axis and the determinism
tests prove it continuously.

Workers warm-start from snapshots: the workload is set up (load /
allocate / spawn) on the engine's in-process machine, served by the
in-process executor, and the first clock-advancing call captures the
whole machine (:func:`repro.persist.image.capture_multicomputer`) and
ships the payload to freshly forked workers, each of which restores it
and from then on advances only its owned nodes.  The same capture →
restore → re-ship path implements mid-run **rebalancing** (changing
the ownership map), migration and restore.
"""

from __future__ import annotations

import json
import os
import traceback
from operator import attrgetter
from pathlib import Path

from repro.machine.chip import RunReason, RunResult
from repro.machine.thread import ThreadState


class ParallelError(Exception):
    """The sharded engine cannot continue (a worker crashed or the
    engine was used after :meth:`WindowEngine.close`)."""


def partition_nodes(nodes: int, workers: int) -> list[list[int]]:
    """Contiguous, nearly equal node slices — worker ``w`` owns
    ``owned[w]``.  Every node appears exactly once."""
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, nodes)
    base, extra = divmod(nodes, workers)
    owned: list[list[int]] = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        owned.append(list(range(start, start + count)))
        start += count
    return owned


# -- the verb bodies ------------------------------------------------------

class _Worker:
    """The only implementation of every node-level verb, over a slice
    of one machine.  In a worker process it holds a full restored
    machine (so every :class:`Multicomputer` method works unchanged)
    but only ever advances / mutates its owned nodes; in-process it
    owns every node of the live machine."""

    def __init__(self, chips=(), kernels=(), machine=None, owned=None):
        self.machine = machine
        self.chips = list(chips)
        self.kernels = list(kernels)
        self.owned = (list(range(len(self.chips))) if owned is None
                      else list(owned))
        #: per-owned-node span-level sinks; attached by "trace_on",
        #: drained by "trace_drain"
        self._span_sinks: dict[int, list] = {}

    # the process executor appends this to every state-changing reply
    # so its mirrors of the per-node clocks / runnable / faulted states
    # stay exact without extra round trips
    def _report(self) -> dict:
        out = {}
        for n in self.owned:
            chip = self.chips[n]
            out[n] = [chip.now, chip._runnable_count,
                      sum(cl.faulted_count for cl in chip.clusters)]
        return out

    def _drain(self) -> list[list]:
        messages: list[list] = []
        for n in self.owned:
            box = self.machine._outbox[n]
            messages.extend(box)
            box.clear()
        return messages

    def reload(self, payload: dict, owned: list[int]) -> None:
        """Restore the machine from a capture (built afresh on a
        worker's first load; restored in place after that, so span
        sinks survive) and take ownership of ``owned``."""
        from repro.persist.image import (restore_machine,
                                         restore_multicomputer_state)

        if self.machine is None:
            machine = restore_machine(payload).machine
            self.machine, self.chips, self.kernels = (
                machine, machine.chips, machine.kernels)
        else:
            restore_multicomputer_state(self.machine, payload)
        self.owned = list(owned)

    # -- the clock ---------------------------------------------------------

    def advance(self, end: int, next_barrier: int, drain: bool) -> list:
        """Run every owned node independently up to cycle ``end`` (a
        window boundary or the run deadline).  Within a window no
        cross-node interaction exists, so this is exactly the
        single-chip engine.  A node that goes quiet stops at its last
        live cycle; the engine re-aligns clocks (charging idle time,
        exactly as lockstep would have) once it knows whether the whole
        machine stopped."""
        self.machine._next_barrier = next_barrier  # fetch_remote reads it
        issued = 0
        for n in self.owned:
            chip = self.chips[n]
            while chip.now < end and chip._runnable_count:
                issued += chip.run(max_cycles=end - chip.now).issued_bundles
        return [issued, self._drain() if drain else []]

    def step(self, k: int, next_barrier: int, drain: bool) -> list:
        self.machine._next_barrier = next_barrier
        issued = 0
        for n in self.owned:
            chip = self.chips[n]
            for _ in range(k):
                issued += chip.step()
        return [issued, self._drain() if drain else []]

    def collect(self) -> list[list]:
        return self._drain()

    def skip(self, target: int) -> None:
        for n in self.owned:
            chip = self.chips[n]
            if chip.now < target:
                chip._skip_idle(target - chip.now)

    def skip_all(self, cycles: int) -> None:
        for n in self.owned:
            self.chips[n]._skip_idle(cycles)

    def home_ops(self, ops: list) -> dict:
        apply = self.machine._apply_home_op
        return {index: apply(msg, home) for index, msg, home in ops}

    def effects(self, per_node: dict[int, list]) -> None:
        for n in sorted(per_node):
            self.machine._apply_effects(self.chips[n], per_node[n])

    # -- workload verbs ----------------------------------------------------

    def spawn(self, node: int, entry, domain: int, regs,
              stack_bytes: int) -> int:
        return self.kernels[node].spawn(entry, domain=domain, regs=regs,
                                        stack_bytes=stack_bytes).tid

    def retire(self, per_node: list, result_reg: int) -> list[list]:
        """Retire finished request threads, preserving the caller's
        order.  For each tid whose thread has stopped, reports
        ``[node, tid, state_name, halted_at, result_reg_value]`` and
        removes the thread from its cluster; running threads are
        skipped.  A tid with no resident thread (reaped by the kernel
        after a kill) reports as FAULTED."""
        finished: list[list] = []
        for node, tids in per_node:
            chip = self.chips[node]
            by_tid = {t.tid: t for cluster in chip.clusters
                      for t in cluster.slots if t is not None}
            for tid in tids:
                thread = by_tid.get(tid)
                if thread is None:
                    finished.append([node, tid, "FAULTED", chip.now, 0])
                    continue
                if thread.state is ThreadState.HALTED:
                    finished.append([node, tid, "HALTED", thread.halted_at,
                                     thread.regs.read(result_reg).value])
                elif thread.state is ThreadState.FAULTED:
                    finished.append([node, tid, "FAULTED", chip.now, 0])
                else:
                    continue
                thread.scheduler.remove_thread(thread)
        return finished

    def hist(self, node: int, name: str, value: int) -> None:
        self.chips[node].obs.add_histogram(name).add(value)

    def emit(self, node: int, name: str, cycle: int, tid, dur,
             args: dict) -> None:
        self.chips[node].obs.emit(name, cycle, tid=tid, dur=dur, **args)

    def trace_on(self) -> None:
        """Attach a span-level (``hot=False``) sink to every owned
        node's hub — per-miss and cold events start accumulating, the
        per-bundle path stays dark and turbo stays engaged."""
        for n in self.owned:
            if n not in self._span_sinks:
                sink: list = []
                self.chips[n].obs.attach(sink, hot=False)
                self._span_sinks[n] = sink

    def trace_drain(self) -> dict[int, list]:
        out = {}
        for n, sink in sorted(self._span_sinks.items()):
            self.chips[n].obs.detach(sink)
            out[n] = sink
        self._span_sinks = {}
        return out

    def counters(self) -> dict:
        return {n: self.chips[n].counters.snapshot() for n in self.owned}

    def flights(self) -> dict:
        return {n: self.chips[n].obs.flight.dump() for n in self.owned}

    def capture(self) -> dict:
        from repro.persist.image import capture_node

        return {"nodes": {n: capture_node(self.kernels[n])
                          for n in self.owned},
                "seq": {n: self.machine._seq[n] for n in self.owned}}


#: verbs that leave every node's state as it was: no clock report rides
#: back, and the engine's machine stays current
_READ_ONLY = frozenset({"collect", "counters", "flights", "capture",
                        "trace_on", "trace_drain"})


def _worker_main(conn) -> None:
    worker = _Worker()
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            return
        verb, args = command[0], command[1:]
        if verb == "stop":
            conn.send(["ok", None, None])
            conn.close()
            return
        try:
            reply = getattr(worker, verb)(*args)
            report = None if verb in _READ_ONLY else worker._report()
        except Exception:  # ship the debris home, keep serving
            dumps = {}
            if worker.machine is not None:
                for n in worker.owned:
                    try:
                        dumps[n] = worker.chips[n].obs.flight.dump()
                    except Exception:
                        pass
            conn.send(["error", traceback.format_exc(), dumps])
            continue
        conn.send(["ok", reply, report])


# -- the two executors ----------------------------------------------------
# Both offer the same surface to the engine: ``owned``/``owner`` (the
# ownership map), ``broadcast`` (one verb on every worker), ``scatter``
# (per-worker commands, ``None`` to skip a worker), ``call`` (one verb
# on a node's owner), the clock reads ``now``/``runnable``/``faulted``,
# ``skip_to`` (idle every node behind a cycle up to it), ``reload``
# (re-ship the engine's machine), ``close``, the flags ``remote`` and
# ``dirty``, and ``coordinator`` (a worker over the hubs only the
# engine's machine sees, for span sinks).

_clock = attrgetter("now")
_runnable = attrgetter("_runnable_count")


class _InProcess:
    """The lockstep executor: one :class:`_Worker` owning every node of
    the live machine, called directly."""

    #: worker state never runs ahead of the machine: it *is* the machine
    remote = False
    dirty = False

    def __init__(self, chips, kernels, machine):
        self.worker = _Worker(chips, kernels, machine)
        self.chips = self.worker.chips
        self.owned = [self.worker.owned]
        self.owner = dict.fromkeys(self.worker.owned, 0)
        #: coordinator-side span sinks: none — the live hubs are the
        #: worker's own
        self.coordinator = _Worker(owned=())

    def broadcast(self, verb: str, *args) -> list:
        return [getattr(self.worker, verb)(*args)]

    def scatter(self, commands: list) -> list:
        command = commands[0]
        return [None if command is None
                else getattr(self.worker, command[0])(*command[1:])]

    def call(self, node: int, verb: str, *args):
        return getattr(self.worker, verb)(*args)

    def now(self) -> int:
        return max(map(_clock, self.chips))

    def skip_to(self, target: int) -> None:
        self.worker.skip(target)

    def runnable(self) -> bool:
        return any(map(_runnable, self.chips))

    def faulted(self) -> bool:
        return any(cl.faulted_count for chip in self.chips
                   for cl in chip.clusters)

    def reload(self, machine, owned=None) -> None:
        pass

    def close(self) -> None:
        pass


class _Processes:
    """The sharded executor: pipes to forked workers, each warm-started
    from a capture of the engine's machine, plus mirrors of every
    node's clock / runnable count / fault count."""

    remote = True

    def __init__(self, machine, owned: list[list[int]]):
        from multiprocessing import get_context

        nodes = len(machine.chips)
        self._now = [0] * nodes
        self._runnable = [0] * nodes
        self._faulted = [0] * nodes
        self._set_owned(owned)
        #: the coordinator's chips never advance, but their hubs
        #: receive router.hop (barrier planning) and migrate/swap events
        #: from the migration path run after a sync
        self.coordinator = _Worker(machine.chips, machine.kernels, machine)
        self._conns: list = []
        self._procs: list = []
        self._closed = False
        ctx = get_context("fork")
        for _ in owned:
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_end,),
                               daemon=True)
            proc.start()
            child_end.close()
            self._conns.append(parent_end)
            self._procs.append(proc)
        #: True while worker state has advanced past the engine's
        #: machine; cleared when the two are made equal again
        self.dirty = False
        self.reload(machine)

    def _set_owned(self, owned: list[list[int]]) -> None:
        self.owned = [list(nodes) for nodes in owned]
        self.owner = {n: w for w, nodes in enumerate(self.owned)
                      for n in nodes}

    # -- RPC plumbing ------------------------------------------------------

    def _send(self, w: int, command: list) -> None:
        try:
            self._conns[w].send(command)
        except OSError as exc:
            self._worker_down(f"pipe to worker {w} broke: {exc}")

    def _recv(self, w: int, verb: str):
        try:
            reply = self._conns[w].recv()
        except (EOFError, OSError) as exc:
            self._worker_down(f"worker {w} died mid-reply: {exc}")
        if reply[0] == "error":
            self._worker_crashed(w, reply)
        _, payload, report = reply
        if report is not None:
            for n, (now, runnable, faulted) in report.items():
                self._now[n] = now
                self._runnable[n] = runnable
                self._faulted[n] = faulted
        if verb not in _READ_ONLY:
            self.dirty = True
        return payload

    def _worker_down(self, why: str):
        self.close(force=True)
        raise ParallelError(why)

    def _worker_crashed(self, w: int, reply):
        _, tb, dumps = reply
        directory = Path(os.environ.get("REPRO_CRASH_DIR", "crashes"))
        directory = directory / f"parallel-worker-{w}"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "traceback.txt").write_text(tb)
            for node, dump in dumps.items():
                (directory / f"flight-node{node}.json").write_text(
                    json.dumps(dump, indent=2, sort_keys=True))
        except OSError:
            pass
        self.close(force=True)
        raise ParallelError(
            f"worker {w} crashed (flight recorders under {directory}):\n{tb}")

    def scatter(self, commands: list) -> list:
        """One command per worker, all sent before any reply is awaited
        so the workers overlap."""
        if self._closed:
            raise ParallelError("the parallel engine is closed")
        for w, command in enumerate(commands):
            if command is not None:
                self._send(w, command)
        return [None if command is None else self._recv(w, command[0])
                for w, command in enumerate(commands)]

    def broadcast(self, verb: str, *args) -> list:
        return self.scatter([[verb, *args]] * len(self.owned))

    def call(self, node: int, verb: str, *args):
        commands: list = [None] * len(self.owned)
        commands[self.owner[node]] = [verb, *args]
        return self.scatter(commands)[self.owner[node]]

    # -- the mirrors -------------------------------------------------------

    def now(self) -> int:
        return max(self._now)

    def skip_to(self, target: int) -> None:
        """Only the workers owning a node behind ``target`` are asked."""
        self.scatter([
            ["skip", target] if any(self._now[n] < target for n in nodes)
            else None for nodes in self.owned])

    def runnable(self) -> bool:
        return any(self._runnable)

    def faulted(self) -> bool:
        return any(self._faulted)

    # -- lifecycle ---------------------------------------------------------

    def reload(self, machine, owned=None) -> None:
        """Warm-start every worker from a fresh capture of ``machine``,
        optionally under a new ownership map."""
        from repro.persist.image import capture_multicomputer

        if owned is not None:
            self._set_owned(owned)
        payload = capture_multicomputer(machine)
        self.scatter([["reload", payload, nodes] for nodes in self.owned])
        self.dirty = False

    def close(self, force: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                if not force:
                    conn.send(["stop"])
                    conn.recv()
            except (OSError, EOFError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        # a forked worker inherits its own pipe's coordinator end, so
        # closing the pipe here never reaches it as EOF: a forced close
        # (a worker died or crashed) terminates the survivors outright
        for proc in self._procs:
            if not force:
                proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        self._conns = []
        self._procs = []


# -- the engine -----------------------------------------------------------

class WindowEngine:
    """The machine-wide clock and the node-level verbs of one machine —
    a lone chip or a :class:`Multicomputer` — over an executor.

    With ``workers == 1`` the executor is in-process for good.  With
    ``workers > 1`` the engine serves every verb in-process, over its
    own machine, until :meth:`start` (called by the first
    clock-advancing verb) forks the workers; from then on the workers
    are authoritative for node state (chips, kernels, sequence
    counters) and the engine's machine for the mesh network, the
    migration forwarding map and the barrier position.  A lone chip has
    no windows: its clock verbs are the chip's own."""

    def __init__(self, kernels, machine=None, workers: int = 1):
        self.machine = machine
        self.chips = [kernel.chip for kernel in kernels]
        self._plan = partition_nodes(len(self.chips), workers)
        #: worker processes the clock runs across once started
        self.workers = len(self._plan)
        self._ex = _InProcess(self.chips, kernels, machine)
        self._closed = False
        #: window messages drained from the nodes but not yet
        #: barrier-processed; the (cycle, src, seq) sort at the barrier
        #: makes the buffering location irrelevant
        self._msgbuf: list[list] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def stale(self) -> bool:
        """True while worker state has advanced past the engine's
        machine (direct access to it would read stale state)."""
        return self._ex.dirty

    def start(self) -> None:
        """Fork the workers and warm-start each from a snapshot of the
        engine's machine (the capture/restore path snapshots and
        rebalancing use).  A no-op once started, and for one worker."""
        if self._closed:
            raise ParallelError("the parallel engine is closed")
        if self.workers > 1 and not self._ex.remote:
            self._ex = _Processes(self.machine, self._plan)

    def close(self) -> None:
        """Stop the workers, if any.  The engine's machine keeps
        whatever state the last :meth:`sync_back` gave it."""
        if self.workers > 1:
            self._closed = True
        self._ex.close()

    @property
    def now(self) -> int:
        return self._ex.now()

    # -- the window loop ---------------------------------------------------

    def _advance(self, verb: str, arg: int, drain: bool) -> int:
        """Advance every node (``advance`` to a cycle, or ``step`` a
        count); at a barrier, drain the window's messages too."""
        issued = 0
        for count, messages in self._ex.broadcast(
                verb, arg, self.machine._next_barrier, drain):
            issued += count
            self._msgbuf.extend(messages)
        return issued

    def _collect(self) -> None:
        for messages in self._ex.broadcast("collect"):
            self._msgbuf.extend(messages)

    def _barrier(self) -> None:
        """Exchange one window's traffic: phase A on the engine's
        machine, home ops and phase-B effects at each node's owner.  The
        (cycle, src_node, seq) sort is exactly the order a
        cycle-interleaved engine would have presented the messages to
        the network and the home memories."""
        messages = self._msgbuf
        self._msgbuf = []
        if not messages:
            return
        messages.sort(key=lambda m: (m[1], m[2], m[3]))
        machine, ex = self.machine, self._ex
        home_ops, timing = machine._plan_barrier(messages)
        commands: list = [None] * len(ex.owned)
        for home in sorted(home_ops):
            w = ex.owner[home]
            if commands[w] is None:
                commands[w] = ["home_ops", []]
            commands[w][1].extend((index, msg, home)
                                  for index, msg in home_ops[home])
        replies: dict[int, list] = {}
        for reply in ex.scatter(commands):
            if reply is not None:
                replies.update(reply)
        per_node = machine._route_effects(messages, timing, replies)
        commands = [None] * len(ex.owned)
        for node, effects in per_node.items():
            if effects:
                w = ex.owner[node]
                if commands[w] is None:
                    commands[w] = ["effects", {}]
                commands[w][1][node] = effects
        ex.scatter(commands)

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Advance the machine in lookahead windows until every thread
        stops (see :mod:`repro.machine.multicomputer`).  Within a
        window each node runs independently; barriers exchange the
        queued traffic."""
        if self.machine is None:
            return self.chips[0].run(max_cycles)
        self.start()
        machine, ex = self.machine, self._ex
        start = self.now
        deadline = start + max_cycles
        issued = 0
        while True:
            if not ex.runnable():
                # Threads may be done while posted stores / broadcasts
                # are still queued: drain them early (nothing runnable
                # can observe the exchange), re-align every node to the
                # last cycle any node actually reached — the cycle
                # lockstep would have stopped at — and report why.
                self._collect()
                self._barrier()
                last = self.now
                self._ex.skip_to(last)
                if ex.runnable():
                    continue  # defensive; barrier effects cannot wake
                reason = (RunReason.FAULTED if ex.faulted()
                          else RunReason.HALTED)
                return RunResult(last - start, issued, reason)
            # runnable nodes are clock-aligned here (every window pass
            # below re-aligns the quiet ones)
            now = self.now
            if now >= deadline:
                return RunResult(now - start, issued, RunReason.MAX_CYCLES)
            end = min(machine._next_barrier, deadline)
            at_barrier = end == machine._next_barrier
            issued += self._advance("advance", end, at_barrier)
            if ex.runnable():
                # the machine is still alive: nodes that went quiet
                # mid-window idle along to the boundary, as lockstep
                # would have charged them
                self._ex.skip_to(end)
            if at_barrier:
                self._barrier()
                machine._next_barrier += machine.window

    def step(self, cycles: int = 1) -> int:
        """``cycles`` single-cycle steps of every node; returns bundles
        issued.  Barriers fire exactly when the clock reaches them.
        Within a window nodes are independent, so stepping each node
        ``k = min(cycles, barrier - now)`` cycles in turn is identical
        to interleaving them."""
        if self.machine is None:
            chip = self.chips[0]
            issued = 0
            for _ in range(cycles):
                issued += chip.step()
            return issued
        self.start()
        machine = self.machine
        issued = 0
        while cycles > 0:
            now = self.now
            k = min(cycles, max(1, machine._next_barrier - now))
            at_barrier = now + k >= machine._next_barrier
            issued += self._advance("step", k, at_barrier)
            if at_barrier:
                self._barrier()
                machine._next_barrier += machine.window
            cycles -= k
        return issued

    def advance_idle(self, cycles: int) -> None:
        """Skip guaranteed-idle cycles on every node.  Any in-flight
        window traffic drains first (nothing runnable can observe the
        early exchange), and the barrier grid re-anchors past the
        skip."""
        if self.machine is None:
            self.chips[0].advance_idle(cycles)
            return
        self.start()
        if self._ex.runnable():
            raise ValueError("cannot skip cycles while threads are runnable")
        if cycles <= 0:
            return
        self._collect()
        self._barrier()
        self._ex.broadcast("skip_all", cycles)
        machine = self.machine
        now = self.now
        if machine._next_barrier <= now:
            machine._next_barrier = now + machine.window

    def drain_to_barrier(self) -> None:
        """Bring the machine to a message-quiet point: if any window
        traffic is pending, advance to the next barrier and exchange it
        (the clock may move forward by up to one window).  At a quiet
        point — right after any barrier — this moves nothing."""
        self._collect()
        if not self._msgbuf:
            return
        machine = self.machine
        end = machine._next_barrier
        if self._ex.runnable() and self.now < end:
            self._advance("advance", end, True)
            if self._ex.runnable():
                self._ex.skip_to(end)
            self._barrier()
            machine._next_barrier += machine.window
        else:
            self._barrier()
        # home-side demand paging at the barrier can evict (swap) and
        # re-queue flush broadcasts; pull those into the engine buffer
        # so a subsequent capture records them
        self._collect()

    # -- workload verbs ----------------------------------------------------

    def spawn_request(self, node: int, entry, domain: int, regs,
                      stack_bytes: int) -> int:
        return self._ex.call(node, "spawn", node, entry, domain, regs,
                             stack_bytes)

    def retire_finished(self, pending: list[tuple[int, int]],
                        result_reg: int) -> list[dict]:
        """Retire the finished threads among ``pending`` (node, tid)
        pairs, returned in ``pending`` order."""
        ex = self._ex
        commands: list = [None] * len(ex.owned)
        for node, tid in pending:
            try:
                w = ex.owner[node]
            except KeyError:
                raise ValueError(
                    f"node {node} out of range for a {len(self.chips)}-node "
                    f"machine") from None
            if commands[w] is None:
                commands[w] = ["retire", [], result_reg]
            per_node = commands[w][1]
            if per_node and per_node[-1][0] == node:
                per_node[-1][1].append(tid)
            else:
                per_node.append((node, [tid]))
        by_key: dict[tuple[int, int], dict] = {}
        for reply in ex.scatter(commands):
            for node, tid, state, halted_at, result in reply or ():
                by_key[(node, tid)] = {"node": node, "tid": tid,
                                       "state": state,
                                       "halted_at": halted_at,
                                       "result": result}
        return [by_key[key] for key in pending if key in by_key]

    def record_sample(self, node: int, name: str, value: int) -> None:
        self._ex.call(node, "hist", node, name, value)

    def emit(self, node: int, name: str, cycle: int, tid, dur,
             args: dict) -> None:
        """Emit one event into ``node``'s hub, wherever it lives."""
        self._ex.call(node, "emit", node, name, cycle, tid, dur, args)

    def _gather(self, verb: str) -> dict[int, dict]:
        """One per-node read from every owner, merged by node."""
        per_node: dict[int, dict] = {}
        for reply in self._ex.broadcast(verb):
            per_node.update(reply)
        return per_node

    def counters_per_node(self) -> dict[int, dict]:
        return self._gather("counters")

    def flight_dumps(self) -> dict[int, dict]:
        return self._gather("flights")

    def span_collector(self) -> "_SpanCollector":
        """Span-level recording: sinks on every node's hub, wherever it
        lives, plus — on the sharded engine — on the coordinator's own
        hubs, which catch what only the coordinator runs (``router.hop``
        from barrier planning, the migration path's ``migrate.*``).
        The two sets are disjoint, so their union is exactly the
        lockstep stream.  Starts the workers."""
        self.start()
        return _SpanCollector(self._ex)

    # -- syncing, snapshots, rebalancing -----------------------------------

    def sync_back(self) -> None:
        """Make the engine's machine authoritative again: drain to a
        barrier and restore every node's true state into it, from the
        workers.  A no-op in-process (the machine is the nodes).  The
        images carry architectural state only, so the host tallies
        (``HOST_COUNTERS``) stay in the workers: read them from
        :meth:`counters_per_node`."""
        if not self._ex.remote:
            return
        from repro.persist.image import restore_node

        self.drain_to_barrier()
        machine = self.machine
        for reply in self._ex.broadcast("capture"):
            for n, node_state in reply["nodes"].items():
                restore_node(machine.kernels[n], node_state)
            for n, seq in reply["seq"].items():
                machine._seq[n] = seq
        # straggler messages live in the engine buffer; mirror them
        # into the machine's outboxes so a capture carries them (the
        # buffer itself stays queued for the next barrier)
        machine._outbox = [[] for _ in machine.chips]
        for msg in sorted(self._msgbuf, key=lambda m: (m[1], m[2], m[3])):
            machine._outbox[msg[2]].append(msg)
        self._ex.dirty = False

    def capture_state(self) -> dict:
        from repro.persist.image import capture_multicomputer

        self.sync_back()
        return capture_multicomputer(self.machine)

    def _reship(self, owned=None) -> None:
        self._msgbuf = []  # rides inside the machine's outboxes now
        self._ex.reload(self.machine, owned)

    def restore_state(self, state: dict) -> None:
        """Overwrite the machine with a captured image, and every
        worker with it."""
        from repro.persist.image import restore_multicomputer_state

        restore_multicomputer_state(self.machine, state)
        self._reship()

    def rebalance(self, owned: list[list[int]] | None = None) -> None:
        """Re-shard: drain, sync the machine, optionally install a new
        ownership map, and warm-start every worker from the fresh
        snapshot.  The window protocol makes execution independent of
        the map, so this is bit-exact."""
        self.start()
        self.sync_back()
        if owned is not None:
            flat = sorted(n for nodes in owned for n in nodes)
            if flat != list(range(len(self.chips))) or \
                    len(owned) != len(self._ex.owned):
                raise ValueError(
                    "ownership map must cover every node exactly once "
                    "across the existing workers")
        self._reship(owned)

    def migrate(self, process, destination: int, pin=()):
        """Live-migrate ``process``: sync the machine, re-bind the
        process's thread handles to the machine's thread objects (a
        sync restores fresh ones), run the migration there, and
        re-ship the result.  The sharded engine's sync drains to a
        barrier, so its clock may sit up to one window past where
        lockstep would have migrated — bit-equality with lockstep holds
        for non-migrating workloads and *from this point on* for
        migrating ones."""
        from repro.persist.migrate import MigrationError, MigrationService
        from repro.persist.state import threads_by_tid

        self.sync_back()
        mapping = threads_by_tid(process.kernel.chip)
        missing = [t.tid for t in process.threads if t.tid not in mapping]
        if missing:
            raise MigrationError(
                f"threads {missing} are not resident on the process's node")
        process.threads = [mapping[t.tid] for t in process.threads]
        report = MigrationService(self.machine).migrate(process, destination,
                                                        pin)
        self._reship()
        return report


class _SpanCollector:
    """Node sinks (worker side) plus coordinator sinks, drained as one
    event list (see :meth:`WindowEngine.span_collector`)."""

    def __init__(self, ex):
        self._ex = ex
        ex.coordinator.trace_on()
        ex.broadcast("trace_on")
        self._drained = None

    def drain(self) -> list:
        if self._drained is None:
            events: list = []
            for per_node in [self._ex.coordinator.trace_drain(),
                             *self._ex.broadcast("trace_drain")]:
                for _, sink in sorted(per_node.items()):
                    events.extend(sink)
            self._drained = events
        return self._drained
