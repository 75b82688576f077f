"""The open-loop load driver: requests in, a latency report out.

The driver owns everything *around* the machine: it admits requests
from a :func:`~repro.service.traffic.open_loop` schedule as the clock
reaches their arrival times, spawns each one as a hardware thread on
an ingress node (``home`` — the tenant's node — or ``scatter`` round
robin, which turns every gateway call into mesh traffic), reaps
completions, and advances the machine — running in bounded quanta
while requests are queued for a thread slot, or skipping straight to
the next arrival when the machine drains.

Latency is measured the honest open-loop way: from the request's
*scheduled arrival* to the cycle its thread executed HALT
(``thread.halted_at``), so time spent waiting for a thread slot counts.
Every sample feeds the ingress chip's ``request_latency`` histogram —
a :meth:`~repro.obs.hub.TraceHub.add_histogram` extension wired into
the chip's counter file — which is where the report's p50/p99/p999
come from (recomputed from merged bucket counts on a mesh, see
:func:`~repro.obs.histogram.percentile_from_snapshot`).

Everything the driver consults between cycles is architectural machine
state (the clock, thread states, register words), so a run paused at a
drain point (``pause_at_completed``), snapshotted, and restored on a
fresh machine continues bit-identically — the service half of the
PR 3 determinism story.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.histogram import histogram_window, percentile_from_snapshot
from repro.service.kv import OP_PUT, Tenant, install_clients
from repro.service.traffic import Request

#: cycles the machine runs per scheduling decision while requests are
#: queued waiting for a thread slot (bounds latency quantization: a
#: freed slot goes unnoticed for at most this long)
QUANTUM = 16


@dataclass
class TrafficReport:
    """What one :meth:`ServiceLoadDriver.run` produced."""

    requests: int                 #: scheduled requests handed to run()
    completed: int                #: requests that ran to HALT
    errors: int                   #: request threads that faulted
    wrong_results: int            #: GETs whose r5 was never PUT
    start_cycle: int
    end_cycle: int
    latency: dict = field(default_factory=dict)
    enter: dict = field(default_factory=dict)
    migrations: list = field(default_factory=list)
    #: requests not dispatched (pause_at_completed stopped the run);
    #: feed them to a later run() to continue
    remainder: list = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def throughput_rpk(self) -> float:
        """Completed requests per thousand cycles."""
        if self.cycles <= 0:
            return 0.0
        return 1000.0 * self.completed / self.cycles

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "wrong_results": self.wrong_results,
            "cycles": self.cycles,
            "throughput_rpk": round(self.throughput_rpk, 3),
            "latency": self.latency,
            "enter": self.enter,
            "migrations": self.migrations,
            "remaining": len(self.remainder),
        }

    def format(self) -> str:
        """The human latency report ``repro serve`` prints."""
        lines = [
            "service traffic report",
            f"  requests     {self.requests}",
            f"  completed    {self.completed}"
            + (f"  (errors {self.errors})" if self.errors else ""),
            f"  cycles       {self.cycles}"
            f"  [{self.start_cycle} .. {self.end_cycle}]",
            f"  throughput   {self.throughput_rpk:.2f} req/kcycle",
            "  latency (cycles, arrival to halt; interpolated log2 "
            "buckets)",
            f"    p50   {self.latency.get('p50', 0)}",
            f"    p99   {self.latency.get('p99', 0)}",
            f"    p999  {self.latency.get('p999', 0)}",
            f"    mean  {self.latency.get('mean', 0.0):.1f}"
            f"   max {self.latency.get('max', 0)}",
            f"  enter round trips  {self.enter.get('count', 0)}"
            f"  (p50 {self.enter.get('p50', 0)} cycles)",
        ]
        if self.wrong_results:
            lines.append(f"  WRONG RESULTS  {self.wrong_results}")
        for m in self.migrations:
            lines.append(
                f"  migrated tenant {m['tenant']} node {m['source']} -> "
                f"{m['destination']} at cycle {m['cycle']} "
                f"({m['pages']} pages, {m['dispatched']} reqs dispatched)")
        return "\n".join(lines)


class ServiceLoadDriver:
    """Drives open-loop traffic through installed tenants on a
    :class:`~repro.sim.api.Simulation` (one node or a mesh).

    ``ingress`` places request threads: ``"home"`` spawns each request
    on its tenant's current home node (gateway calls stay node-local
    until a tenant migrates), ``"scatter"`` round-robins requests
    across nodes regardless of tenant placement (every call crosses
    the mesh — the stress case for remote enter traffic).

    ``client_entries`` reuses already-loaded client stubs (the
    restore-from-snapshot path must not load fresh segments into the
    restored machine); by default the driver loads one stub per node.

    ``exporter`` (a :class:`~repro.service.export.ServiceTraceExporter`)
    records each dispatched request's protection-level event skeleton,
    for replay through the E17 baseline schemes.
    """

    def __init__(self, sim, tenants: list[Tenant], *,
                 ingress: str = "home", client_entries=None,
                 exporter=None, recorder=None, sampler=None):
        if ingress not in ("home", "scatter"):
            raise ValueError(f"unknown ingress policy: {ingress!r}")
        self.sim = sim
        self.tenants = tenants
        self.ingress = ingress
        self.exporter = exporter
        #: a :class:`~repro.obs.requests.RequestTraceRecorder` — told
        #: about every admission/retirement for tail attribution.  On a
        #: sharded sim create it *after* this constructor (attaching
        #: starts the workers, freezing workload setup).
        self.recorder = recorder
        #: a :class:`~repro.obs.timeseries.TimeseriesSampler` — polled
        #: at the run loop's drain points (deterministic cycles, so the
        #: series is engine-independent)
        self.sampler = sampler
        self.client_entries = (client_entries if client_entries is not None
                               else install_clients(sim))
        if len(self.client_entries) != sim.nodes:
            raise ValueError("need one client entry per node")
        # each chip's request-latency histogram, wired into its counter
        # file exactly once (restores re-wire fresh chips)
        for chip in sim.chips:
            hist = chip.obs.add_histogram("request_latency")
            if not chip.counters.has_source("hist.request_latency"):
                chip.counters.add_source("hist.request_latency",
                                         hist.as_counters)
        self._capacity = (sim.config.clusters
                          * sim.config.threads_per_cluster)
        #: requests dispatched per tenant, for hot-tenant detection
        self.dispatched = [0] * len(tenants)
        #: slot -> set of values ever written, per tenant (GET results
        #: must come from this set; 0 = the untouched-slot value)
        self._written: dict[tuple[int, int], set] = {}

    # -- internals ---------------------------------------------------------

    def _node_for(self, request: Request, serial: int) -> int:
        if self.ingress == "scatter":
            return serial % self.sim.nodes
        return self.tenants[request.tenant].home

    def _spawn(self, request: Request, node: int, serial: int) -> int:
        """Dispatch one request as a hardware thread; returns its tid
        (an engine-neutral handle — on the sharded engine the thread
        object lives in a worker process)."""
        tenant = self.tenants[request.tenant]
        regs = {1: tenant.enter.word, 3: request.op, 4: request.key,
                5: request.value}
        # no stack: the stub never spills, and a per-request stack
        # segment would leak address space at traffic rates
        tid = self.sim.spawn_request(
            node, self.client_entries[node], domain=tenant.domain,
            regs=regs, stack_bytes=0)
        if self.recorder is not None:
            self.recorder.admit(serial, request, node, tid, self.sim.now)
        if self.exporter is not None:
            self.exporter.record(request, tenant, node,
                                 self.client_entries[node])
        self.dispatched[request.tenant] += 1
        if request.op == OP_PUT:
            slot = request.key & (tenant.slots - 1)
            self._written.setdefault((request.tenant, slot),
                                     {0}).add(request.value)
        return tid

    def _check_result(self, request: Request, result: int) -> bool:
        """A completed GET must return a value some PUT wrote to that
        slot (or 0 for an untouched slot) — the isolation check: a
        gateway reading another tenant's memory could not pass."""
        if request.op == OP_PUT:
            return True
        tenant = self.tenants[request.tenant]
        slot = request.key & (tenant.slots - 1)
        return result in self._written.get((request.tenant, slot), {0})

    def _reap(self, inflight: dict, node_load: list) -> tuple[int, int, int]:
        """Collect finished request threads; returns (completed,
        errors, wrong) deltas.  Latency is arrival -> halted_at and
        lands in the ingress node's histogram."""
        completed = errors = wrong = 0
        if not inflight:
            return 0, 0, 0
        # retire_finished frees each cluster slot (a FAULTED thread
        # would hold its slot forever otherwise) and reports r5 at HALT
        for entry in self.sim.retire_finished(list(inflight), result_reg=5):
            node = entry["node"]
            request = inflight.pop((node, entry["tid"]))
            node_load[node] -= 1
            if self.recorder is not None:
                self.recorder.done(node, entry["tid"], entry["halted_at"],
                                   entry["state"])
            if entry["state"] == "HALTED":
                completed += 1
                self.sim.record_sample(node, "request_latency",
                                       entry["halted_at"] - request.arrival)
                if not self._check_result(request, entry["result"]):
                    wrong += 1
            else:
                errors += 1
        return completed, errors, wrong

    def _hottest_tenant(self) -> int:
        return max(range(len(self.tenants)),
                   key=lambda i: self.dispatched[i])

    def _coolest_node(self, exclude: int) -> int:
        load = [0] * self.sim.nodes
        for tenant in self.tenants:
            load[tenant.home] += self.dispatched[tenant.index]
        candidates = [n for n in range(self.sim.nodes) if n != exclude]
        return min(candidates, key=lambda n: load[n])

    def _snapshot_latency(self) -> dict:
        return {k: v for k, v in self.sim.snapshot().items()
                if k.startswith(("hist.request_latency.",
                                 "hist.enter_roundtrip."))}

    @staticmethod
    def _stats(window: dict, prefix: str) -> dict:
        count = int(window.get(f"{prefix}.count", 0))
        total = window.get(f"{prefix}.total", 0)
        return {
            "count": count,
            "mean": round(total / count, 3) if count else 0.0,
            "max": int(window.get(f"{prefix}.max", 0)),
            "p50": percentile_from_snapshot(window, prefix, 0.50),
            "p99": percentile_from_snapshot(window, prefix, 0.99),
            "p999": percentile_from_snapshot(window, prefix, 0.999),
        }

    # -- the load loop -----------------------------------------------------

    def run(self, schedule: list[Request], *,
            migrate_hot_after: int | None = None,
            pause_at_completed: int | None = None,
            max_cycles: int = 100_000_000) -> TrafficReport:
        """Drive ``schedule`` (absolute arrival cycles) to completion.

        ``migrate_hot_after``: once that many requests have finished,
        drain the hottest tenant's in-flight requests and live-migrate
        it to the least-loaded node (mesh machines only).

        ``pause_at_completed``: once that many requests have finished,
        stop dispatching, drain what is in flight, and return with the
        undispatched requests in ``report.remainder`` — the drain
        point is thread-free, so the machine can be snapshotted and
        the remainder run on the restored copy.
        """
        sim = self.sim
        start_cycle = sim.now
        start_hist = self._snapshot_latency()
        queues = [deque() for _ in range(sim.nodes)]
        #: (ingress node, tid) -> request; tids are unique per chip,
        #: so the pair is unique machine-wide
        inflight: dict[tuple[int, int], Request] = {}
        node_load = [0] * sim.nodes
        completed = errors = wrong = 0
        next_i = 0
        serial = 0
        paused = False
        migrations = []
        draining_tenant: int | None = None
        budget = max_cycles

        def finished() -> bool:
            if paused:
                return not inflight
            return (next_i >= len(schedule) and not inflight
                    and not any(queues))

        while not finished():
            now = sim.now
            # admit everything that has arrived by now (each queued
            # entry carries its admission serial — the request id the
            # tail-attribution recorder keys on)
            while (not paused and next_i < len(schedule)
                   and schedule[next_i].arrival <= now):
                request = schedule[next_i]
                queues[self._node_for(request, serial)].append(
                    (serial, request))
                next_i += 1
                serial += 1
            # dispatch while slots are free (hold the draining tenant's
            # requests back so its in-flight count can reach zero)
            if not paused:
                for node, queue in enumerate(queues):
                    while queue and node_load[node] < self._capacity:
                        if (draining_tenant is not None
                                and queue[0][1].tenant == draining_tenant):
                            break
                        req_serial, request = queue.popleft()
                        tid = self._spawn(request, node, req_serial)
                        inflight[(node, tid)] = request
                        node_load[node] += 1
            # advance: bounded quanta while work is queued (so freed
            # slots are noticed), else to the next arrival
            if inflight:
                horizon = QUANTUM if any(queues) else budget
                if not paused and next_i < len(schedule):
                    horizon = min(horizon,
                                  max(schedule[next_i].arrival - now, 1))
                ran = sim.run(max_cycles=min(horizon, budget)).cycles
            elif not paused and next_i < len(schedule):
                gap = schedule[next_i].arrival - now
                ran = min(gap, budget)
                sim.advance_idle(ran)
            elif any(queues):  # draining pinned every queued tenant
                ran = 0
            else:
                break
            budget -= ran
            c, e, w = self._reap(inflight, node_load)
            completed += c
            errors += e
            wrong += w
            if self.sampler is not None:
                self.sampler.poll(sim.now, inflight=len(inflight))
            done = completed + errors
            if pause_at_completed is not None and not paused \
                    and done >= pause_at_completed:
                paused = True
            if (migrate_hot_after is not None and draining_tenant is None
                    and not migrations and done >= migrate_hot_after):
                draining_tenant = self._hottest_tenant()
            if draining_tenant is not None and not any(
                    req.tenant == draining_tenant
                    for req in inflight.values()):
                migrations.append(self._migrate(draining_tenant))
                draining_tenant = None
            if budget <= 0 and ran == 0:
                raise RuntimeError(
                    f"load driver made no progress within max_cycles "
                    f"({max_cycles}); {len(inflight)} in flight")
            if budget <= 0:
                break

        end_hist = self._snapshot_latency()
        remainder = sorted([req for q in queues for _, req in q]
                           + schedule[next_i:], key=lambda r: r.arrival)
        return TrafficReport(
            requests=len(schedule), completed=completed, errors=errors,
            wrong_results=wrong, start_cycle=start_cycle,
            end_cycle=sim.now,
            latency=self._stats(
                histogram_window(end_hist, start_hist, "hist.request_latency"),
                "hist.request_latency"),
            enter=self._stats(
                histogram_window(end_hist, start_hist, "hist.enter_roundtrip"),
                "hist.enter_roundtrip"),
            migrations=migrations, remainder=remainder)

    def _migrate(self, tenant_index: int) -> dict:
        """Live-migrate a drained tenant to the least-loaded node and
        update its home so later requests ingress there."""
        tenant = self.tenants[tenant_index]
        destination = self._coolest_node(tenant.home)
        report = self.sim.migrate(tenant.process, destination)
        record = {
            "tenant": tenant_index,
            "source": tenant.home,
            "destination": destination,
            "cycle": self.sim.now,
            "pages": report.pages_shipped + report.swapped_shipped,
            "dispatched": self.dispatched[tenant_index],
        }
        tenant.home = destination  # migrate() already rebound the kernel
        return record
