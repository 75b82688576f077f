"""The benchmark's workloads: what each one builds, drives and checks.

Every workload is built from its seed alone, so the same seed gives the
same inputs and therefore the same simulated statistics.  Two kinds:

* ``kernels`` -- single-thread loops on one node, run one after another
  as independent jobs.  A job is the kernel analogue of a request: its
  latency is the simulated cycles from spawn to HALT, and its output is
  checked against a closed form.
* ``serve-*`` -- the multi-tenant KV service under an open-loop
  schedule.  The benchmark generates the schedule from the seed and
  hands it to ``ServiceLoadDriver.run``; arrivals are cycle numbers, so
  the generator can never run late.

The sizes below keep the p99 latency estimate steady across seeds: each
run has at least 1000 samples (ten or more beyond p99), and the
single-node service runs long enough that its cold-cache start-up
transient stays below 1% of the requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- kernels ---------------------------------------------------------------

#: pure integer loop: every slot is superblock-compiled
ALU = """
    movi r2, {iterations}
loop:
    addi r3, r3, 7
    xor  r4, r3, r2
    add  r5, r4, r3
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

#: load/store stream: two read-modify-write chains through one pointer;
#: memory persists across jobs, so each job continues the sums
STREAM = """
    movi r2, {iterations}
loop:
    ld   r3, r1, 0
    add  r3, r3, r6
    st   r3, r1, 0
    ld   r4, r1, 8
    addi r4, r4, 1
    st   r4, r1, 8
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

KERNEL_KINDS = ("alu", "worker", "stream")


@dataclass(frozen=True)
class KernelConfig:
    jobs: int
    min_iterations: int
    max_iterations: int
    iteration_step: int


@dataclass(frozen=True)
class Job:
    kind: str
    iterations: int
    init: int


def kernel_jobs(cfg: KernelConfig, seed: int) -> list[Job]:
    """The seed's job list: kinds in rotation, loop counts and initial
    register values drawn from the seed."""
    rng = random.Random(seed)
    return [Job(kind=KERNEL_KINDS[j % len(KERNEL_KINDS)],
                iterations=rng.randrange(cfg.min_iterations,
                                         cfg.max_iterations + 1,
                                         cfg.iteration_step),
                init=rng.randrange(1, 1 << 20))
            for j in range(cfg.jobs)]


def expected_registers(job: Job, stream_sums: list[int]) -> dict[int, int]:
    """Closed-form final registers of one job.  ``stream_sums`` holds the
    two memory words the stream kernel accumulates into; it is advanced
    in place, so call this in job order."""
    n = job.iterations
    if job.kind == "alu":
        r3 = job.init + 7 * n
        r4 = r3 ^ 1          # the last iteration xors with r2 == 1
        return {2: 0, 3: r3, 4: r4, 5: r4 + r3}
    if job.kind == "worker":
        # the E5 worker adds 1 + 1 + 3 to r4 per iteration and loads
        # two words of an untouched (zero) segment
        return {2: 0, 3: 0, 4: job.init + 5 * n, 5: 0}
    stream_sums[0] += job.init * n
    stream_sums[1] += n
    return {2: 0, 3: stream_sums[0], 4: stream_sums[1]}


# -- the service -----------------------------------------------------------

@dataclass(frozen=True)
class ServiceConfig:
    #: mesh side (0 = a single node)
    side: int
    workers: int
    tenants: int
    requests: int
    mean_gap: float
    ingress: str


MEMORY_BYTES = 4 * 1024 * 1024
PAGE_BYTES = 512

#: the benchmark's workloads
WORKLOADS = {
    "kernels": KernelConfig(jobs=1200, min_iterations=32,
                            max_iterations=160, iteration_step=8),
    # gap 24 keeps one node well below saturation; 16000 requests push
    # the cold-start transient under the top 1%
    "serve-node": ServiceConfig(side=0, workers=1, tenants=48,
                                requests=16000, mean_gap=24.0,
                                ingress="home"),
    # scatter ingress: every gateway call crosses the mesh; gap 24 is
    # below saturation (gap 8 saturates)
    "serve-mesh": ServiceConfig(side=4, workers=1, tenants=48,
                                requests=1500, mean_gap=24.0,
                                ingress="scatter"),
}

#: workloads that are also run, on the same inputs, on the sharded
#: engine: its simulated statistics must equal the lockstep engine's,
#: and its traced runs give the engine's per-layer figures.  Its host
#: rates are not end-to-end metrics: three processes on a two-core host
#: swing four-fold with other load (drive 2.5 s to 11.7 s).
SHARDED = {
    "serve-mesh": ServiceConfig(side=4, workers=2, tenants=48,
                                requests=1500, mean_gap=24.0,
                                ingress="scatter"),
}

#: the self-test's sizes: every code path, a fraction of the work
TINY = {
    "kernels": KernelConfig(jobs=30, min_iterations=16, max_iterations=64,
                            iteration_step=16),
    "serve-node": ServiceConfig(side=0, workers=1, tenants=8, requests=120,
                                mean_gap=24.0, ingress="home"),
    "serve-mesh": ServiceConfig(side=2, workers=1, tenants=8, requests=120,
                                mean_gap=24.0, ingress="scatter"),
}
TINY_SHARDED = {
    "serve-mesh": ServiceConfig(side=2, workers=2, tenants=8, requests=120,
                                mean_gap=24.0, ingress="scatter"),
}


def config(workload: str, sharded: bool = False, tiny: bool = False):
    if sharded:
        return (TINY_SHARDED if tiny else SHARDED)[workload]
    return (TINY if tiny else WORKLOADS)[workload]
