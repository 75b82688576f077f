"""repro — reproduction of "Hardware Support for Fast Capability-based
Addressing" (Carter, Keckler & Dally, ASPLOS 1994).

Subpackages:

* :mod:`repro.core` — guarded pointers (tagged words, permissions, the
  checked pointer ISA).
* :mod:`repro.mem` — tagged memory, paging, TLB, 4-bank interleaved
  virtual cache, buddy segment allocator.
* :mod:`repro.machine` — the M-Machine MAP chip simulator (LIW ISA,
  assembler, multithreaded clusters).
* :mod:`repro.runtime` — privileged kernel services, protected
  subsystems, malloc, address-space GC.
* :mod:`repro.baselines` — comparison protection schemes (§5).
* :mod:`repro.sim` — workload generators, cost model, experiment
  driver.
* :mod:`repro.analysis` — fragmentation and overhead models (§4).

The most common entry points are re-exported here.
"""

from repro.core import (
    GuardedPointer,
    Permission,
    TaggedWord,
    check_jump,
    check_load,
    check_store,
    ispointer,
    lea,
    leab,
    restrict,
    setptr,
    subseg,
)
from repro.machine.chip import ChipConfig, MAPChip, RunReason, RunResult
from repro.machine.counters import PerfCounters
from repro.runtime.kernel import Kernel
from repro.runtime.subsystem import ProtectedSubsystem, ReturnSegment
from repro.sim.api import Simulation

__version__ = "1.1.0"

__all__ = [
    "GuardedPointer",
    "Permission",
    "TaggedWord",
    "check_jump",
    "check_load",
    "check_store",
    "ispointer",
    "lea",
    "leab",
    "restrict",
    "setptr",
    "subseg",
    "ChipConfig",
    "MAPChip",
    "RunReason",
    "RunResult",
    "PerfCounters",
    "Simulation",
    "Kernel",
    "ProtectedSubsystem",
    "ReturnSegment",
    "__version__",
]
