"""Fold a cProfile run into the repository's layers.

Each function's self time goes to the layer of the module that defines
it.  Layers are the ``repro`` packages, with ``repro.machine`` split
into the modules that carry separate costs (chip, cluster,
multicomputer, network, parallel); the rest of ``repro.machine`` is the
``machine`` layer, and any other ``repro`` package is ``other``.
Code in this benchmark's directory is ``bench``; everything else --
the standard library, import machinery -- is ``host.stdlib``.

Built-in functions have no module of their own, so their self time is
split across their callers in proportion to the time each caller spent
in them, recursively through built-in callers.  A built-in that a
``repro`` function calls is therefore charged to that function's layer,
never to ``host.stdlib``.  The fold is exact: the layer totals add up to
the profile's total self time.
"""

from __future__ import annotations

import os
import pstats
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPRO_DIR = str(ROOT / "src" / "repro") + os.sep
BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep

MACHINE_LAYERS = ("chip", "cluster", "multicomputer", "network", "parallel")
PACKAGE_LAYERS = ("core", "mem", "obs", "persist", "runtime", "service",
                  "sim")
#: every layer the fold can produce, in report order
LAYERS = ("service", "sim", "chip", "cluster", "core", "mem",
          "multicomputer", "network", "parallel", "persist", "obs",
          "runtime", "machine", "other", "bench", "host.stdlib")

STDLIB = "host.stdlib"


def is_builtin(func: tuple) -> bool:
    filename, line, _ = func
    return filename == "~" and line == 0


def module_layer(filename: str) -> str:
    """The layer of the module at ``filename``."""
    if filename.startswith(REPRO_DIR):
        parts = filename[len(REPRO_DIR):].split(os.sep)
        if parts[0] == "machine" and len(parts) > 1:
            module = parts[1].removesuffix(".py")
            return module if module in MACHINE_LAYERS else "machine"
        package = parts[0].removesuffix(".py")
        return package if package in PACKAGE_LAYERS else "other"
    if filename.startswith(BENCH_DIR):
        return "bench"
    return STDLIB


class Fold:
    """Per-layer self time of one profile, plus the raw counts the
    benchmark reads from it."""

    def __init__(self, profile):
        self.stats = pstats.Stats(profile).stats
        self._shares: dict[tuple, dict[str, float]] = {}
        self.layers = {layer: 0.0 for layer in LAYERS}
        #: built-in function -> {layer: seconds} it was charged to
        self.builtin_charges: dict[tuple, dict[str, float]] = {}
        for func, (_, _, tottime, _, _) in self.stats.items():
            if is_builtin(func):
                charges = {layer: tottime * share
                           for layer, share in self._share(func).items()}
                self.builtin_charges[func] = charges
                for layer, seconds in charges.items():
                    self.layers[layer] += seconds
            else:
                self.layers[module_layer(func[0])] += tottime
        self.total = sum(entry[2] for entry in self.stats.values())

    def _share(self, func: tuple, visiting: frozenset = frozenset()
               ) -> dict[str, float]:
        """How ``func``'s time divides across layers, as fractions."""
        if not is_builtin(func):
            return {module_layer(func[0]): 1.0}
        if func in self._shares:
            return self._shares[func]
        callers = self.stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if caller not in visiting}
        if not any(weights.values()):
            weights = {caller: entry[1] for caller, entry in callers.items()
                       if caller not in visiting}
        total = sum(weights.values())
        if not total:
            return {STDLIB: 1.0}     # a root with no caller to charge
        share: dict[str, float] = {}
        inner = visiting | {func}
        for caller, weight in weights.items():
            for layer, part in self._share(caller, inner).items():
                share[layer] = share.get(layer, 0.0) + part * weight / total
        if not visiting:
            self._shares[func] = share
        return share

    # -- raw counts ------------------------------------------------------

    def calls(self, file_suffix: str, name: str) -> int:
        """Primitive call count of every function ``name`` defined in a
        file ending with ``file_suffix``."""
        return sum(entry[1] for func, entry in self.stats.items()
                   if func[2] == name and func[0].endswith(file_suffix))

    def builtin_self(self, predicate) -> float:
        """Self seconds of the built-ins whose name satisfies
        ``predicate``."""
        return sum(entry[2] for func, entry in self.stats.items()
                   if is_builtin(func) and predicate(func[2]))

    def repro_builtins_in_stdlib(self) -> list[str]:
        """Built-ins called only from ``repro`` code yet charged to
        ``host.stdlib`` -- always empty when the fold is right."""
        bad = []
        for func, charges in self.builtin_charges.items():
            callers = self.stats[func][4]
            if callers and all(not is_builtin(c) and c[0].startswith(REPRO_DIR)
                               for c in callers) and charges.get(STDLIB, 0):
                bad.append(func[2])
        return bad
