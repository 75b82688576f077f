"""Exporters: Chrome-trace/Perfetto JSON, the text timeline — and the
parity guarantee that attaching them never changes machine state."""

import json

import pytest

from repro.machine.chip import RunReason
from repro.obs import (CHIP_TRACK, TraceEvent, to_chrome_trace,
                       to_text_timeline)
from repro.sim.api import Simulation

SPIN = """
    movi r2, 5
loop:
    subi r2, r2, 1
    bne r2, loop
    halt
"""


def sample_events():
    return [
        TraceEvent(name="bundle", cycle=3, node=0, cluster=1, tid=4,
                   args={"address": 0x1000, "text": "movi r1, 1"}),
        TraceEvent(name="cache.miss_fill", cycle=5, node=0, cluster=0,
                   dur=9, args={"vaddr": 0x2000, "bank": 2}),
        TraceEvent(name="swap.out", cycle=8, node=1, args={"page": 7}),
    ]


class TestChromeTrace:
    def test_spans_and_instants(self):
        trace = to_chrome_trace(sample_events())["traceEvents"]
        by_name = {e["name"]: e for e in trace if e["ph"] not in "M"}
        span = by_name["cache.miss_fill"]
        assert span["ph"] == "X"
        assert span["dur"] == 9
        assert span["ts"] == 5
        instant = by_name["bundle"]
        assert instant["ph"] == "i"
        assert instant["s"] == "t"

    def test_pid_is_node_and_tid_is_cluster(self):
        trace = to_chrome_trace(sample_events())["traceEvents"]
        bundle = next(e for e in trace if e["name"] == "bundle")
        assert (bundle["pid"], bundle["tid"]) == (0, 1)
        # cluster-less events fall back to the per-node chip track
        swap = next(e for e in trace if e["name"] == "swap.out")
        assert (swap["pid"], swap["tid"]) == (1, CHIP_TRACK)

    def test_metadata_names_every_track(self):
        trace = to_chrome_trace(sample_events())["traceEvents"]
        meta = [e for e in trace if e["ph"] == "M"]
        names = {(e["name"], e.get("pid"), e.get("tid")):
                 e["args"]["name"] for e in meta}
        assert names[("process_name", 0, None)] == "node0"
        assert names[("process_name", 1, None)] == "node1"
        assert names[("thread_name", 0, 1)] == "cluster1"
        assert names[("thread_name", 1, CHIP_TRACK)] == "chip"

    def test_category_is_the_name_prefix(self):
        trace = to_chrome_trace(sample_events())["traceEvents"]
        cats = {e["name"]: e["cat"] for e in trace if "cat" in e}
        assert cats["cache.miss_fill"] == "cache"
        assert cats["bundle"] == "bundle"

    def test_thread_id_lands_in_args(self):
        trace = to_chrome_trace(sample_events())["traceEvents"]
        bundle = next(e for e in trace if e["name"] == "bundle")
        assert bundle["args"]["thread"] == 4
        assert bundle["args"]["text"] == "movi r1, 1"


class TestTextTimeline:
    def test_one_line_per_event_with_location_and_span(self):
        lines = to_text_timeline(sample_events()).splitlines()
        assert len(lines) == 3
        assert "n0.c1.t4" in lines[0] and "bundle" in lines[0]
        assert "+9" in lines[1]  # span duration
        assert "page=7" in lines[2]

    def test_empty(self):
        assert to_text_timeline([]) == ""


class TestSaveChrome:
    def test_traced_run_loads_with_per_cluster_tracks(self, tmp_path):
        sim = Simulation()
        entry = sim.load(SPIN)
        sim.spawn(entry, cluster=0)
        sim.spawn(entry, cluster=1)
        with sim.trace() as session:
            result = sim.run()
        assert result.reason is RunReason.HALTED
        path = session.save_chrome(tmp_path / "trace.json")
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert "traceEvents" in trace
        tracks = {e["args"]["name"] for e in trace["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"cluster0", "cluster1"} <= tracks
        bundles = [e for e in trace["traceEvents"] if e["name"] == "bundle"]
        assert {e["tid"] for e in bundles} == {0, 1}


class TestTracingParity:
    """Attaching a trace session must never change machine state."""

    def run_cycles(self, trace, enabled=True):
        sim = Simulation()
        data = sim.allocate(4096)
        sim.spawn(SPIN)
        sim.spawn("ld r3, r1, 0\nhalt", regs={1: data.word})
        sim.chip.obs.enabled = enabled
        if trace:
            with sim.trace():
                result = sim.run()
        else:
            result = sim.run()
        return result.cycles

    def test_traced_cycles_are_bit_identical(self):
        assert self.run_cycles(trace=True) == self.run_cycles(trace=False)

    def test_disabled_hub_cycles_are_bit_identical(self):
        assert self.run_cycles(trace=False, enabled=False) == \
            self.run_cycles(trace=False)


class TestTracingKnobParity:
    """Attaching a trace session must never change cycle counts — under
    every combination of the decode-cache and data-fast-path knobs."""

    WORKLOAD = """
        movi r2, 6
    loop:
        ld r3, r1, 0
        st r3, r1, 8
        subi r2, r2, 1
        bne r2, loop
        halt
    """

    def run_workload(self, decode_cache, data_fast_path, traced):
        sim = Simulation(memory_bytes=2 * 1024 * 1024,
                         decode_cache=decode_cache,
                         data_fast_path=data_fast_path)
        data = sim.allocate(4096)
        sim.spawn(self.WORKLOAD, regs={1: data.word}, stack_bytes=0)
        if not traced:
            return sim.run().cycles
        with sim.trace() as session:
            result = sim.run()
        assert session.events  # the traced run actually recorded
        return result.cycles

    @pytest.mark.parametrize("decode_cache", [True, False])
    @pytest.mark.parametrize("data_fast_path", [True, False])
    def test_traced_and_untraced_cycles_identical(self, decode_cache,
                                                  data_fast_path):
        untraced = self.run_workload(decode_cache, data_fast_path,
                                     traced=False)
        traced = self.run_workload(decode_cache, data_fast_path,
                                   traced=True)
        assert traced == untraced
