"""Byte-identity of the simulator's observable output, pinned by digest.

The runner buffers its per-event observations in typed columns and folds
them into the metrics registry in bulk; occurrence times and arrival ranks
live in per-process columns.  None of that may change what a run reports.
The digests below were computed with the runner that called
``Histogram.observe`` once per value and kept ``EventId``-keyed dicts, on
the same four configurations.  Each observable part of the result is
hashed separately, so a failure names the part that moved.

A second test recomputes the four per-event histograms from the
``SimulationResult`` fields with one ``observe`` per value and compares
them with the registry the run filled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from bisect import bisect_right
from typing import Dict, List

import pytest

from repro.clocks import (
    ClockAlgorithm,
    CoverInlineClock,
    StarInlineClock,
    VectorClock,
)
from repro.faults import (
    CompositeFault,
    CrashSchedule,
    DuplicationFault,
    GilbertElliottLoss,
)
from repro.obs.metrics import BYTE_BUCKETS, VTIME_BUCKETS, Histogram
from repro.sim import ControlTransport, Simulation, UniformWorkload, runner
from repro.sim.network import RetryPolicy
from repro.topology import generators

CONFIGS = ("eager-star", "piggyback", "retry-loss-crash", "columnar")


def _config(name: str):
    """``(graph, {clock: factory}, Simulation keyword arguments)``."""
    if name == "columnar":
        g = generators.erdos_renyi(12, 0.3, random.Random(1))
        clocks = {
            "inline": lambda: CoverInlineClock(g),
            "vector": lambda: VectorClock(12),
        }
        return g, clocks, {"seed": 9, "event_store": "columnar"}
    g = generators.star(8)
    clocks = {
        "inline": lambda: CoverInlineClock(g),
        "inline-star": lambda: StarInlineClock(8),
        "vector": lambda: VectorClock(8),
    }
    if name == "eager-star":
        return g, clocks, {"seed": 3}
    if name == "piggyback":
        return g, clocks, {
            "seed": 5, "control_transport": ControlTransport.PIGGYBACK,
        }
    faults = CompositeFault([
        GilbertElliottLoss(p_enter_burst=0.1, p_exit_burst=0.4),
        DuplicationFault(rate=0.1),
        CrashSchedule({0: [(8.0, 9.5)], 2: [(6.0, 14.0)], 5: [(10.0, 11.5)]}),
    ])
    return g, clocks, {
        "seed": 7, "fault_model": faults, "control_retry": RetryPolicy(),
    }


def run_config(name: str):
    g, factories, kwargs = _config(name)
    clocks = {clock: make() for clock, make in factories.items()}
    sim = Simulation(g, clocks=clocks, **kwargs)
    return sim.run(UniformWorkload(events_per_process=40))


def _ids_times(mapping) -> list:
    return [[e.proc, e.index, repr(t)] for e, t in mapping.items()]


def result_digests(res) -> Dict[str, str]:
    """sha256 of each observable part, insertion order included."""
    parts = {
        "metrics": res.metrics.to_json(),
        "event_times": _ids_times(res.event_times),
        "finalization_times": {
            name: _ids_times(times)
            for name, times in res.finalization_times.items()
        },
        "stats": {
            name: dataclasses.asdict(st) for name, st in res.stats.items()
        },
        "timestamps": {
            name: [[e.proc, e.index, repr(ts)] for e, ts in asg.items()]
            for name, asg in res.assignments.items()
        },
    }
    return {
        key: hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]
        for key, value in parts.items()
    }


PINNED: Dict[str, Dict[str, str]] = {
    "eager-star": {
        "metrics": "e76d232bfaa63631",
        "event_times": "8999aef5a3e1f938",
        "finalization_times": "dc49b636efd4e5ae",
        "stats": "8ec3fc3f6f409fb5",
        "timestamps": "b11dc7ea28dab3b1",
    },
    "piggyback": {
        "metrics": "431b6c2ba4d580de",
        "event_times": "4d0afb246db23c89",
        "finalization_times": "b08712d6e426cf89",
        "stats": "5df1b7f74258252d",
        "timestamps": "31cea0473d22a370",
    },
    "retry-loss-crash": {
        "metrics": "5e2a5e0fe464ea2f",
        "event_times": "2aa1068306c85980",
        "finalization_times": "47456f50036d1172",
        "stats": "d36a31bd59371ada",
        "timestamps": "0b3314cfd7eea050",
    },
    "columnar": {
        "metrics": "4318b44ef9bddb1e",
        "event_times": "ddef9455efc721ad",
        "finalization_times": "6928461160db1d0c",
        "stats": "62c3efb654edca5a",
        "timestamps": "e07090afb047029b",
    },
}


@pytest.mark.parametrize("config", CONFIGS)
def test_result_matches_pinned_digests(config):
    assert result_digests(run_config(config)) == PINNED[config]


@pytest.mark.parametrize("config", ["eager-star", "columnar"])
def test_folding_in_small_chunks_changes_nothing(config, monkeypatch):
    monkeypatch.setattr(runner, "_FOLD_EVERY", 7)
    assert result_digests(run_config(config)) == PINNED[config]


def _send_payload_sizes(res, algo: ClockAlgorithm) -> List[int]:
    """Payload size of every send, in arrival order, by replaying the run's
    events on a fresh clock (control messages do not change payloads)."""
    payloads = {}
    sizes = []
    for eid in res.event_times:
        ev = res.execution.event(eid)
        if ev.is_local:
            algo.on_local(ev)
        elif ev.is_send:
            payload = payloads[ev.msg_id] = algo.on_send(ev)
            sizes.append(algo.payload_elements(payload))
        else:
            algo.on_receive(ev, payloads.pop(ev.msg_id))
    return sizes


def _histogram_fields(h: Histogram) -> dict:
    return {
        "edges": h.edges, "counts": h.counts, "sum": h.sum,
        "count": h.count, "min": h.min, "max": h.max,
    }


@pytest.mark.parametrize("config", CONFIGS)
def test_per_event_histograms_match_per_value_observe(config):
    _g, factories, _kw = _config(config)
    res = run_config(config)
    # arrival order is time order, so an event's rank is its position here
    times = list(res.event_times.values())
    rank = {eid: r for r, eid in enumerate(res.event_times)}
    for name, finalized in res.finalization_times.items():
        expected: Dict[str, Histogram] = {
            "clock.piggyback_elements": Histogram(),
            "clock.piggyback_bytes": Histogram(BYTE_BUCKETS),
            "clock.finalization_delay_events": Histogram(),
            "clock.finalization_delay_vtime": Histogram(VTIME_BUCKETS),
        }
        for n in _send_payload_sizes(res, factories[name]()):
            expected["clock.piggyback_elements"].observe(n)
            expected["clock.piggyback_bytes"].observe(8 * n)
        for eid, t_final in finalized.items():
            # events that had occurred when eid's timestamp became final
            seen = bisect_right(times, t_final)
            expected["clock.finalization_delay_events"].observe(
                seen - 1 - rank[eid]
            )
            expected["clock.finalization_delay_vtime"].observe(
                t_final - res.event_times[eid]
            )
        for metric, hist in expected.items():
            got = res.metrics.histograms_matching(f"{metric}{{clock={name}}}")
            assert [_histogram_fields(h) for h in got.values()] == [
                _histogram_fields(hist)
            ], (config, name, metric)

