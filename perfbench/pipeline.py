"""One benchmark iteration in a fresh process: set up, run, measure, check.

``run.py`` starts this file once per iteration (and once per set-up probe),
so every iteration pays the imports and owns its peak RSS.  It prints one
JSON object on its last line of standard output.

    python3 perfbench/pipeline.py --workload star-validate --seed 0 \\
        --trace 0 [--scale tiny] [--setup-only] [--spawned-at T]

The timed pipeline goes through the program's public API only:
``build_topology`` / ``best_cover`` / ``build_clock`` (set-up), then
``Simulation.run``, then ``SimulationResult.hb_oracle()`` and
``TimestampAssignment.validate`` per scheme, or the online conflict
detector fed from a workload hook.  Checks against the benchmark's own
reference (:mod:`reference`) run after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload; everything else comes from the seed."""

    name: str
    topology: str
    n: int
    schemes: Tuple[str, ...]
    actions_per_process: int
    p_local: float = 0.3
    #: batch oracle + exhaustive validate after the run
    validate: bool = False
    #: online oracle + per-update conflict checks during the run
    online: bool = False
    keys: int = 256
    #: pairs sampled by the reference checker
    pairs: int = 4000


STAR_SCHEMES = ("inline", "inline-star", "vector")
#: the graph is part of a workload: the random topology is drawn from this
#: fixed seed, and the run's seed drives only the execution
TOPOLOGY_SEED = 0

WORKLOADS: Dict[str, Spec] = {
    "star-validate": Spec(
        "star-validate", "star", 32, STAR_SCHEMES, 500, validate=True
    ),
    "star-simulate": Spec("star-simulate", "star", 32, STAR_SCHEMES, 1200),
    "online-conflicts": Spec(
        "online-conflicts", "random", 32, ("inline", "vector"), 500, online=True
    ),
}


def spec_for(workload: str, scale: str) -> Spec:
    spec = WORKLOADS[workload]
    if scale == "tiny":
        spec = replace(spec, n=8, actions_per_process=25, keys=8, pairs=400)
    return spec


def max_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux, bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def make_keyed_workload(spec: Spec, seed: int, tracer):
    """A Poisson workload whose local events are keyed updates.

    Each process performs ``actions_per_process`` actions at exponential
    inter-arrival times (rate 1, first action jittered), like
    ``UniformWorkload``.  A local action is an update to one of ``keys``
    keys drawn from the benchmark's own RNG, and is checked at once by
    ``OnlineConcurrentUpdateDetector.record_update`` against the live
    oracle.  A send goes to a uniformly chosen neighbour.  The wall time
    of each ``record_update`` call is kept in ``check_latency_s``.
    """
    from repro.applications.concurrent_updates import (
        OnlineConcurrentUpdateDetector,
    )
    from repro.sim.workload import Workload

    key_rng = random.Random(seed * 7919 + 1)

    class KeyedUpdates(Workload):
        def setup(self, sim) -> None:
            self.detector = OnlineConcurrentUpdateDetector(sim.oracle)
            self.updates: List[Tuple[object, str]] = []
            self.check_latency_s: List[float] = []
            self.record = self.detector.record_update
            if tracer is not None:
                self.record = tracer.traced(self.record, "applications.record_update")
            for p in sim.graph.vertices():
                self._next(sim, p, spec.actions_per_process, True)

        def _next(self, sim, p, budget: int, first: bool = False) -> None:
            if budget <= 0:
                return
            if first:
                delay = sim.rng.uniform(0.0, 1.0) + 1e-9
            else:
                delay = sim.rng.expovariate(1.0) + 1e-9

            def act() -> None:
                neighbors = sorted(sim.graph.neighbors(p))
                if not neighbors or sim.rng.random() < spec.p_local:
                    ev = sim.do_local(p)
                    key = f"k{key_rng.randrange(spec.keys)}"
                    self.updates.append((ev.eid, key))
                    t0 = perf_counter()
                    self.record(ev.eid, key)
                    self.check_latency_s.append(perf_counter() - t0)
                else:
                    sim.do_send(p, sim.rng.choice(neighbors))
                self._next(sim, p, budget - 1)

            sim.schedule(delay, act)

    return KeyedUpdates()


def span_maker(tracer):
    """``tracer.span``, or a no-op context when the run is untraced."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


class Setup:
    """Everything built before the first simulated step."""

    def __init__(self, spec: Spec, seed: int, tracer) -> None:
        from repro.cli import build_clock, build_topology
        from repro.sim import ControlTransport, Simulation, UniformWorkload
        from repro.topology.vertex_cover import best_cover

        self.spec = spec
        self.graph = build_topology(spec.topology, spec.n, TOPOLOGY_SEED)
        with span_maker(tracer)("topology.best_cover"):
            self.cover = best_cover(self.graph)
        self.clocks = {name: build_clock(name, self.graph) for name in spec.schemes}
        self.sim = Simulation(
            self.graph,
            seed=seed,
            clocks=self.clocks,
            control_transport=ControlTransport.EAGER,
            online_oracle=spec.online,
        )
        if spec.online:
            self.workload = make_keyed_workload(spec, seed, tracer)
        else:
            self.workload = UniformWorkload(
                events_per_process=spec.actions_per_process, p_local=spec.p_local
            )


@dataclass
class Outcome:
    result: object
    oracle: Optional[object]
    reports: Dict[str, object]
    pipeline_s: float


def run_pipeline(setup: Setup, tracer) -> Outcome:
    """The timed region: simulate, then the batch oracle and validation."""
    spec = setup.spec
    span = span_maker(tracer)
    oracle = None
    reports: Dict[str, object] = {}
    t0 = perf_counter()
    with span("pipeline"):
        with span("sim.run"):
            result = setup.sim.run(setup.workload)
        if spec.validate:
            with span("core.oracle.build"):
                oracle = result.hb_oracle()
            for name, asg in result.assignments.items():
                with span(f"validate.{name}"):
                    reports[name] = asg.validate(oracle)
    return Outcome(result, oracle, reports, perf_counter() - t0)


def check(setup: Setup, out: Outcome, seed: int):
    """Run the reference checks; return ``(tally, fingerprint)``."""
    import reference
    from repro.core.events import EventId

    spec = setup.spec
    result = out.result
    tally = reference.CheckTally()
    ref = reference.ReferenceClocks(result.execution)
    pairs = reference.sample_pairs(ref, spec.pairs, seed, EventId)
    deciders = []
    if out.oracle is not None:
        deciders.append(("oracle", out.oracle.happened_before))
    if result.online_oracle is not None:
        deciders.append(("online-oracle", result.online_oracle.happened_before))
    for name, asg in result.assignments.items():
        deciders.append((name, asg.precedes))
    reference.check_pairs(tally, ref, pairs, deciders)
    for name, report in out.reports.items():
        tally.check(report.characterizes, f"validate({name}) does not characterize")
    covers = {}
    if "inline" in setup.clocks:
        covers["inline"] = setup.clocks["inline"].cover
    if "inline-star" in setup.clocks:
        covers["inline-star"] = (0,)  # generators.star puts the centre at 0
    reference.check_assignments(
        tally, ref, result.assignments, covers, setup.graph, EventId
    )
    extra = {}
    if spec.online:
        det = setup.workload.detector
        reference.check_conflicts(
            tally, ref, setup.workload.updates, det.conflicts, det.pairs_checked
        )
        extra = {
            "updates": det.n_updates,
            "pairs_checked": det.pairs_checked,
            "conflicts": len(det.conflicts),
        }
    return tally, reference.fingerprint(result, extra)


# ----------------------------------------------------------------------
# traced run: wrap each layer's public functions
# ----------------------------------------------------------------------
CLOCK_HOOKS = (
    "on_local",
    "on_send",
    "on_receive",
    "on_control",
    "drain_newly_finalized",
    "payload_elements",
    "timestamp",
    "finalize_at_termination",
)


def install_layer_spans(tracer, setup: Setup) -> None:
    from repro.core.colstore import ColumnarExecutionBuilder
    from repro.core.execution import ExecutionBuilder
    from repro.core.incremental import IncrementalHBOracle
    from repro.obs.metrics import Histogram
    from repro.sim.network import Network
    from repro.sim.scheduler import EventScheduler

    tracer.patch(
        EventScheduler, "at", tracer.counted(EventScheduler.at, "sim.scheduler.timers")
    )
    tracer.wrap(Network, "transmit", "sim.network")
    for name, algo in setup.clocks.items():
        for hook in CLOCK_HOOKS:
            tracer.wrap(algo, hook, f"clocks.{name}")
    tracer.wrap(Histogram, "observe", "obs.metrics")
    for builder in (ExecutionBuilder, ColumnarExecutionBuilder):
        for op in ("local", "send", "receive"):
            tracer.wrap(builder, op, "core.store")
    for op in ("append_local", "append_send", "append_receive"):
        tracer.wrap(IncrementalHBOracle, op, "core.incremental.append")
    sync = IncrementalHBOracle.sync_store

    def sync_counted(self, store, upto=None):
        rows = sync(self, store, upto)
        tracer.count("core.incremental.sync_rows", rows)
        return rows

    tracer.patch(
        IncrementalHBOracle,
        "sync_store",
        tracer.traced(sync_counted, "core.incremental.sync"),
    )
    tracer.wrap(IncrementalHBOracle, "flush", "core.incremental.flush")
    for op in (
        "happened_before",
        "precedes",
        "concurrent",
        "causal_past",
        "causal_frontier",
        "vector_clock",
        "relation_counts",
    ):
        tracer.wrap(IncrementalHBOracle, op, "core.incremental.query")


def oracle_peak_alloc_mb(execution) -> float:
    """Peak traced allocation of one batch-oracle build, in MiB."""
    import tracemalloc

    from repro.core.happened_before import HappenedBeforeOracle

    tracemalloc.start()
    try:
        oracle = HappenedBeforeOracle(execution)
        peak = tracemalloc.get_traced_memory()[1]
        del oracle
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer, setup: Setup, out: Outcome) -> Dict[str, float]:
    """Per-layer figures of the traced iteration (0 for unused layers)."""
    t = tracer.layer_totals()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name: str) -> Dict[str, float]:
        return t.get(name, zero)

    result = out.result
    m: Dict[str, float] = {
        "sim.run_s": get("sim.run")["busy_s"],
        "sim.self_s": get("sim.run")["self_s"],
        "sim.scheduler.timers": tracer.counters.get("sim.scheduler.timers", 0),
        "sim.network.transmits": get("sim.network")["calls"],
        "sim.network.busy_s": get("sim.network")["busy_s"],
    }
    for name in STAR_SCHEMES:
        st = result.stats.get(name)
        m[f"clocks.{name}.busy_s"] = get(f"clocks.{name}")["busy_s"]
        m[f"clocks.{name}.calls"] = get(f"clocks.{name}")["calls"]
        m[f"clocks.{name}.control_messages"] = st.control_messages if st else 0
        m[f"clocks.{name}.payload_elements"] = st.app_payload_elements if st else 0
        m[f"clocks.{name}.control_elements"] = st.control_elements if st else 0
    m["obs.metrics.observes"] = get("obs.metrics")["calls"]
    m["obs.metrics.busy_s"] = get("obs.metrics")["busy_s"]
    m["core.store.events"] = get("core.store")["calls"]
    m["core.store.busy_s"] = get("core.store")["busy_s"]
    m["core.oracle.build_s"] = get("core.oracle.build")["busy_s"]
    m["core.oracle.peak_alloc_mb"] = (
        oracle_peak_alloc_mb(result.execution) if setup.spec.validate else 0.0
    )
    for name in STAR_SCHEMES:
        m[f"validate.{name}.busy_s"] = get(f"validate.{name}")["busy_s"]
    reg = result.metrics
    hits = reg.counter("oracle.query_cache_hit").value
    lookups = hits + reg.counter("oracle.query_cache_miss").value
    m.update(
        {
            "core.incremental.appends": get("core.incremental.append")["calls"]
            + tracer.counters.get("core.incremental.sync_rows", 0),
            "core.incremental.append_s": get("core.incremental.append")["busy_s"]
            + get("core.incremental.sync")["busy_s"],
            "core.incremental.flushes": get("core.incremental.flush")["calls"],
            "core.incremental.flush_s": get("core.incremental.flush")["self_s"],
            "core.incremental.queries": get("core.incremental.query")["calls"],
            "core.incremental.query_s": get("core.incremental.query")["self_s"],
            "core.incremental.cache_lookups": lookups,
            "core.incremental.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "applications.record_update.calls": get("applications.record_update")[
                "calls"
            ],
            "applications.record_update.self_s": get("applications.record_update")[
                "self_s"
            ],
            "applications.pairs_checked": (
                setup.workload.detector.pairs_checked if setup.spec.online else 0
            ),
            "topology.best_cover_s": get("topology.best_cover")["busy_s"],
            "trace.pipeline_s": get("pipeline")["busy_s"],
            "trace.unattributed_s": get("pipeline")["self_s"],
            "trace.spans": len(tracer),
        }
    )
    return m


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--spans-out", default=None,
                    help="write the traced run's spans here")
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    sys.path.insert(0, SRC)
    spec = spec_for(args.workload, args.scale)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup = Setup(spec, args.seed, tracer)
    setup_s = time.monotonic() - spawned_at
    rss_setup = max_rss_bytes()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        install_layer_spans(tracer, setup)
    try:
        out = run_pipeline(setup, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    rss_peak = max_rss_bytes()
    events = out.result.execution.n_events

    from repro.core.backend import resolve_backend, resolve_store

    record = {
        "setup_s": setup_s,
        "pipeline_s": out.pipeline_s,
        "events": events,
        "events_per_s": events / out.pipeline_s,
        "peak_rss_mb": rss_peak / 2**20,
        "rss_bytes_per_event": (rss_peak - rss_setup) / events,
        "backend": resolve_backend(events),
        "store": resolve_store(),
        "cover_size": len(setup.cover),
    }
    if spec.online:
        lat = sorted(setup.workload.check_latency_s)
        record["update_check_samples"] = len(lat)
        record["update_check_p50_us"] = percentile(lat, 0.50) * 1e6
        record["update_check_p99_us"] = percentile(lat, 0.99) * 1e6
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, setup, out)
        if args.spans_out:
            tracer.write(args.spans_out)
            record["spans_out"] = args.spans_out

    t0 = perf_counter()
    tally, fp = check(setup, out, args.seed)
    record.update(
        {
            "check_s": perf_counter() - t0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "fingerprint": fp,
        }
    )
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
