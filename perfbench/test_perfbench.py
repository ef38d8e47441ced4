"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every workload passes its checks at a tiny size, planted defects drive the
failure count above zero, and the runner emits every metric that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pipeline  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(pipeline.WORKLOADS)


def run_tiny(workload: str, seed: int = 5, tracer=None):
    setup = pipeline.Setup(pipeline.spec_for(workload, "tiny"), seed, tracer)
    if tracer is not None:
        pipeline.install_layer_spans(tracer, setup)
    try:
        out = pipeline.run_pipeline(setup, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    return setup, out, *pipeline.check(setup, out, seed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    setup, out, tally, fp = run_tiny(workload)
    assert tally.attempted > 100
    assert tally.failed == 0, tally.failures
    assert fp["events"] == out.result.execution.n_events > 0
    if setup.spec.online:
        assert fp["updates"] > 0 and fp["pairs_checked"] > 0


def test_fingerprint_repeats_for_a_seed():
    assert run_tiny("online-conflicts", 9)[3] == run_tiny("online-conflicts", 9)[3]
    assert run_tiny("star-simulate", 9)[3] != run_tiny("star-simulate", 10)[3]


def test_planted_wrong_comparator_is_caught(monkeypatch):
    from repro.clocks.vector import VectorTimestamp

    # a classic slip: "every entry smaller" instead of "<= and not equal"
    monkeypatch.setattr(
        VectorTimestamp,
        "precedes",
        lambda self, other: all(a < b for a, b in zip(self.vector, other.vector)),
    )
    _setup, _out, tally, _fp = run_tiny("star-simulate")
    assert tally.failed > 0
    assert all(f.startswith("vector:") for f in tally.failures)


def test_planted_wrong_conflict_verdict_is_caught(monkeypatch):
    from repro.applications.concurrent_updates import (
        OnlineConcurrentUpdateDetector,
    )

    original = OnlineConcurrentUpdateDetector.record_update

    def drops_first_conflict(self, eid, key):
        fresh = original(self, eid, key)
        if fresh and not getattr(self, "planted", False):
            self.planted = True
            self._conflicts.discard(frozenset((fresh[0], eid)))
        return fresh

    monkeypatch.setattr(
        OnlineConcurrentUpdateDetector, "record_update", drops_first_conflict
    )
    _setup, _out, tally, _fp = run_tiny("online-conflicts")
    assert tally.failed == 1
    assert tally.failures[0].startswith("conflict")


def test_theorem_4_2_bound_is_checked():
    setup, out, _tally, _fp = run_tiny("star-validate")
    tally = reference.CheckTally()
    ref = reference.ReferenceClocks(out.result.execution)
    from repro.core.events import EventId

    # an empty "cover" gives the bound 2 and is not a cover of the star
    reference.check_assignments(
        tally, ref, out.result.assignments, {"inline": ()}, setup.graph, EventId
    )
    assert tally.failed == 2


def test_reference_clocks_match_textbook_example():
    from repro.core.events import EventId
    from repro.core.execution import ExecutionBuilder

    b = ExecutionBuilder(2)
    b.local(0)
    m = b.send(0, 1)
    b.local(1)
    b.receive(1, m)
    ref = reference.ReferenceClocks(b.freeze())
    assert ref.clocks[(1, 2)] == (2, 2)
    assert ref.happened_before(EventId(0, 1), EventId(1, 2))
    assert not ref.happened_before(EventId(1, 1), EventId(0, 2))
    assert not ref.happened_before(EventId(0, 1), EventId(0, 1))


def test_tracer_self_time_excludes_children():
    tr = Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tr.traced(leaf, "leaf")
    with tr.span("root"):
        for _ in range(5):
            traced_leaf()
        with tr.span("root"):
            traced_leaf()
    totals = tr.layer_totals()
    assert totals["leaf"]["calls"] == 6
    assert totals["root"]["calls"] == 2
    root, leaf_t = totals["root"], totals["leaf"]
    # the nested root is not counted twice in busy time
    assert root["busy_s"] == pytest.approx(
        root["self_s"] + leaf_t["busy_s"], rel=1e-9, abs=1e-12
    )


def test_traced_layers_account_for_the_pipeline():
    tr = Tracer()
    setup, out, tally, _fp = run_tiny("online-conflicts", tracer=tr)
    assert tally.failed == 0
    m = pipeline.layer_metrics(tr, setup, out)
    assert m["core.incremental.appends"] == out.result.execution.n_events
    assert m["applications.record_update.calls"] == len(setup.workload.updates)
    assert m["core.store.events"] == out.result.execution.n_events
    assert m["trace.unattributed_s"] < 0.01 * m["trace.pipeline_s"]


def test_host_probe_answers_and_stops():
    import run

    with run.HostProbe() as probe:
        first, second = probe.time(), probe.time()
    assert first > 0 and second > 0
    assert probe.proc.returncode == 0


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_emits_every_named_metric(trace, tmp_path):
    # run from a copy so the per-checkout fingerprint record stays out of
    # the repository
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = benchmark_spec()
    for wl in spec["workloads"]:
        proc = run_cli(tmp_path, "--workload", wl["name"], "--seed", "3",
                       "--seconds", "0.05", "--trace", trace, "--scale", "tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        wanted = spec["end_to_end" if trace == "0" else "per_layer"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if trace == "0":
                assert result["metrics"][m["name"]]["value"] > 0


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_cli(tmp_path, "--workload", "star-validate", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
