"""Byte-identity of the columnar event store against the object pipeline.

Two families of properties, on arbitrary (including faulted) executions:

- **storage parity** — replaying one op list through the object
  :class:`~repro.core.execution.ExecutionBuilder` and the columnar
  :class:`~repro.core.colstore.ColumnarExecutionBuilder` yields the same
  execution (event ids, kinds, message fates), and
  :meth:`EventStore.from_execution` records the object execution
  column-for-column identically to the live columnar build;
- **append-path parity** — per-event appends, whole-range
  :meth:`~repro.core.incremental.IncrementalHBOracle.sync_store` drains
  and ``upto``-capped drains all answer like the from-scratch batch
  oracle (vector clocks, relation counts, frozen rows) with identical
  ``oracle.*`` metric totals.

These are the property-based teeth behind the conformance fuzzer's
``store-differential`` invariant.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.colstore import (
    KIND_RECEIVE,
    ColumnarExecutionBuilder,
    EventStore,
)
from repro.core.incremental import IncrementalHBOracle
from repro.core.random_executions import execution_from_ops, random_ops
from repro.faults.models import GilbertElliottLoss
from repro.obs.metrics import MetricsRegistry
from repro.topology import generators

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires numpy >= 2.0"
)

def _graph(seed: int):
    kind = seed % 3
    if kind == 0:
        return generators.star(2 + seed % 6)
    if kind == 1:
        return generators.random_tree(3 + seed % 5, random.Random(seed))
    return generators.cycle(3 + seed % 4)


def _ops(graph, seed: int):
    # every fourth example runs under a bursty-loss fault schedule so
    # undelivered messages exercise the store's fate columns
    fault = (
        GilbertElliottLoss(
            p_enter_burst=0.25, p_exit_burst=0.3, loss_burst=0.9
        )
        if seed % 4 == 0
        else None
    )
    return random_ops(
        graph, random.Random(seed), steps=30 + seed % 60,
        deliver_all=(seed % 2 == 0), fault=fault,
    )


def _assert_answers(oracle, ex):
    """Live answers of a streamed oracle vs the pure batch oracle."""
    ref = HappenedBeforeOracle(ex, backend="pure")
    assert oracle.n_events == ex.n_events
    assert oracle.relation_counts() == ref.relation_counts()
    for ev in ex.all_events():
        assert oracle.vector_clock(ev.eid) == ref.vector_clock(ev.eid)


def _feed_per_event(oracle, store):
    for row in range(store.n_events):
        eid = store.event_id(row)
        if store.kind_of(row) == KIND_RECEIVE:
            oracle.append_receive(
                eid, store.event_id(store.send_row_of(store.msg_of(row)))
            )
        else:
            oracle.append_local(eid)
    oracle.flush()
    return oracle


class TestStorageParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_columnar_build_matches_object_build(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex_obj = execution_from_ops(graph, ops)
        ex_col = execution_from_ops(
            graph, ops,
            builder=ColumnarExecutionBuilder(graph.n_vertices, graph),
        )
        assert ex_col.n_events == ex_obj.n_events
        obj_events = list(ex_obj.all_events())
        col_events = list(ex_col.all_events())
        assert [str(e.eid) for e in col_events] == [
            str(e.eid) for e in obj_events
        ]
        assert [e.kind for e in col_events] == [e.kind for e in obj_events]
        assert [str(e.eid) for e in ex_col.delivery_order()] == [
            str(e.eid) for e in ex_obj.delivery_order()
        ]
        assert len(ex_col.undelivered_messages()) == len(
            ex_obj.undelivered_messages()
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_from_execution_matches_live_columnar_build(self, seed):
        # row order may legitimately differ (from_execution records in
        # all_events() order, the live build in op order — both are
        # causally consistent), so compare keyed by event id
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex_obj = execution_from_ops(graph, ops)
        live = execution_from_ops(
            graph, ops,
            builder=ColumnarExecutionBuilder(graph.n_vertices, graph),
        ).store
        recorded = EventStore.from_execution(ex_obj)
        assert recorded.n_events == live.n_events
        assert recorded.n_messages == live.n_messages

        def shape(store):
            events = {
                str(store.event_id(r)): (
                    store.proc_of(r), store.seq_of(r), store.kind_of(r)
                )
                for r in range(store.n_events)
            }
            msgs = sorted(
                (
                    str(store.event_id(store.send_row_of(m))),
                    str(store.event_id(store.recv_row_of(m)))
                    if store.recv_row_of(m) >= 0
                    else None,
                )
                for m in range(store.n_messages)
            )
            return events, msgs

        assert shape(recorded) == shape(live)


class TestAppendPathParity:
    PATHS = ("per_event", "sync", "chunked")

    def _assert_parity(self, graph, ops, backend):
        ex = execution_from_ops(graph, ops)
        store = EventStore.from_execution(ex)
        ref = HappenedBeforeOracle(ex, backend=backend)
        ref_masks = ref.past_masks()
        regs = {}
        for name in self.PATHS:
            regs[name] = MetricsRegistry()
            oracle = IncrementalHBOracle(
                graph.n_vertices, registry=regs[name]
            )
            if name == "sync":
                oracle.sync_store(store)
            elif name == "chunked":
                upto = 0
                while upto < store.n_events:
                    upto = min(upto + 7, store.n_events)
                    oracle.sync_store(store, upto=upto)
            else:
                _feed_per_event(oracle, store)
            assert oracle.relation_counts() == ref.relation_counts(), name
            for ev in ex.all_events():
                assert oracle.vector_clock(ev.eid) == ref.vector_clock(
                    ev.eid
                ), name
            frozen = oracle.freeze(ex, backend=backend)
            assert frozen.backend == backend, name
            assert frozen.past_masks() == ref_masks, name
        base = regs["per_event"]
        for name, reg in regs.items():
            for metric in ("oracle.appends", "oracle.cut_rows"):
                assert reg.counter_value(metric) == base.counter_value(
                    metric
                ), (name, metric)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pure_paths_byte_identical(self, seed):
        graph = _graph(seed)
        self._assert_parity(graph, _ops(graph, seed), "pure")

    @needs_numpy
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_numpy_paths_byte_identical(self, seed):
        graph = _graph(seed)
        self._assert_parity(graph, _ops(graph, seed), "numpy")

    @needs_numpy
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_numpy_freeze_target_matches(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex = execution_from_ops(graph, ops)
        store = EventStore.from_execution(ex)
        oracle = IncrementalHBOracle(graph.n_vertices)
        oracle.sync_store(store)
        frozen = oracle.freeze(ex, backend="numpy")
        assert frozen.past_masks() == HappenedBeforeOracle(
            ex, backend="numpy"
        ).past_masks()


class TestSyncStoreContract:
    def _store(self, seed=3, steps=40):
        graph = generators.star(4)
        ex = execution_from_ops(
            graph, random_ops(graph, random.Random(seed), steps=steps,
                              deliver_all=True)
        )
        return graph, ex, EventStore.from_execution(ex)

    def test_rejects_process_count_mismatch(self):
        _graph_, _ex, store = self._store()
        oracle = IncrementalHBOracle(7)
        with pytest.raises(ValueError):
            oracle.sync_store(store)

    def test_rejects_second_store(self):
        _graph_, _ex, store = self._store()
        _graph2, _ex2, other = self._store(seed=9)
        oracle = IncrementalHBOracle(4)
        oracle.sync_store(store)
        with pytest.raises(ValueError):
            oracle.sync_store(other)

    def test_upto_is_incremental_and_idempotent(self):
        _graph_, ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        half = store.n_events // 2
        assert oracle.sync_store(store, upto=half) == half
        assert oracle.sync_store(store, upto=half) == 0
        assert oracle.sync_store(store) == store.n_events - half
        assert oracle.sync_store(store) == 0
        _assert_answers(oracle, ex)

    def test_rejects_rows_that_do_not_continue_sequences(self):
        _graph_, _ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        # pre-consume one event per process manually: the store's rows no
        # longer continue the oracle's per-process sequences
        oracle.append_local(store.event_id(0))
        with pytest.raises(ValueError):
            oracle.sync_store(store)

    def test_bind_store_drains_on_flush(self):
        _graph_, ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        oracle.bind_store(store)
        oracle.flush()
        assert oracle.sync_store(store) == 0
        _assert_answers(oracle, ex)


class TestPureFallback:
    """The store pipeline must work end to end with numpy unavailable."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sync_store_pure_engine(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex = execution_from_ops(graph, ops)
        store = EventStore.from_execution(ex)
        oracle = IncrementalHBOracle(graph.n_vertices)
        oracle.sync_store(store)
        _assert_answers(oracle, ex)

    def test_simulation_columnar_without_numpy(self, monkeypatch):
        import repro.core.backend as backend

        monkeypatch.setattr(backend, "numpy_available", lambda: False)
        from repro.clocks import VectorClock
        from repro.sim.runner import Simulation
        from repro.sim.workload import UniformWorkload

        graph = generators.star(4)
        sim = Simulation(
            graph, seed=11, clocks={"v": VectorClock(4)},
            online_oracle=True, event_store="columnar",
        )
        res = sim.run(UniformWorkload(events_per_process=15))
        oracle = res.online_oracle
        assert oracle is not None
        masks = res.hb_oracle().past_masks()
        assert masks == HappenedBeforeOracle(res.execution).past_masks()
