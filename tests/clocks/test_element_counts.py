"""Closed-form size accounting agrees with the generic leaf walk.

Schemes with fixed payload and timestamp shapes count elements in closed
form (``payload_elements``, ``Timestamp.n_elements``) and give encoded bit
widths per element count (``bits_for_elements``).  On random executions,
every registered scheme's counts must equal the generic definitions:
``_count_elements`` on each application and control payload,
``len(elements())`` on each timestamp, and ``timestamp_bits`` per timestamp.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.clocks.base import _count_elements
from repro.conformance.registry import schemes_for, star_center_of
from repro.core.random_executions import random_execution
from repro.topology import generators


def _graph(kind: str, n: int, rng: random.Random):
    if kind == "star":
        return generators.star(n)
    if kind == "tree":
        return generators.random_tree(n, rng)
    return generators.erdos_renyi(n, 0.4, rng)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["star", "tree", "random"]),
    n=st.integers(2, 7),
    fifo=st.booleans(),
)
def test_closed_forms_match_generic_counts(seed, kind, n, fifo):
    rng = random.Random(seed)
    graph = _graph(kind, n, rng)
    execution = random_execution(graph, rng, steps=40, fifo=fifo)
    max_events = max(1, execution.max_events_per_process())
    center = star_center_of(graph)
    for spec in schemes_for(graph, fifo):
        algo = spec.build(graph, center if center is not None else 0)
        payloads = {}
        for ev in execution.delivery_order():
            if ev.is_local:
                algo.on_local(ev)
            elif ev.is_send:
                payload = payloads[ev.msg_id] = algo.on_send(ev)
                assert algo.payload_elements(payload) == _count_elements(
                    payload
                ), spec.name
            else:
                for cm in algo.on_receive(ev, payloads.pop(ev.msg_id)):
                    assert algo.payload_elements(
                        cm.payload
                    ) == _count_elements(cm.payload), spec.name
                    algo.on_control(cm.src, cm.dst, cm.payload)
        algo.finalize_at_termination()
        for ev in execution.all_events():
            ts = algo.timestamp(ev.eid)
            assert ts.n_elements == len(ts.elements()), spec.name
            bits = algo.bits_for_elements(ts.n_elements, max_events)
            assert bits is None or bits == algo.timestamp_bits(
                ts, max_events
            ), spec.name
