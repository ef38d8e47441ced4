"""Matrix-based validation against the pairwise reference.

``TimestampAssignment.validate`` compares a scheme's full precedes-matrix
against the oracle's causal-past rows with XOR + popcount; the contract is
a :class:`ValidationReport` identical — field for field, including mismatch
ordering — to ``validate_pairwise``.  These tests pin that contract for
every scheme (word-parallel fast paths and the pairwise fallback alike),
and pin the ``validate_sampled`` counting fix.
"""

import random

import pytest

from repro.baselines import ClusterClock, EncodedClock, PlausibleClock
from repro.baselines.hlc import HybridLogicalClock
from repro.clocks import (
    CoverInlineClock,
    LamportClock,
    StarInlineClock,
    VectorClock,
    replay,
)
from repro.clocks.base import precedes_matrix_rows
from repro.core import HappenedBeforeOracle
from repro.core.random_executions import random_execution
from repro.topology import generators
from repro.topology.vertex_cover import best_cover


def algorithms_for(graph):
    n = graph.n_vertices
    algos = [
        CoverInlineClock(graph, tuple(best_cover(graph))),
        VectorClock(n),
        LamportClock(n),
        HybridLogicalClock(n),
        PlausibleClock(n, max(1, n // 2)),
        ClusterClock(n),
        EncodedClock(n),
    ]
    if graph.n_edges == n - 1 and all(
        graph.has_edge(0, v) for v in range(1, n)
    ):
        algos.append(StarInlineClock(n, center=0))
    return algos


GRAPHS = [
    generators.star(6),
    generators.double_star(2, 3),
    generators.cycle(5),
    generators.erdos_renyi(6, 0.4, random.Random(2)),
]


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n_vertices}")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_identical_to_pairwise(graph, seed):
    ex = random_execution(
        graph, random.Random(seed), steps=80, deliver_all=True
    )
    oracle = HappenedBeforeOracle(ex)
    for asg in replay(ex, algorithms_for(graph)):
        assert asg.validate(oracle) == asg.validate_pairwise(oracle), (
            asg.algorithm.name
        )


def test_validate_identical_on_event_subsets():
    graph = generators.star(5)
    ex = random_execution(graph, random.Random(7), steps=60,
                          deliver_all=True)
    oracle = HappenedBeforeOracle(ex)
    ids = [ev.eid for ev in ex.all_events()]
    rng = random.Random(9)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    subsets = [ids[::2], shuffled[: len(ids) // 2], ids[:1], []]
    for asg in replay(ex, algorithms_for(graph)):
        for subset in subsets:
            assert asg.validate(oracle, events=subset) == (
                asg.validate_pairwise(oracle, events=subset)
            ), (asg.algorithm.name, len(subset))


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n_vertices}")
def test_precedes_matrix_agrees_with_pairwise_precedes(graph):
    """Every word-parallel fast path is exactly the pairwise comparison."""
    ex = random_execution(graph, random.Random(13), steps=70,
                          deliver_all=True)
    for asg in replay(ex, algorithms_for(graph)):
        ts = [t for _eid, t in asg.items()]
        rows = precedes_matrix_rows(ts)
        for j, f in enumerate(ts):
            for i, e in enumerate(ts):
                expected = i != j and e.precedes(f)
                assert bool(rows[j] >> i & 1) == expected, (
                    asg.algorithm.name, i, j,
                )


def test_precedes_matrix_counter_ties_and_foreign_ids():
    """Corrupted timestamps may repeat a local counter or carry another
    process's id; the word-parallel matrix must still equal pairwise
    ``precedes`` (equal counters stay unordered, and a non-cover source
    uses ``mctr`` against every event with its id)."""
    from repro.clocks import INFINITY
    from repro.clocks.inline_cover import CoverTimestamp
    from repro.clocks.inline_star import StarTimestamp

    star = [
        StarTimestamp(1, 2, 0, INFINITY, 0),
        StarTimestamp(1, 2, 0, INFINITY, 0),
        StarTimestamp(1, 3, 1, INFINITY, 0),
    ]
    cover = [
        CoverTimestamp(1, 2, (0,), (INFINITY,), (0,)),
        CoverTimestamp(1, 2, (0,), (INFINITY,), (0,)),
        CoverTimestamp(1, 3, (1,), None, (0,)),
    ]
    for ts in (star, cover):
        rows = precedes_matrix_rows(ts)
        for j, f in enumerate(ts):
            for i, e in enumerate(ts):
                assert bool(rows[j] >> i & 1) == (i != j and e.precedes(f))


def test_precedes_matrix_none_falls_back_to_pairwise():
    """A scheme without a fast path still validates via pairwise calls."""
    from repro.baselines.encoded import EncodedTimestamp

    graph = generators.star(4)
    ex = random_execution(graph, random.Random(1), steps=30,
                          deliver_all=True)
    asg = replay(ex, [EncodedClock(4)])[0]
    ts = [t for _eid, t in asg.items()]
    assert EncodedTimestamp.precedes_matrix(ts) is None
    report = asg.validate()
    assert report == asg.validate_pairwise()
    assert report.characterizes


def test_validate_sampled_counts_each_pair_once():
    """The sampled counters must follow the report's documented semantics:
    one classification per sampled pair, both directions checked."""
    graph = generators.star(6)
    ex = random_execution(graph, random.Random(21), steps=100,
                          deliver_all=True)
    oracle = HappenedBeforeOracle(ex)
    lamport, vector = replay(ex, [LamportClock(6), VectorClock(6)])

    n_pairs = 500
    report = lamport.validate_sampled(oracle, n_pairs=n_pairs, seed=4)
    assert report.n_ordered_pairs + report.n_concurrent_pairs == n_pairs
    # Lamport totally orders, so every concurrent sampled pair yields
    # exactly one false positive (one of the two checked directions).
    assert len(report.false_positives) == report.n_concurrent_pairs
    assert report.false_positive_rate == pytest.approx(
        len(report.false_positives) / (2 * report.n_concurrent_pairs)
    )

    exact = vector.validate_sampled(oracle, n_pairs=n_pairs, seed=4)
    assert exact.n_ordered_pairs + exact.n_concurrent_pairs == n_pairs
    assert exact.characterizes
