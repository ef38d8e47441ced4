"""Frontier-certificate validation against the exhaustive reference.

Three layers of evidence that :meth:`TimestampAssignment.validate`'s
O(m·n) frontier path reports exactly what the pairwise reference reports:

- each vectorized pair comparator equals scalar ``Timestamp.precedes`` on
  every pair of random timestamp lists (∞ posts, equal vectors,
  same-process pairs, centre and cover targets);
- on random executions whose assignments get one random field corrupted,
  ``validate()`` equals ``validate_pairwise()`` field for field, and the
  campaign exercises both the frontier-accepted and the fallback outcome;
- validating the three star schemes never builds the dense bit matrix.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocks import INFINITY, LamportClock, VectorClock, replay_one
from repro.clocks.inline_cover import CoverInlineClock, CoverTimestamp
from repro.clocks.inline_star import StarInlineClock, StarTimestamp
from repro.clocks.replay import TimestampAssignment
from repro.clocks.vector import VectorTimestamp
from repro.conformance.mutate import corrupt_one
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.backend import numpy_available
from repro.core.random_executions import random_execution
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim import ControlTransport, Simulation, UniformWorkload
from repro.topology import generators

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="requires numpy >= 2.0"
)


def _frontier():
    from repro.clocks import frontier

    return frontier


def _assert_matches_scalar(timestamps):
    """Both call shapes of ``precedes`` against the scalar comparator."""
    import numpy as np

    pairs = _frontier().PAIRS[type(timestamps[0])].of(timestamps)
    assert pairs is not None
    m = len(timestamps)
    want = np.array(
        [[timestamps[i].precedes(timestamps[j]) for i in range(m)]
         for j in range(m)]
    )
    # frontier_check's call shape: one target per row, sources along it
    src = np.tile(np.arange(m), (m, 1))
    dst = np.arange(m)[:, None]
    assert (pairs.precedes(src, dst) == want).all()
    flat = pairs.precedes(src.ravel(), np.repeat(np.arange(m), m))
    assert (flat.reshape(m, m) == want).all()


@st.composite
def vector_stamps(draw):
    n = draw(st.integers(1, 4))
    # values from 0..2 make equal and comparable vectors common
    vec = st.tuples(*[st.integers(0, 2)] * n)
    return [VectorTimestamp(v) for v in draw(st.lists(vec, min_size=1, max_size=12))]


@st.composite
def star_stamps(draw):
    center = draw(st.integers(0, 2))
    out = []
    for _ in range(draw(st.integers(1, 12))):
        pid = draw(st.integers(0, 3))
        ctr = draw(st.integers(1, 4))
        if pid == center:
            out.append(StarTimestamp(pid, ctr, ctr, None, center))
        else:
            pre = draw(st.integers(0, 4))
            post = draw(st.sampled_from([INFINITY, 1, 2, 3, 4]))
            out.append(StarTimestamp(pid, ctr, pre, post, center))
    return out


@st.composite
def cover_stamps(draw):
    k = draw(st.integers(0, 3))
    cover = tuple(range(k))
    entry = st.integers(0, 3)
    post = st.sampled_from([INFINITY, 0, 1, 2, 3])
    out = []
    for _ in range(draw(st.integers(1, 12))):
        mpre = tuple(draw(entry) for _ in range(k))
        mpost = None
        if draw(st.booleans()):
            mpost = tuple(draw(post) for _ in range(k))
        out.append(
            CoverTimestamp(
                draw(st.integers(0, 3)), draw(st.integers(1, 4)), mpre,
                mpost, cover,
            )
        )
    return out


class TestComparators:
    @settings(max_examples=60, deadline=None)
    @given(vector_stamps())
    def test_vector(self, timestamps):
        _assert_matches_scalar(timestamps)

    @settings(max_examples=60, deadline=None)
    @given(star_stamps())
    def test_star(self, timestamps):
        _assert_matches_scalar(timestamps)

    @settings(max_examples=60, deadline=None)
    @given(cover_stamps())
    def test_cover(self, timestamps):
        _assert_matches_scalar(timestamps)

    def test_columns_refuse_inexact_input(self):
        frontier = _frontier()
        assert frontier.VectorPairs.of(
            [VectorTimestamp((1, 2)), VectorTimestamp((1,))]
        ) is None
        assert frontier.VectorPairs.of([VectorTimestamp((2**60, 0))]) is None
        assert frontier.VectorPairs.of(
            [VectorTimestamp((float("nan"), 0))]
        ) is None
        mixed = [
            StarTimestamp(1, 1, 0, INFINITY, 0),
            StarTimestamp(1, 1, 0, INFINITY, 2),
        ]
        assert frontier.StarPairs.of(mixed) is None

    def test_integer_columns_narrowed(self):
        import numpy as np

        pairs = _frontier().VectorPairs.of([VectorTimestamp((1, 70_000))])
        assert pairs.v.dtype == np.int32
        pairs = _frontier().VectorPairs.of([VectorTimestamp((1, INFINITY))])
        assert pairs.v.dtype == np.float64


def _corrupted_cases(seed):
    """A random execution, its exact assignments, one corrupted each."""
    rng = random.Random(seed)
    star = rng.random() < 0.5
    n = rng.randrange(2, 6)
    graph = generators.star(n) if star else generators.random_tree(n, rng)
    ex = random_execution(
        graph, rng, steps=rng.randrange(1, 30),
        deliver_all=rng.random() < 0.5,
    )
    clocks = [VectorClock(n), CoverInlineClock(graph)]
    if star:
        clocks.append(StarInlineClock(n))
    for clock in clocks:
        asg = replay_one(ex, clock)
        yield ex, asg, corrupt_one(asg, rng)[0]


class TestSoundness:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_validate_equals_pairwise_under_corruption(self, seed):
        for ex, asg, bad in _corrupted_cases(seed):
            fast = HappenedBeforeOracle(ex, backend="numpy")
            assert asg.validate(fast) == asg.validate_pairwise(fast)
            assert bad.validate(fast) == bad.validate_pairwise(fast)

    def test_campaign_reaches_every_outcome(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            for seed in range(40):
                for ex, _asg, bad in _corrupted_cases(seed):
                    fast = HappenedBeforeOracle(ex, backend="numpy")
                    assert bad.validate(fast) == bad.validate_pairwise(fast)
        assert reg.counter_value("validate.frontier_runs") > 0
        for reason in ("certificate", "frontier"):
            assert reg.counter_value("validate.fallbacks", reason=reason) > 0


def _two_process_send():
    """p0 sends to p1, then p1 has one local event."""
    b = ExecutionBuilder(2)
    mid = b.send(0, 1)
    b.receive(1, mid)
    b.local(1)
    return b.freeze()


def _with_vectors(ex, vectors):
    asg = replay_one(ex, VectorClock(ex.n_processes))
    stamps = dict(zip((ev.eid for ev in ex.all_events()), vectors))
    return TimestampAssignment(
        asg.algorithm, ex,
        {eid: VectorTimestamp(v) for eid, v in stamps.items()}, set(),
    )


class TestFallbackReasons:
    def _reasons(self, asg, oracle, **kw):
        reg = MetricsRegistry()
        with use_registry(reg):
            report = asg.validate(oracle, **kw)
        assert report == asg.validate_pairwise(oracle, **kw)
        frontier = reg.counter_value("validate.frontier_runs")
        reasons = {
            r for r in ("subset", "backend", "scheme", "certificate",
                        "frontier")
            if reg.counter_value("validate.fallbacks", reason=r)
        }
        return report, frontier, reasons

    def test_each_reason(self):
        ex = _two_process_send()
        fast = HappenedBeforeOracle(ex, backend="numpy")
        pure = HappenedBeforeOracle(ex, backend="pure")
        good = replay_one(ex, VectorClock(2))
        assert self._reasons(good, fast)[1:] == (1, set())
        assert self._reasons(good, pure)[1:] == (0, {"backend"})
        ids = [ev.eid for ev in ex.all_events()]
        assert self._reasons(good, fast, events=ids[:2])[1:] == (
            0, {"subset"},
        )
        lamport = replay_one(ex, LamportClock(2))
        assert self._reasons(lamport, fast)[2] == {"scheme"}
        # p1's vectors decrease: no prefix certificate
        dec = _with_vectors(ex, [(1, 0), (1, 2), (1, 1)])
        report, _, reasons = self._reasons(dec, fast)
        assert reasons == {"certificate"} and not report.characterizes
        # monotone, but the send now claims a p1 event it never saw
        wide = _with_vectors(ex, [(1, 2), (1, 1), (1, 2)])
        report, _, reasons = self._reasons(wide, fast)
        assert reasons == {"frontier"}
        assert (ids[0], ids[1]) in report.false_negatives


class TestNoDenseMatrix:
    def test_star_validation_builds_no_dense_matrix(self):
        graph = generators.star(32)
        clocks = {
            "inline": CoverInlineClock(graph),
            "inline-star": StarInlineClock(32),
            "vector": VectorClock(32),
        }
        reg = MetricsRegistry()
        with use_registry(reg):
            result = Simulation(
                graph, seed=3, clocks=clocks,
                control_transport=ControlTransport.EAGER, metrics=reg,
            ).run(UniformWorkload(events_per_process=20))
            oracle = result.hb_oracle()
            assert oracle.backend == "numpy"
            for asg in result.assignments.values():
                assert asg.validate(oracle).characterizes
            assert reg.counter_value("validate.frontier_runs") == 3
            assert reg.counter_value("oracle.dense_builds") == 0
            # the dense view is built on first use, once
            oracle.past_masks()
            oracle.past_matrix()
            assert reg.counter_value("oracle.dense_builds") == 1


class TestCuts:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_cuts_are_the_strict_vector_clocks(self, seed):
        rng = random.Random(seed)
        graph = generators.erdos_renyi(rng.randrange(1, 6), 0.6, rng)
        ex = random_execution(graph, rng, steps=40)
        fast = HappenedBeforeOracle(ex, backend="numpy")
        pure = HappenedBeforeOracle(ex, backend="pure")
        assert pure.past_cuts() is None
        cuts = fast.past_cuts()
        for j, eid in enumerate(fast.event_order):
            want = list(pure.vector_clock(eid))
            want[eid.proc] -= 1
            assert cuts[j].tolist() == want
        assert int(cuts.sum()) == pure.relation_counts()[0]
