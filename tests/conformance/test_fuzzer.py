"""The differential conformance fuzzer: invariants, detection, shrinking."""

import random

import pytest

from repro.clocks.lamport import LamportClock, LamportTimestamp
from repro.conformance import (
    ConformanceReport,
    SchemeSpec,
    all_schemes,
    check_execution,
    fuzz,
    generate_trial,
    schemes_for,
    shrink_mismatch,
    shrink_ops,
    star_center_of,
)
from repro.core.backend import numpy_available
from repro.core.random_executions import (
    execution_from_ops,
    normalize_ops,
    random_execution,
    random_ops,
)
from repro.faults.models import GilbertElliottLoss
from repro.topology import generators


class TestOpsLayer:
    def test_ops_round_trip_matches_direct_generation(self):
        g = generators.star(5)
        ex_direct = random_execution(
            g, random.Random(7), steps=30, deliver_all=True
        )
        ops = random_ops(g, random.Random(7), steps=30, deliver_all=True)
        ex_ops = execution_from_ops(g, ops)
        assert [str(e.eid) for e in ex_direct.all_events()] == [
            str(e.eid) for e in ex_ops.all_events()
        ]
        assert len(ex_direct.messages) == len(ex_ops.messages)

    def test_normalize_drops_orphaned_receives(self):
        ops = [("send", 0, 0, 1), ("recv", 0), ("recv", 1), ("local", 1)]
        assert normalize_ops(ops) == [
            ("send", 0, 0, 1), ("recv", 0), ("local", 1)
        ]

    def test_normalize_drops_duplicate_receives(self):
        ops = [("send", 0, 0, 1), ("recv", 0), ("recv", 0)]
        assert normalize_ops(ops) == [("send", 0, 0, 1), ("recv", 0)]

    def test_any_subsequence_normalizes_to_valid_execution(self):
        g = generators.random_tree(5, random.Random(3))
        ops = random_ops(g, random.Random(3), steps=40, deliver_all=True)
        rng = random.Random(9)
        for _ in range(20):
            subset = [op for op in ops if rng.random() < 0.6]
            execution_from_ops(g, normalize_ops(subset))  # must not raise

    def test_fault_model_drops_messages(self):
        g = generators.star(4)
        lossy = GilbertElliottLoss(
            p_enter_burst=1.0, p_exit_burst=0.0, loss_burst=1.0
        )
        ex = random_execution(
            g, random.Random(5), steps=40, deliver_all=True, fault=lossy
        )
        # the burst starts immediately and never exits: nothing delivers
        assert ex.undelivered_messages() == list(ex.messages)

    def test_execution_from_ops_rejects_garbage(self):
        g = generators.star(3)
        with pytest.raises(ValueError):
            execution_from_ops(g, [("recv", 0)])
        with pytest.raises(ValueError):
            execution_from_ops(g, [("warp", 1)])
        with pytest.raises(ValueError):
            execution_from_ops(
                g, [("send", 0, 0, 1), ("send", 0, 0, 2)]
            )


class TestRegistry:
    def test_covers_all_nine_schemes(self):
        names = {s.name for s in all_schemes()}
        assert names == {
            "vector", "vector-sk", "lamport", "inline-star", "inline-cover",
            "plausible", "cluster", "hlc", "encoded",
        }

    def test_star_center_detection(self):
        assert star_center_of(generators.star(5)) == 0
        assert star_center_of(generators.star(2)) == 0
        assert star_center_of(generators.cycle(5)) is None
        assert star_center_of(generators.path(4)) is None

    def test_fifo_and_topology_gating(self):
        star_fifo = {s.name for s in schemes_for(generators.star(4), True)}
        assert "vector-sk" in star_fifo and "inline-star" in star_fifo
        cyc = {s.name for s in schemes_for(generators.cycle(4), False)}
        assert "vector-sk" not in cyc and "inline-star" not in cyc
        assert "inline-cover" in cyc


class TestInvariants:
    def test_clean_on_seeded_trials(self):
        report = fuzz(trials=20, seed=0)
        assert report.ok, report.mismatches[:3]
        assert report.trials == 20
        # every invariant family actually ran (backend-differential and
        # frontier-vs-exhaustive need the optional numpy kernel)
        expected = {
            "exact-vs-hb", "matrix-vs-pairwise", "one-sided",
            "oracle-differential", "finalization-monotonic",
            "store-differential",
        }
        if numpy_available():
            expected |= {"backend-differential", "frontier-vs-exhaustive"}
        assert set(report.checks) == expected

    def test_trial_generation_is_deterministic(self):
        a = generate_trial(0, 7, ("star", "tree", "random"), 40)
        b = generate_trial(0, 7, ("star", "tree", "random"), 40)
        assert a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
        c = generate_trial(1, 7, ("star", "tree", "random"), 40)
        assert a[1] != c[1] or a[3] != c[3]


def _overclaiming_spec():
    """lamport's total order presented as if it characterized causality."""
    return SchemeSpec(
        "lamport-as-exact",
        lambda g, _c: LamportClock(g.n_vertices),
        exact=True,
    )


class _DriftingLamport(LamportClock):
    """Timestamps that silently shift after finalization — a monotonicity
    violation the streaming invariant must catch."""

    name = "drifting-lamport"

    def __init__(self, n):
        super().__init__(n)
        self._ticks = 0

    def on_local(self, ev):
        self._ticks += 1
        return super().on_local(ev)

    def on_send(self, ev):
        self._ticks += 1
        return super().on_send(ev)

    def on_receive(self, ev, payload):
        self._ticks += 1
        return super().on_receive(ev, payload)

    def timestamp(self, eid):
        ts = super().timestamp(eid)
        if ts is None:
            return None
        return LamportTimestamp(ts.clock + self._ticks, ts.proc)


class TestDetection:
    """The fuzzer must actually flag broken schemes, not just pass good ones."""

    def _concurrent_ops(self):
        # two concurrent local events: the smallest execution lamport's
        # total order overclaims
        return [("local", 0), ("local", 1)]

    def test_flags_inexact_scheme_presented_as_exact(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(1), steps=25, deliver_all=True)
        found = check_execution(
            g, ops, schemes=[_overclaiming_spec()]
        )
        assert any(
            mm.invariant == "exact-vs-hb" and mm.scheme == "lamport-as-exact"
            for mm in found
        ), found

    def test_flags_finalization_drift(self):
        g = generators.star(3)
        spec = SchemeSpec(
            "drifting-lamport",
            lambda gr, _c: _DriftingLamport(gr.n_vertices),
            exact=False,
            inline=True,
        )
        ops = random_ops(g, random.Random(2), steps=12, deliver_all=True)
        found = check_execution(g, ops, schemes=[spec])
        assert any(
            mm.invariant == "finalization-monotonic" for mm in found
        ), found

    def test_report_collects_counts(self):
        report = ConformanceReport()
        g = generators.star(3)
        ops = self._concurrent_ops()
        check_execution(g, ops, report=report)
        assert report.events_checked == 2
        assert report.checks["oracle-differential"] == 1
        assert report.checks["store-differential"] == 1


class TestShrinker:
    def test_shrinks_overclaim_to_two_events(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        found = check_execution(g, ops, schemes=[spec])
        assert found
        mm = found[0]

        def still_fails(candidate):
            hits = check_execution(g, candidate, schemes=[spec])
            return any(
                (h.invariant, h.scheme) == (mm.invariant, mm.scheme)
                for h in hits
            )

        small = shrink_ops(mm.ops, still_fails)
        assert still_fails(small)
        # minimal counterexample: two concurrent events
        assert len(small) == 2

    def test_shrink_mismatch_reuses_context(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        mm = check_execution(
            g, ops, schemes=[spec], context={"trial": 99}
        )[0]

        def still_fails(candidate):
            return any(
                (h.invariant, h.scheme) == (mm.invariant, mm.scheme)
                for h in check_execution(g, candidate, schemes=[spec])
            )

        small = shrink_ops(mm.ops, still_fails)
        assert len(small) < len(mm.ops)

    def test_shrink_mismatch_keeps_original_when_not_reproducible(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        mm = check_execution(
            g, ops, schemes=[spec], context={"trial": 99}
        )[0]
        # shrink_mismatch re-checks against the *registry* schemes, which
        # do not include the synthetic overclaiming spec — so the failure
        # cannot reproduce and the mismatch must come back untouched
        assert shrink_mismatch(g, mm) is mm

    def test_shrink_is_noop_when_failure_does_not_reproduce(self):
        ops = [("local", 0), ("local", 1)]
        out = shrink_ops(ops, lambda _c: False)
        assert out == ops

    def test_shrink_keeps_send_recv_pairs_consistent(self):
        g = generators.path(4)
        ops = random_ops(g, random.Random(5), steps=30, deliver_all=True)

        # fail whenever any message is actually delivered: forces the
        # shrinker to keep a send+recv pair while deleting everything else
        def needs_delivery(candidate):
            ex = execution_from_ops(g, candidate)
            return any(m.delivered for m in ex.messages)

        small = shrink_ops(ops, needs_delivery)
        assert len(small) == 2
        assert small[0][0] == "send" and small[1][0] == "recv"
