"""Incremental happened-before oracle on receive-anchored vector clocks.

:class:`IncrementalHBOracle` answers the batch
:class:`~repro.core.happened_before.HappenedBeforeOracle`'s questions while
a run streams, from the cut layout of the batch oracle's numpy backend
(Fidge/Mattern).  The causal past of an event is a per-process prefix cut,
and a process's cut changes only at its receives.  So the oracle keeps one
n-wide vector-clock row per *receive* (row 0 is the zero cut) and, per
event, its *anchor*: the row of its process's latest receive at or before
it (0 for none).

Appends follow one recurrence.  A local or send event takes its process's
current anchor, O(1).  A receive ``r`` of send ``s`` adds the row
``max(cut[anchor(r's predecessor)], cut[anchor(s)])`` with ``s``'s entry
raised to ``s.index`` and ``r``'s own entry set to ``r.index``, O(n).
Queries read the rows:

- ``happened_before(e, f)``: ``e.index < f.index`` on one process, else
  ``cut[anchor(f)][e.proc] >= e.index``;
- ``vector_clock(f)``: ``cut[anchor(f)]`` with ``f.index`` as own entry;
  ``causal_past(f)`` lists the events below it;
- ``relation_counts``: a running total of |past(f)| = the anchor row's
  off-process sum plus ``f.index - 1``;
- ``causal_frontier(S)``: the per-process tops of the componentwise max of
  the clocks in ``S``, minus the tops in another top's past, O(n²).

Causal pasts are append-monotone, so every answer about appended events is
final mid-run.  ``freeze(execution)`` checks the stream covered
*execution* and builds the batch oracle over it.  A columnar
:class:`~repro.core.colstore.EventStore` can replace per-event calls:
after :meth:`IncrementalHBOracle.bind_store` every query and count first
drains the store's new rows.  Counters ``oracle.appends`` (events) and
``oracle.cut_rows`` (receive rows held) go to the registry active at
construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple, Union

from repro.core.events import Event, EventId, ProcessId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.obs.metrics import MetricsRegistry, active_registry

#: either oracle flavor — helpers below coerce to the batch one when needed
AnyOracle = Union[HappenedBeforeOracle, "IncrementalHBOracle"]


class IncrementalHBOracle:
    """Happened-before oracle maintained event-by-event while a run streams.

    *n_processes* is fixed up front, like every clock algorithm.  The
    ``oracle.*`` counters go to *registry*, or to the registry active at
    construction time.
    """

    def __init__(
        self, n_processes: int, *, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self._n = n_processes
        #: one vector clock per receive; row 0 is the zero cut
        self._cuts: List[List[int]] = [[0] * n_processes]
        #: per row: its entries summed over every process but its own
        self._rowsum: List[int] = [0]
        #: per process: the anchor row of each appended event, in order
        self._anchors: List[List[int]] = [[] for _ in range(n_processes)]
        #: per process: the anchor of its latest event
        self._last: List[int] = [0] * n_processes
        #: events appended, and the running sum of |past(f)| over them
        self._m = self._ordered = 0
        # columnar-store feed: the source store, rows ingested from it, and
        # the store every query drains first (set by bind_store only)
        self._store = self._bound = None
        self._synced = 0
        reg = registry if registry is not None else active_registry()
        self._m_appends = reg.counter("oracle.appends")
        self._m_cut_rows = reg.counter("oracle.cut_rows")

    @property
    def n_processes(self) -> int:
        return self._n

    @property
    def n_events(self) -> int:
        """Events appended so far (a bound store is drained first)."""
        self.flush()
        return self._m

    def event_count(self, proc: ProcessId) -> int:
        """Events appended at *proc* so far (a bound store is drained first)."""
        self.flush()
        return len(self._anchors[proc])

    def __contains__(self, eid: EventId) -> bool:
        self.flush()
        return 0 <= eid.proc < self._n and eid.index <= len(self._anchors[eid.proc])

    def _anchor(self, eid: EventId) -> int:
        p = eid.proc
        if 0 <= p < self._n:
            anchors = self._anchors[p]
            if 0 < eid.index <= len(anchors):
                return anchors[eid.index - 1]
        raise KeyError(f"{eid} has not been appended")

    def _append_error(self, eid: EventId) -> ValueError:
        p = eid.proc
        if not 0 <= p < self._n:
            return ValueError(f"process {p} out of range [0, {self._n})")
        return ValueError(
            f"out-of-order append: expected index "
            f"{len(self._anchors[p]) + 1} at p{p}, got {eid.index}"
        )

    def _add_receive(self, p: int, index: int, sp: int, si: int) -> int:
        """Append receive ``(p, index)`` of send ``(sp, si)``; return |past|."""
        cuts = self._cuts
        mine, theirs = cuts[self._last[p]], cuts[self._anchors[sp][si - 1]]
        row = [x if x > y else y for x, y in zip(mine, theirs)]
        if row[sp] < si:
            row[sp] = si
        row[p] = index
        r = len(cuts)
        cuts.append(row)
        rowsum = sum(row) - index
        self._rowsum.append(rowsum)
        self._last[p] = r
        self._anchors[p].append(r)
        return rowsum + index - 1

    def append_local(self, eid: EventId) -> None:
        """Record a local event.  Must be the next index at its process."""
        p = eid.proc
        anchors = self._anchors[p] if 0 <= p < self._n else None
        if anchors is None or eid.index != len(anchors) + 1:
            raise self._append_error(eid)
        a = self._last[p]
        anchors.append(a)
        self._m += 1
        self._ordered += self._rowsum[a] + eid.index - 1
        self._m_appends.inc()

    #: a send is causally identical to a local step
    append_send = append_local

    def append_receive(self, eid: EventId, send: EventId) -> None:
        """Record the receive matching the already-appended *send*."""
        self._anchor(send)  # KeyError when the send is unknown
        p = eid.proc
        if not 0 <= p < self._n or eid.index != len(self._anchors[p]) + 1:
            raise self._append_error(eid)
        self._ordered += self._add_receive(p, eid.index, send.proc, send.index)
        self._m += 1
        self._m_appends.inc()
        self._m_cut_rows.inc()

    def append_event(self, ev: Event, send: Optional[EventId] = None) -> None:
        """Dispatch on the event kind; receives require the matching *send*."""
        if ev.is_receive:
            if send is None:
                raise ValueError(f"receive {ev.eid} needs its send event id")
            self.append_receive(ev.eid, send)
        else:
            self.append_local(ev.eid)

    def ingest(self, execution: Execution) -> "IncrementalHBOracle":
        """Stream a completed execution in ``delivery_order()``; return
        ``self`` for chaining."""
        for ev in execution.delivery_order():
            if ev.is_receive:
                self.append_receive(ev.eid, execution.send_of(ev).eid)
            else:
                self.append_local(ev.eid)
        return self

    def _check_store(self, store) -> None:
        if store.n_processes != self._n:
            raise ValueError(
                f"store has {store.n_processes} processes, "
                f"oracle was built for {self._n}"
            )
        if self._store is not None and store is not self._store:
            raise ValueError("oracle is bound to a different store")

    def bind_store(self, store) -> None:
        """Attach *store* (an :class:`~repro.core.colstore.EventStore`) as
        this oracle's append source.

        The producer writes the store once; every query, count and
        ``in`` test then drains the new rows through :meth:`sync_store`.
        """
        self._check_store(store)
        self._store = self._bound = store

    def sync_store(self, store, upto: Optional[int] = None) -> int:
        """Append store rows ``[synced_so_far, upto)``; return how many.

        The first call pins *store* as the source.  Rows must continue each
        process's sequence where the oracle left off (they do whenever the
        oracle has only been fed from *store*).  Repeated calls ingest only
        what is new; *upto* (a row count) caps the batch, and queries leave
        the rows past it alone unless *store* was bound with
        :meth:`bind_store`.
        """
        self._check_store(store)
        self._store = store
        start = self._synced
        stop = store.n_events if upto is None else min(upto, store.n_events)
        if stop <= start:
            return 0
        anchors, last, rowsum = self._anchors, self._last, self._rowsum
        rows = ordered = receives = 0
        try:
            for p, index, sp, si in store.causal_rows(start, stop):
                if index != len(anchors[p]) + 1:  # rows must continue p's events
                    raise self._append_error(EventId(p, index))
                if sp < 0:
                    a = last[p]
                    anchors[p].append(a)
                    ordered += rowsum[a] + index - 1
                else:
                    ordered += self._add_receive(p, index, sp, si)
                    receives += 1
                rows += 1
        finally:
            self._m += rows
            self._ordered += ordered
            self._synced = start + rows
            self._m_appends.inc(rows)
            self._m_cut_rows.inc(receives)
        return rows

    def flush(self) -> None:
        """Drain a bound store's new rows (no-op when none is bound)."""
        store = self._bound
        if store is not None and store.n_events > self._synced:
            self.sync_store(store)

    def happened_before(self, e: EventId, f: EventId) -> bool:
        """Whether ``e -> f``.  Final the moment both events are appended."""
        if self._bound is not None:
            self.flush()
        af = self._anchor(f)
        self._anchor(e)
        if e.proc == f.proc:
            return e.index < f.index
        return self._cuts[af][e.proc] >= e.index

    #: alias of :meth:`happened_before`, the name comparator callers use
    precedes = happened_before

    def leq(self, e: EventId, f: EventId) -> bool:
        """Whether ``e == f`` or ``e -> f``."""
        return e == f or self.happened_before(e, f)

    def concurrent(self, e: EventId, f: EventId) -> bool:
        """Whether *e* and *f* are distinct and causally unordered."""
        hb = self.happened_before
        return e != f and not hb(e, f) and not hb(f, e)

    def _clock(self, eid: EventId) -> List[int]:
        clock = list(self._cuts[self._anchor(eid)])
        clock[eid.proc] = eid.index
        return clock

    def vector_clock(self, eid: EventId) -> Tuple[int, ...]:
        """The ground-truth full-length vector clock of *eid*."""
        self.flush()
        return tuple(self._clock(eid))

    def causal_past(self, f: EventId) -> Set[EventId]:
        """All appended events ``e`` with ``e -> f``."""
        self.flush()
        clock = self._clock(f)
        clock[f.proc] -= 1
        return {EventId(p, i) for p, k in enumerate(clock) for i in range(1, k + 1)}

    def causal_frontier(self, events: Iterable[EventId]) -> List[EventId]:
        """Maximal events of the downward closure of *events*, sorted.

        The closure is the cut ``C`` = componentwise max of the seeds'
        vector clocks; its maximal events are the per-process tops
        ``(p, C[p])`` that lie in no other top's past.
        """
        self.flush()
        top = [0] * self._n
        for f in events:
            top = list(map(max, top, self._clock(f)))
        tops = [(p, k) for p, k in enumerate(top) if k]
        rows = [self._cuts[self._anchors[p][k - 1]] for p, k in tops]
        return [
            EventId(p, k)
            for p, k in tops
            if not any(
                row[p] >= k for (q, _), row in zip(tops, rows) if q != p
            )
        ]

    def relation_counts(self) -> Tuple[int, int]:
        """``(ordered_pairs, concurrent_unordered_pairs)`` so far, O(1)."""
        self.flush()
        m = self._m
        return self._ordered, m * (m - 1) // 2 - self._ordered

    def freeze(
        self, execution: Execution, backend: Optional[str] = None
    ) -> HappenedBeforeOracle:
        """The batch oracle over *execution*, the completed stream.

        *execution* must have the streamed per-process event counts.  The
        batch oracle is built from it on *backend* (see
        :mod:`repro.core.backend`).
        """
        if execution.n_processes != self._n:
            raise ValueError(
                f"execution has {execution.n_processes} processes, "
                f"oracle was built for {self._n}"
            )
        self.flush()
        for p, want in enumerate(execution.event_counts()):
            if len(self._anchors[p]) != want:
                raise ValueError(
                    f"process {p}: oracle saw {len(self._anchors[p])} "
                    f"events, execution has {want}"
                )
        return HappenedBeforeOracle(execution, backend=backend)


def as_batch_oracle(
    oracle: AnyOracle, execution: Execution
) -> HappenedBeforeOracle:
    """Coerce either oracle flavor to the batch one.

    Batch oracles pass through; incremental oracles are frozen against
    *execution*.  This is what lets validation and application entry points
    accept whichever flavor the caller already has.
    """
    if isinstance(oracle, IncrementalHBOracle):
        return oracle.freeze(execution)
    return oracle


def incremental_from_execution(
    execution: Execution, *, registry: Optional[MetricsRegistry] = None
) -> IncrementalHBOracle:
    """Convenience: stream a completed execution into a fresh oracle."""
    return IncrementalHBOracle(execution.n_processes, registry=registry).ingest(execution)
