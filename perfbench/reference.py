"""The benchmark's own reference: checks every output of a run.

Ground truth is one forward Fidge/Mattern vector-clock pass over the final
execution, written here from the textbook definition and sharing no code
with the program's oracles or clock schemes.  It runs after the timed
region.  Every comparison below is one *check*; ``fail_ratio`` is failed
checks over attempted checks.

Checks:

- sampled event pairs against ``oracle.happened_before`` (batch or
  incremental oracle, whichever the workload used) and against each
  scheme's ``precedes``;
- each exhaustive ``validate`` report the workload ran characterizes;
- Theorem 4.2: an inline scheme carries at most ``2|VC| + 2`` elements,
  for the vertex cover ``VC`` it was built with, which must cover the graph;
- every event of every scheme has a timestamp, and it is final;
- the online conflict set equals the reference one exactly, and the
  detector examined every same-key pair once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: failure messages kept per run (all failures are still counted)
KEEP_FAILURES = 10


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(what)


class ReferenceClocks:
    """Fidge/Mattern vector clocks of a finished execution.

    ``clock[(p, i)][q]`` is the number of events of process ``q`` in the
    causal past of event ``i`` of ``p`` (1-based), the event itself
    included.  So ``e -> f`` iff ``e != f`` and ``clock[f][e.proc] >=
    e.index``.
    """

    def __init__(self, execution) -> None:
        n = execution.n_processes
        per_proc = [execution.events_at(p) for p in range(n)]
        msg_send = {}
        for m in execution.messages:
            msg_send[m.msg_id] = (m.send_event.proc, m.send_event.index)
        clocks: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        cursor = [0] * n
        current = [[0] * n for _ in range(n)]
        remaining = sum(len(evs) for evs in per_proc)
        while remaining:
            progressed = False
            for p in range(n):
                evs = per_proc[p]
                vc = current[p]
                while cursor[p] < len(evs):
                    ev = evs[cursor[p]]
                    if ev.msg_id is not None and ev.is_receive:
                        send = clocks.get(msg_send[ev.msg_id])
                        if send is None:
                            break  # its send is not placed yet
                        for q in range(n):
                            if send[q] > vc[q]:
                                vc[q] = send[q]
                    vc[p] += 1
                    if vc[p] != ev.eid.index or ev.eid.proc != p:
                        raise ValueError(f"event numbering broken at {ev.eid}")
                    clocks[(p, vc[p])] = tuple(vc)
                    cursor[p] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                raise ValueError("execution has a receive before its send")
        self.n_processes = n
        self.clocks = clocks
        self.events = sorted(clocks)

    def happened_before(self, e, f) -> bool:
        return (e.proc, e.index) != (f.proc, f.index) and (
            self.clocks[(f.proc, f.index)][e.proc] >= e.index
        )


def sample_pairs(
    ref: ReferenceClocks, n_pairs: int, seed: int, make_eid
) -> List[Tuple]:
    """*n_pairs* ordered event pairs: half uniform, half on a causal frontier.

    Uniform pairs in a large run are mostly concurrent.  A frontier pair
    takes an event ``f`` and a process ``q`` and picks the last event of
    ``q`` in ``f``'s past or the first one outside it — the two pairs that
    decide whether a comparator draws the cut in the right place — in a
    random direction.
    """
    rng = random.Random(seed)
    events = ref.events
    counts = [0] * ref.n_processes
    for p, i in events:
        counts[p] = max(counts[p], i)
    out = []
    for k in range(n_pairs):
        f = events[rng.randrange(len(events))]
        if k % 2:
            e = events[rng.randrange(len(events))]
        else:
            q = rng.randrange(ref.n_processes)
            last = ref.clocks[f][q]
            index = last + rng.randrange(2)
            if not 1 <= index <= counts[q]:
                index = last if last >= 1 else 1
            if counts[q] == 0:
                e = events[rng.randrange(len(events))]
            else:
                e = (q, index)
        if rng.random() < 0.5:
            e, f = f, e
        out.append((make_eid(*e), make_eid(*f)))
    return out


def check_pairs(
    tally: CheckTally,
    ref: ReferenceClocks,
    pairs: Sequence[Tuple],
    deciders: Sequence[Tuple[str, object]],
) -> None:
    """Each (name, decider) must answer ``e -> f`` like the reference."""
    for e, f in pairs:
        truth = ref.happened_before(e, f)
        for name, decide in deciders:
            tally.check(
                bool(decide(e, f)) == truth,
                f"{name}: {e} -> {f} should be {truth}",
            )


def check_assignments(
    tally: CheckTally,
    ref: ReferenceClocks,
    assignments: Dict[str, object],
    covers: Dict[str, Sequence[int]],
    graph,
    make_eid,
) -> None:
    """Every event stamped with a final timestamp; Theorem 4.2 for inline."""
    eids = [make_eid(p, i) for p, i in ref.events]
    for name, asg in assignments.items():
        algo = asg.algorithm
        unstamped = sum(1 for eid in eids if eid not in asg)
        tally.check(unstamped == 0, f"{name}: {unstamped} events unstamped")
        provisional = sum(1 for eid in eids if not algo.is_final(eid))
        tally.check(provisional == 0, f"{name}: {provisional} timestamps not final")
        cover = covers.get(name)
        if cover is not None:
            cset = set(cover)
            tally.check(
                all(u in cset or v in cset for u, v in graph.edges),
                f"{name}: {sorted(cset)} is not a vertex cover",
            )
            bound = 2 * len(cset) + 2
            tally.check(
                asg.max_elements() <= bound,
                f"{name}: {asg.max_elements()} elements > 2|VC|+2 = {bound}",
            )


def reference_conflicts(
    ref: ReferenceClocks, updates: Sequence[Tuple[object, str]]
) -> Tuple[Set[FrozenSet], int]:
    """Concurrent same-key update pairs, and the number of same-key pairs."""
    by_key: Dict[str, List] = {}
    for eid, key in updates:
        by_key.setdefault(key, []).append(eid)
    conflicts: Set[FrozenSet] = set()
    pairs = 0
    for eids in by_key.values():
        for i, e in enumerate(eids):
            for f in eids[:i]:
                pairs += 1
                if not ref.happened_before(e, f) and not ref.happened_before(f, e):
                    conflicts.add(frozenset(((e.proc, e.index), (f.proc, f.index))))
    return conflicts, pairs


def check_conflicts(
    tally: CheckTally,
    ref: ReferenceClocks,
    updates: Sequence[Tuple[object, str]],
    found: Set[FrozenSet],
    pairs_checked: int,
) -> None:
    """The detector's conflicts equal the reference's, pair for pair."""
    truth, pairs = reference_conflicts(ref, updates)
    got = {frozenset((e.proc, e.index) for e in pair) for pair in found}
    for pair in truth | got:
        tally.check(
            (pair in truth) == (pair in got),
            f"conflict {sorted(pair)}: detector says {pair in got}, "
            f"reference says {pair in truth}",
        )
    tally.check(
        pairs_checked == pairs,
        f"detector checked {pairs_checked} same-key pairs, expected {pairs}",
    )


def fingerprint(result, extra: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Simulated statistics that a speed-only change must leave identical."""
    fp: Dict[str, int] = {
        "events": result.execution.n_events,
        "app_messages": result.app_messages,
    }
    for name in sorted(result.stats):
        st = result.stats[name]
        fp[f"{name}.control_messages"] = st.control_messages
        fp[f"{name}.payload_elements"] = st.app_payload_elements
        fp[f"{name}.control_elements"] = st.control_elements
        fp[f"{name}.max_elements"] = result.assignments[name].max_elements()
    fp.update(extra or {})
    return fp
