"""Single-field timestamp corruption for validator soundness checks.

A validator that only ever sees correct timestamps cannot show that it
rejects wrong ones.  :func:`corrupt_one` copies an assignment with one
numeric slot of one event's timestamp nudged — an int moved by one, a
finite value turned to ``∞`` or back — so the fuzzer's
``frontier-vs-exhaustive`` invariant and the property tests can require
:meth:`~repro.clocks.replay.TimestampAssignment.validate` to equal
:meth:`~repro.clocks.replay.TimestampAssignment.validate_pairwise` on
assignments that no longer characterize happened-before.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, List, Optional, Tuple

from repro.clocks.base import INFINITY
from repro.clocks.replay import TimestampAssignment
from repro.core.events import EventId

#: fields naming the timestamp's system rather than the event: changing
#: one makes every comparison raise ("different star systems"), by design
SYSTEM_FIELDS = ("center", "cover")

#: corruptions tried before giving up (a nudge can fail construction)
ATTEMPTS = 32


def _slots(ts: Any) -> List[Tuple[str, Optional[int]]]:
    """Numeric slots of *ts*: ``(field, None)`` for a scalar field,
    ``(field, k)`` for entry ``k`` of a tuple field."""
    out: List[Tuple[str, Optional[int]]] = []
    for f in dataclasses.fields(ts):
        if f.name in SYSTEM_FIELDS:
            continue
        value = getattr(ts, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((f.name, None))
        elif isinstance(value, tuple):
            out.extend((f.name, k) for k in range(len(value)))
    return out


def _nudge(value: Any, rng: random.Random) -> Any:
    if value == INFINITY:
        return rng.randint(1, 4)
    if rng.random() < 0.125:
        return INFINITY
    if value <= 1 or rng.random() < 0.5:
        return value + 1
    return value - 1


def corrupt_one(
    assignment: TimestampAssignment, rng: random.Random
) -> Tuple[TimestampAssignment, str]:
    """A copy of *assignment* with one timestamp slot changed.

    Returns the copy and a description such as ``"(1, 3).post 4 -> inf"``.
    When no attempted change constructs a valid timestamp (for example,
    every event sits at a star centre with ``pre == ctr`` pinned), the
    assignment comes back unchanged with the description ``"unchanged"``.
    """
    # timestamps are frozen dataclasses; typed Any for dataclasses.replace
    items: List[Tuple[EventId, Any]] = sorted(
        assignment.items(), key=lambda kv: kv[0]
    )
    for _ in range(ATTEMPTS if items else 0):
        eid, ts = rng.choice(items)
        slots = _slots(ts)
        if not slots:
            continue
        name, k = rng.choice(slots)
        current = getattr(ts, name)
        old = current if k is None else current[k]
        if not isinstance(old, (int, float)):
            continue  # e.g. a None entry
        new = _nudge(old, rng)
        value = new if k is None else current[:k] + (new,) + current[k + 1 :]
        try:
            bad = dataclasses.replace(ts, **{name: value})
        except (TypeError, ValueError):
            continue  # rejected by the timestamp's own validation
        where = name if k is None else f"{name}[{k}]"
        timestamps = dict(items)
        timestamps[eid] = bad
        copy = TimestampAssignment(
            assignment.algorithm,
            assignment.execution,
            timestamps,
            set(assignment.finalized_during_run),
        )
        return copy, f"({eid.proc}, {eid.index}).{where} {old} -> {new}"
    return assignment, "unchanged"
