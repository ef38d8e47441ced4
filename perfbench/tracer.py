"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into each layer of the program by wrapping
its public functions from the benchmark's side; the program itself is not
edited.  Each span is one row of four parallel columns — name id, start,
end and parent span index (-1 at top level) — appended as it opens, so
recording costs a few list/array appends per call and nothing is written
until :meth:`Tracer.write` at the end of the run.

Per-layer figures are derived from the rows afterwards:

- ``calls``  — spans of that name;
- ``busy_s`` — summed duration of the outermost spans of that name (a span
  nested directly in a span of the same name is not counted twice);
- ``self_s`` — summed duration minus the part covered by child spans.

Counters (:meth:`Tracer.count`) tally work at a boundary without a span,
for calls too frequent and too small to time one by one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from array import array
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple


class Tracer:
    """Collects spans and counters; installs and removes layer wrappers."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[int] = [-1]
        self.counters: Dict[str, int] = {}
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        idx = len(self._span_name)
        self._span_name.append(self._name_id(name))
        self._span_parent.append(self._stack[-1])
        self._stack.append(idx)
        self._span_end.append(0.0)
        self._span_start.append(perf_counter())
        try:
            yield
        finally:
            self._span_end[idx] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def traced(self, fn, name: str):
        """*fn* wrapped so that every call records a span named *name*.

        Same recording as :meth:`span`, with the columns bound to locals:
        a traced iteration makes up to ~2M of these calls.
        """
        nid = self._name_id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, fn, name: str):
        """*fn* wrapped so that every call adds one to counter *name*."""
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrapping ------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        """Replace ``owner.attr`` until :meth:`unpatch_all`.

        *owner* is a class (every instance is affected) or one instance
        (only that object, e.g. one clock scheme of several).
        """
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapped)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, self.traced(getattr(owner, attr), name))

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._span_name)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` derived from the spans."""
        import numpy as np

        names = np.frombuffer(self._span_name, dtype=np.int32)
        parents = np.frombuffer(self._span_parent, dtype=np.int32)
        dur = np.frombuffer(self._span_end, dtype=np.float64) - np.frombuffer(
            self._span_start, dtype=np.float64
        )
        k = len(self._names)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - covered
        parent_name = np.full(len(dur), -1, dtype=np.int32)
        parent_name[has_parent] = names[parents[has_parent]]
        outer = parent_name != names
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self._names)
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON header line plus a binary table.

        The header names the columns and maps name ids to names; the table
        that follows is the raw little-endian column arrays, in order.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "schema": "perfbench.spans/1",
            "spans": len(self),
            "names": self._names,
            "columns": [
                ["name", "int32"],
                ["parent", "int32"],
                ["start_s", "float64"],
                ["end_s", "float64"],
            ],
            "counters": self.counters,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for col in (
                self._span_name,
                self._span_parent,
                self._span_start,
                self._span_end,
            ):
                col.tofile(fh)
