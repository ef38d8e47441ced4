"""Verification of online vector-timestamp assignments against causality.

An online scheme is *valid* for an execution when (a) distinct events get
distinct vectors and (b) for all events, ``e -> f`` iff
``vec(e) < vec(f)`` under the standard vector-clock comparison.  The lower
bounds of Section 2 say short schemes cannot be valid on all executions;
the adversaries in :mod:`repro.lowerbounds.star_adversary` and
:mod:`repro.lowerbounds.flooding` construct the refuting execution, and this
module provides the checker that extracts a concrete violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clocks.base import standard_vector_rows, standard_vector_words
from repro.core.events import EventId
from repro.core.execution import Execution
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import AnyOracle, as_batch_oracle
from repro.obs.metrics import active_registry


class ViolationKind(enum.Enum):
    """How an assignment can fail the Section-2 validity requirement."""

    #: concurrent events whose vectors are ordered
    FALSE_POSITIVE = "false_positive"
    #: causally ordered events whose vectors are not
    FALSE_NEGATIVE = "false_negative"
    #: distinct events sharing a vector
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class Violation:
    """A concrete counterexample pair with its vectors."""

    kind: ViolationKind
    e: EventId
    f: EventId
    vec_e: Tuple[float, ...]
    vec_f: Tuple[float, ...]

    def describe(self) -> str:
        return (
            f"{self.kind.value}: {self.e} (vec {self.vec_e}) vs "
            f"{self.f} (vec {self.vec_f})"
        )


@dataclass(frozen=True)
class VectorAssignmentReport:
    """Full validity report for one assignment over one execution."""

    n_events: int
    vector_length: int
    violations: Tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def first(self, kind: Optional[ViolationKind] = None) -> Optional[Violation]:
        for v in self.violations:
            if kind is None or v.kind is kind:
                return v
        return None


def check_vector_assignment(
    execution: Execution,
    vectors: Dict[EventId, Tuple[float, ...]],
    oracle: Optional[AnyOracle] = None,
    stop_at_first: bool = False,
) -> VectorAssignmentReport:
    """Exhaustively verify an online vector assignment.

    *vectors* must cover every event of the execution.  Violations are
    reported in a deterministic order (event-id major).  Either oracle
    flavor is accepted; an incremental oracle built alongside the run is
    frozen into the batch oracle.
    """
    if oracle is None:
        oracle = HappenedBeforeOracle(execution)
    else:
        oracle = as_batch_oracle(oracle, execution)
    ids = [ev.eid for ev in execution.all_events()]
    missing = [e for e in ids if e not in vectors]
    if missing:
        raise ValueError(f"assignment missing vectors for {missing[:3]}...")
    lengths = {len(vectors[e]) for e in ids}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent vector lengths: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0

    # Matrix comparison: the assignment's full precedes-matrix against the
    # oracle's causal-past masks; only mismatching pairs materialize.
    # ``ids`` follow all_events() order == the oracle's dense indexing.
    m = len(ids)
    vecs = [tuple(vectors[e]) for e in ids]

    # Duplicate vectors: every pair inside an equal-vector group.  The
    # pairwise reference skips the directional checks for such pairs, so
    # their bits are masked out of the mismatch scan below.
    groups: Dict[Tuple[float, ...], List[int]] = {}
    for i, v in enumerate(vecs):
        groups.setdefault(v, []).append(i)

    # Violations keyed to the pairwise reference order: pair-major over
    # (min, max) positions; a duplicate replaces the pair's direction
    # checks, direction min->max comes before max->min otherwise.
    keyed: List[Tuple[Tuple[int, int, int], Violation]] = []
    for v, idxs in groups.items():
        for a_pos, i in enumerate(idxs):
            for j in idxs[a_pos + 1 :]:
                keyed.append(
                    (
                        (i, j, -1),
                        Violation(
                            ViolationKind.DUPLICATE, ids[i], ids[j], v, v
                        ),
                    )
                )

    hb_mat = oracle.past_matrix()
    claimed_mat = standard_vector_words(vecs) if hb_mat is not None else None
    if claimed_mat is not None:
        # array fast path: XOR the uint64 matrices, mask the diagonal and
        # every equal-vector group, then decode only nonzero words
        import numpy as np

        diff = claimed_mat ^ hb_mat
        jarr = np.arange(m)
        diff[jarr, jarr >> 6] &= ~(
            np.uint64(1) << (jarr & 63).astype(np.uint64)
        )
        for v, idxs in groups.items():
            if len(idxs) < 2:
                continue
            arr = np.asarray(idxs, dtype=np.int64)
            gm = np.zeros(diff.shape[1], dtype=np.uint64)
            np.bitwise_or.at(
                gm, arr >> 6, np.uint64(1) << (arr & 63).astype(np.uint64)
            )
            diff[arr] &= ~gm
        jj, ww = np.nonzero(diff)
        diff_words = diff[jj, ww].tolist()
        hb_words = hb_mat[jj, ww].tolist()
        for j, w, dw, hw in zip(
            jj.tolist(), ww.tolist(), diff_words, hb_words
        ):
            base = w << 6
            while dw:
                low = dw & -dw
                b = low.bit_length() - 1
                dw ^= low
                i = base + b
                kind = (
                    ViolationKind.FALSE_NEGATIVE
                    if hw >> b & 1
                    else ViolationKind.FALSE_POSITIVE
                )
                keyed.append(
                    (
                        (min(i, j), max(i, j), 0 if i < j else 1),
                        Violation(kind, ids[i], ids[j], vecs[i], vecs[j]),
                    )
                )
    else:
        claimed_rows = standard_vector_rows(vecs)
        assert claimed_rows is not None  # lengths validated above
        hb_rows = oracle.past_masks()
        group_mask: Dict[Tuple[float, ...], int] = {}
        for v, idxs in groups.items():
            mask = 0
            for i in idxs:
                mask |= 1 << i
            group_mask[v] = mask
        for j in range(m):
            dup = group_mask[vecs[j]] & ~(1 << j)
            diff_j = (claimed_rows[j] ^ hb_rows[j]) & ~(1 << j) & ~dup
            hb_row = hb_rows[j]
            while diff_j:
                low = diff_j & -diff_j
                i = low.bit_length() - 1
                diff_j ^= low
                kind = (
                    ViolationKind.FALSE_NEGATIVE
                    if hb_row >> i & 1
                    else ViolationKind.FALSE_POSITIVE
                )
                keyed.append(
                    (
                        (min(i, j), max(i, j), 0 if i < j else 1),
                        Violation(kind, ids[i], ids[j], vecs[i], vecs[j]),
                    )
                )
    keyed.sort(key=lambda kv: kv[0])
    violations = [v for _k, v in keyed]
    # observability: matrix-validate work done by the lower-bound checker
    reg = active_registry()
    reg.counter("validate.cells").inc(m * m)
    reg.counter("validate.mismatch_decodes").inc(len(keyed))
    reg.counter("validate.runs").inc()
    if stop_at_first and violations:
        violations = violations[:1]
    return VectorAssignmentReport(len(ids), length, tuple(violations))
