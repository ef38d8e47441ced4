"""Frontier-certificate validation: exact characterization in O(m·n).

:meth:`repro.clocks.replay.TimestampAssignment.validate` must decide
whether a scheme's comparison ``<s`` equals happened-before on every
ordered pair of events.  Comparing the two m×m relations costs O(m²).
This module proves the same verdict from O(m·n) comparisons, for the
schemes whose comparators admit a *process-monotonicity certificate*.

The argument.  Fix an event ``f`` and a process ``p``, and let
``S_p(f) = {e at p : e <s f}``.  Happened-before's own set
``{e at p : e -> f}`` is the prefix of ``p``'s first ``c = c_p(f)``
events (the oracle's cut, :meth:`HappenedBeforeOracle.past_cuts`).

1. *Certificate* — checked once per assignment, O(m·n): consecutive
   timestamps along every process change only in the direction that keeps
   ``S_p(f)`` downward closed, for every ``f``: if ``e_{p,j+1} <s f`` then
   ``e_{p,j} <s f``.  So ``S_p(f)`` is a prefix of ``p``.
2. *Frontier pairs* — two comparisons per ``(f, p)``: ``e_{p,c} <s f``
   (when ``c >= 1``) and ``not e_{p,c+1} <s f`` (when ``p`` has a
   ``(c+1)``-th event; for ``p = proc(f)`` that event is ``f`` itself).
   A prefix that contains position ``c`` and misses ``c + 1`` is exactly
   the first ``c`` events.

Then ``S_p(f)`` equals the causal past at ``p`` for every ``f`` and ``p``,
so ``<s`` is happened-before on all pairs: the exhaustive report would
list no mismatches and count ``sum of all cuts`` ordered pairs.  Any
failed certificate or frontier pair proves nothing, and the caller falls
back to the exhaustive comparison, whose mismatch lists stay exact.

The certificates, per timestamp class (each is a one-line consequence of
its comparator; see the class docstrings below):

- :class:`~repro.clocks.vector.VectorTimestamp` — vectors are
  componentwise non-decreasing along each process;
- :class:`~repro.clocks.inline_star.StarTimestamp` — ``id`` is the
  event's process, one centre throughout, ``ctr`` increases, centre
  ``pre`` and radial ``post`` never decrease (``∞`` allowed);
- :class:`~repro.clocks.inline_cover.CoverTimestamp` — ``id`` is the
  event's process, one cover throughout, cover membership is fixed per
  process, ``mctr`` increases, cover ``mpre`` and each non-cover
  ``mpost[c]`` never decrease.

Import only after :func:`repro.core.backend.numpy_available` returns True.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.clocks.base import Timestamp
from repro.clocks.inline_cover import CoverTimestamp
from repro.clocks.inline_star import StarTimestamp
from repro.clocks.vector import VectorTimestamp

#: comparisons per vectorized chunk (bounds the gathered columns' memory)
CHUNK_PAIRS = 1 << 15

#: float64 represents every integer below this exactly, so mixed int/float
#: column comparisons agree with Python's int/float comparisons
_EXACT_LIMIT = 2**53


def _exact(values: Any) -> Optional[np.ndarray]:
    """*values* as an array whose comparisons equal the Python numbers'
    comparisons, or ``None`` (ragged, non-numeric, NaN or too large).

    Integers come back in the narrowest of int16/int32/int64 that holds
    them (the frontier gathers are memory-bound), floats as float64.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, OverflowError):
        return None
    kind = arr.dtype.kind
    if kind == "f":
        if np.isnan(arr).any():
            return None
        finite = arr[np.isfinite(arr)]
    elif kind in "biu":
        finite = arr
    else:
        return None
    if finite.size == 0:
        return arr
    lo, hi = finite.min(), finite.max()
    if lo <= -_EXACT_LIMIT or hi >= _EXACT_LIMIT:
        return None
    if kind != "f":
        for dtype in (np.int16, np.int32):
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                return arr.astype(dtype)
        return arr.astype(np.int64)
    return arr


def _steps(procs: np.ndarray) -> np.ndarray:
    """Mask over ``t`` in ``[0, m-1)``: events ``t`` and ``t+1`` are
    consecutive events of one process (dense order is process-major)."""
    return procs[1:] == procs[:-1]


class VectorPairs:
    """Standard vector comparison, ``a <= b`` componentwise and ``a != b``.

    Certificate: if ``V(e) <= V(e')`` and ``e' <s f``, then
    ``V(e) <= V(f)``, and ``V(e) == V(f)`` would force ``V(e') == V(f)``.
    """

    def __init__(self, vectors: np.ndarray) -> None:
        self.v = vectors

    @classmethod
    def of(cls, timestamps: Sequence[VectorTimestamp]) -> Optional["VectorPairs"]:
        v = _exact([t.vector for t in timestamps])
        if v is None or v.ndim != 2:
            return None
        return cls(v)

    def certify(self, procs: np.ndarray) -> bool:
        v = self.v
        return bool(((v[1:] >= v[:-1]).all(axis=1) | ~_steps(procs)).all())

    def precedes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        a, b = self.v[src], self.v[dst]
        return (a <= b).all(axis=-1) & (a != b).any(axis=-1)


class StarPairs:
    """Theorem 3.1's comparison, as in :meth:`StarTimestamp.precedes`.

    Certificate: with ``id`` the process, a centre source compares by
    ``pre`` (``<`` or ``<=``) and a radial source by ``post <= pre`` or,
    on its own process, ``ctr <``; each key only grows along the process.
    """

    def __init__(self, ident, ctr, pre, post, central) -> None:
        self.ident, self.ctr, self.pre = ident, ctr, pre
        self.post, self.central = post, central

    @classmethod
    def of(cls, timestamps: Sequence[StarTimestamp]) -> Optional["StarPairs"]:
        center = timestamps[0].center
        if any(t.center != center for t in timestamps):
            return None
        cols = _exact(
            [
                (t.id, t.ctr, t.pre, t.pre if t.post is None else t.post)
                for t in timestamps
            ]
        )
        if cols is None:
            return None
        ident, ctr, pre, post = cols.T
        return cls(ident, ctr, pre, post, ident == center)

    def certify(self, procs: np.ndarray) -> bool:
        if not (self.ident == procs).all():
            return False
        step = _steps(procs)
        central = self.central[:-1]
        ok = self.ctr[1:] > self.ctr[:-1]
        ok &= np.where(
            central,
            self.pre[1:] >= self.pre[:-1],
            self.post[1:] >= self.post[:-1],
        )
        return bool((ok | ~step).all())

    def precedes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        pre_e, pre_f = self.pre[src], self.pre[dst]
        return np.where(
            self.central[src],
            np.where(self.central[dst], pre_e < pre_f, pre_e <= pre_f),
            np.where(
                self.ident[src] == self.ident[dst],
                self.ctr[src] < self.ctr[dst],
                self.post[src] <= pre_f,
            ),
        )


class CoverPairs:
    """Theorem 4.1's comparison, as in :meth:`CoverTimestamp.precedes`.

    Certificate: a cover source compares by ``mpre`` dominance (strict for
    cover targets, which the vector argument covers), a non-cover source by
    ``any(mpost[c] <= mpre_f[c])`` or, on its own process, ``mctr <``;
    each key only grows along the process, and which branch applies is
    fixed per process.
    """

    def __init__(self, ident, mctr, mpre, mpost, in_cover) -> None:
        self.ident, self.mctr, self.mpre = ident, mctr, mpre
        self.mpost, self.in_cover = mpost, in_cover

    @classmethod
    def of(cls, timestamps: Sequence[CoverTimestamp]) -> Optional["CoverPairs"]:
        cover = timestamps[0].cover
        if any(t.cover != cover for t in timestamps):
            return None
        heads = _exact([(t.id, t.mctr) for t in timestamps])
        mpre = _exact([t.mpre for t in timestamps])
        k = mpre.shape[1] if mpre is not None and mpre.ndim == 2 else -1
        # cover events have no mpost; their row is never read as a source
        mpost = _exact(
            [(0,) * k if t.mpost is None else t.mpost for t in timestamps]
        )
        if heads is None or mpost is None or k < 0:
            return None
        if mpost.ndim != 2 or mpost.shape[1] != k:
            return None
        in_cover = np.array([t.mpost is None for t in timestamps])
        return cls(heads[:, 0], heads[:, 1], mpre, mpost, in_cover)

    def certify(self, procs: np.ndarray) -> bool:
        if not (self.ident == procs).all():
            return False
        step = _steps(procs)
        cov = self.in_cover
        ok = cov[1:] == cov[:-1]
        ok &= self.mctr[1:] > self.mctr[:-1]
        ok &= np.where(
            cov[:-1],
            (self.mpre[1:] >= self.mpre[:-1]).all(axis=1),
            (self.mpost[1:] >= self.mpost[:-1]).all(axis=1),
        )
        return bool((ok | ~step).all())

    def precedes(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        pre_e, pre_f = self.mpre[src], self.mpre[dst]
        dominated = (pre_e <= pre_f).all(axis=-1)
        strict = (pre_e != pre_f).any(axis=-1) | ~self.in_cover[dst]
        heard = (self.mpost[src] <= pre_f).any(axis=-1)
        return np.where(
            self.in_cover[src],
            dominated & strict,
            np.where(
                self.ident[src] == self.ident[dst],
                self.mctr[src] < self.mctr[dst],
                heard,
            ),
        )


#: timestamp class -> its vectorized comparator, built by ``of(timestamps)``
#: (``None`` when a column does not convert); other classes fall back
PAIRS: Dict[Type[Timestamp], Any] = {
    VectorTimestamp: VectorPairs,
    StarTimestamp: StarPairs,
    CoverTimestamp: CoverPairs,
}


def frontier_check(
    cuts: np.ndarray, counts: Sequence[int], timestamps: Sequence[Timestamp]
) -> Tuple[Optional[str], int]:
    """Try to prove that *timestamps* characterize happened-before.

    *cuts* is the oracle's :meth:`past_cuts` array, *counts* the events per
    process, and *timestamps* follow the cuts' dense (process-major)
    order.  Returns ``(None, cells)`` when the certificate and every
    frontier pair hold — the scheme order is exactly happened-before — or
    ``(reason, cells)`` when the caller must fall back: ``"scheme"`` (no
    comparator for these timestamp classes), ``"certificate"`` (a column
    does not convert, or process monotonicity fails) or ``"frontier"`` (a
    frontier pair fails).  ``cells`` counts the pairs compared.
    """
    m, n = cuts.shape
    if m == 0:
        return None, 0
    cls = type(timestamps[0])
    if cls not in PAIRS or not all(type(t) is cls for t in timestamps):
        return "scheme", 0
    counts = np.asarray(counts, dtype=np.int64)
    bases = np.cumsum(counts) - counts
    pairs = PAIRS[cls].of(timestamps)
    if pairs is None or not pairs.certify(np.repeat(np.arange(n), counts)):
        return "certificate", 0
    cells = 0
    rows = max(1, CHUNK_PAIRS // n)
    for t0 in range(0, m, rows):
        c = cuts[t0 : t0 + rows].astype(np.int64)
        # one target per row, broadcast against its n sources
        dst = np.arange(t0, t0 + len(c))[:, None]
        # e_{p, c+1}: the first event of p outside the causal past
        first_out = bases + c
        inner = c > 0
        outer = c < counts
        cells += int(inner.sum()) + int(outer.sum())
        # clipped indices only ever feed masked-out pairs
        held = pairs.precedes(np.maximum(first_out - 1, 0), dst)
        if (inner & ~held).any():
            return "frontier", cells
        leaked = pairs.precedes(np.minimum(first_out, m - 1), dst)
        if (outer & leaked).any():
            return "frontier", cells
    return None, cells
