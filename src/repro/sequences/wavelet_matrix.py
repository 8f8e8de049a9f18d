"""Wavelet matrix: a pointerless wavelet tree for large alphabets.

Follows Claude, Navarro & Ordóñez (2015), the structure the paper's
implementation uses (§4.4: "Because the alphabets are generally large, we
implemented the wavelet trees as wavelet matrices").  One bitvector per
bit of the alphabet width; level ``l`` holds, for every element as it
arrives at that level, bit number ``levels - 1 - l`` of its value
(MSB first).  Elements are stably partitioned between levels: zeros first,
then ones, with ``z[l]`` recording the number of zeros.

Supported operations (all ``O(levels)`` bitvector operations):

- ``access``/``rank``/``select`` — the FM-index primitives (Eq. 1–2 of the
  paper);
- ``next_in_range`` — the *range-next-value* operation of §2.3.4, the
  engine of the **backward leap** (Lemma 3.7);
- ``distinct_in_range`` — enumeration of the distinct symbols in a range
  with their multiplicities, the engine of the *lonely variables*
  optimisation (§4.2), in ``O(k log(σ/k))`` node visits;
- ``count`` — number of occurrences of a symbol in a range.

On top of the scalar operations the matrix exposes **batch kernels**
(``rank_many`` / ``count_many`` / ``extract_at`` / ``bucket_starts``)
that run one query per element of a numpy array with O(levels) Python
calls total, by delegating to the bitvector batch kernels level by
level; ``next_in_range`` and ``distinct_in_range`` are iterative
(explicit stack), so deep alphabets neither recurse nor pay Python
frame setup per node.  See ``docs/INTERNALS.md``, "The kernel layer".

The bitvector backend is pluggable: plain (:class:`BitVector`) for the
Ring, RRR-compressed for the C-Ring.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

import numpy as np

from repro.bits.bitvector import BitVector
from repro.bits.rrr import RRRBitVector
from repro.perf.counters import KERNEL_COUNTERS as _perf


class WaveletMatrix:
    """Static sequence over ``[0, sigma)`` with rank/select/range queries.

    Parameters
    ----------
    values:
        The sequence, any integer iterable (``numpy`` array preferred).
    sigma:
        Alphabet size; inferred as ``max + 1`` when omitted.
    compressed:
        Use RRR bitvectors (C-Ring mode) instead of plain ones.
    block_size:
        RRR block size when ``compressed`` (paper's sdsl parameter ``b``,
        mapped as ``b=16 → 15``, ``b=64 → 63``).
    """

    __slots__ = ("_n", "_sigma", "_levels", "_bits", "_zeros")

    def __init__(
        self,
        values,
        sigma: int | None = None,
        compressed: bool = False,
        block_size: int = 15,
    ) -> None:
        if isinstance(values, np.ndarray):
            seq = values.astype(np.int64, copy=False)
        elif hasattr(values, "__len__"):  # sequence/buffer: no list() copy
            seq = np.asarray(values, dtype=np.int64)
        else:  # lazy iterable / generator
            seq = np.fromiter(values, dtype=np.int64)
        if len(seq) and seq.min() < 0:
            raise ValueError("symbols must be non-negative")
        if sigma is None:
            sigma = int(seq.max()) + 1 if len(seq) else 1
        if len(seq) and int(seq.max()) >= sigma:
            raise ValueError("symbol outside alphabet")
        self._n = len(seq)
        self._sigma = sigma
        self._levels = max(1, (sigma - 1).bit_length())
        self._bits = []
        self._zeros = []
        current = seq
        for level in range(self._levels):
            shift = self._levels - 1 - level
            bits = ((current >> shift) & 1).astype(bool)
            if compressed:
                bv = RRRBitVector.from_bool_array(bits, block_size)
            else:
                bv = BitVector.from_bool_array(bits)
            self._bits.append(bv)
            self._zeros.append(int(len(bits) - bits.sum()))
            current = np.concatenate([current[~bits], current[bits]])

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_levels(
        cls,
        levels: list,
        zeros: list[int],
        *,
        n: int,
        sigma: int,
    ) -> "WaveletMatrix":
        """Adopt prebuilt per-level bitvectors without re-partitioning.

        The copy-free assembly path shared by the shared-memory attach,
        the frozen ``mmap_mode`` open and the streaming bulk builder:
        ``levels[l]`` is the level-``l`` bitvector (plain or RRR) and
        ``zeros[l]`` its zero count, exactly as ``__init__`` would have
        produced them.  Buffers are adopted as-is (views stay views).
        """
        wm = cls.__new__(cls)
        wm._n = int(n)
        wm._sigma = int(sigma)
        wm._levels = max(1, (wm._sigma - 1).bit_length())
        if len(levels) != wm._levels or len(zeros) != wm._levels:
            raise ValueError(
                f"expected {wm._levels} levels for sigma={sigma}, got "
                f"{len(levels)} bitvectors / {len(zeros)} zero counts"
            )
        for lvl, bv in enumerate(levels):
            if len(bv) != wm._n:
                raise ValueError(
                    f"level {lvl} has {len(bv)} bits, expected {n}"
                )
        wm._bits = list(levels)
        wm._zeros = [int(z) for z in zeros]
        return wm

    # -- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self._sigma

    @property
    def levels(self) -> int:
        """Number of bit levels (``ceil(log2 sigma)``, at least 1)."""
        return self._levels

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        value = 0
        for level in range(self._levels):
            bv = self._bits[level]
            bit = bv[i]
            value = (value << 1) | bit
            if bit:
                i = self._zeros[level] + bv.rank1(i)
            else:
                i -= bv.rank1(i)
        return value

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self[i]

    # -- rank / select -------------------------------------------------------

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in the prefix ``[0, i)``."""
        return self.rank_pair(symbol, 0, i)[1]

    def rank_pair(self, symbol: int, lo: int, hi: int) -> tuple[int, int]:
        """``(rank(symbol, lo), rank(symbol, hi))`` in one descent.

        The bucket start and both ends ride the symbol's path together:
        three bitvector ranks per level instead of four, and one early
        exit once both ends have collapsed onto the start.
        """
        if symbol >= self._sigma or symbol < 0:
            return 0, 0
        n = self._n
        lo = 0 if lo < 0 else n if lo > n else lo
        hi = 0 if hi < 0 else n if hi > n else hi
        start, shift = 0, self._levels
        for bv, z in zip(self._bits, self._zeros):
            shift -= 1
            rank1 = bv.rank1
            if (symbol >> shift) & 1:
                start = z + rank1(start)
                lo = z + rank1(lo)
                hi = z + rank1(hi)
            else:
                start -= rank1(start)
                lo -= rank1(lo)
                hi -= rank1(hi)
            if lo <= start and hi <= start:  # ends never fall below start
                return 0, 0
        return lo - start, hi - start

    def count(self, symbol: int, lo: int, hi: int) -> int:
        """Occurrences of ``symbol`` in ``[lo, hi)``."""
        before, upto = self.rank_pair(symbol, lo, hi)
        return upto - before

    def rank_many(self, symbol: int, positions) -> np.ndarray:
        """``rank(symbol, ·)`` over a whole array of prefix ends.

        One descent serves every position: the single-coordinate ``lo``
        boundary (which starts at 0, hence follows the symbol's path
        deterministically) stays scalar while the array of ends is mapped
        with the bitvector batch kernels — O(levels) Python calls total.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        pos = np.asarray(positions, dtype=np.int64)
        ends = np.clip(pos, 0, self._n)
        if symbol < 0 or symbol >= self._sigma:
            return np.zeros(pos.shape, dtype=np.int64)
        lo = 0
        for level in range(self._levels):
            bv = self._bits[level]
            if (symbol >> (self._levels - 1 - level)) & 1:
                z = self._zeros[level]
                lo = z + bv.rank1(lo)
                ends = z + bv.rank1_many(ends)
            else:
                lo -= bv.rank1(lo)
                ends = ends - bv.rank1_many(ends)
        out = ends - lo
        if _perf.enabled:
            _perf.record(
                "wavelet.rank_many", pos.size, time.perf_counter() - started
            )
        return out

    def count_many(self, symbol: int, los, his) -> np.ndarray:
        """``count(symbol, ·, ·)`` over arrays of range bounds.

        Both bound arrays ride the same single descent (they are stacked
        into one position array), so the cost matches one
        :meth:`rank_many` call.
        """
        lo_arr = np.asarray(los, dtype=np.int64)
        hi_arr = np.asarray(his, dtype=np.int64)
        if lo_arr.shape != hi_arr.shape:
            raise ValueError("count_many bounds must have matching shapes")
        ranks = self.rank_many(
            symbol, np.concatenate([lo_arr.ravel(), hi_arr.ravel()])
        )
        half = lo_arr.size
        return (ranks[half:] - ranks[:half]).reshape(lo_arr.shape)

    def select(self, symbol: int, k: int) -> int:
        """Position of the k-th occurrence of ``symbol`` (``k >= 1``)."""
        if not 0 <= symbol < self._sigma:
            raise ValueError(f"symbol {symbol} outside alphabet")
        total = self.rank(symbol, self._n)
        if not 1 <= k <= total:
            raise ValueError(f"select({symbol}, {k}): only {total} occurrences")
        # Descend along the symbol's path mapping the bucket start.
        start = 0
        for level in range(self._levels):
            bv = self._bits[level]
            if (symbol >> (self._levels - 1 - level)) & 1:
                start = self._zeros[level] + bv.rank1(start)
            else:
                start -= bv.rank1(start)
        pos = start + k - 1
        # Walk back up.
        for level in range(self._levels - 1, -1, -1):
            bv = self._bits[level]
            if (symbol >> (self._levels - 1 - level)) & 1:
                pos = bv.select1(pos - self._zeros[level] + 1)
            else:
                pos = bv.select0(pos + 1)
        return pos

    # -- range operations ------------------------------------------------------

    def next_in_range(self, lo: int, hi: int, c: int) -> Optional[int]:
        """Smallest symbol ``>= c`` occurring in positions ``[lo, hi)``.

        This is the *range-next-value* operation used by the backward leap
        (§2.3.4 / Lemma 3.7).  Returns ``None`` if no such symbol exists.
        Iterative (explicit DFS stack): no recursion depth bound, no per-
        node Python frame setup on the query hot path.
        """
        lo = max(lo, 0)
        hi = min(hi, self._n)
        if lo >= hi or c >= self._sigma:
            return None
        c = max(c, 0)
        levels = self._levels
        # Entries are (level, lo, hi, a, b): the node covers symbols [a, b].
        stack = [(0, lo, hi, 0, (1 << levels) - 1)]
        while stack:
            level, lo, hi, a, b = stack.pop()
            if lo >= hi or b < c:
                continue
            if level == levels:
                if a < self._sigma:
                    return a
                continue
            mid = (a + b) >> 1
            bv = self._bits[level]
            z = self._zeros[level]
            lo0, hi0 = lo - bv.rank1(lo), hi - bv.rank1(hi)
            # Right child below the left one so the left pops first.
            stack.append((level + 1, z + (lo - lo0), z + (hi - hi0), mid + 1, b))
            if c <= mid:
                stack.append((level + 1, lo0, hi0, a, mid))
        return None

    def distinct_in_range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol, multiplicity)`` for each distinct symbol in
        ``[lo, hi)``, in increasing symbol order.

        Cost is ``O(k log(σ/k))`` node visits for ``k`` distinct symbols —
        the §2.3.4 bound that makes the lonely-variables optimisation pay.
        Iterative (explicit DFS stack), like :meth:`next_in_range`.
        """
        lo = max(lo, 0)
        hi = min(hi, self._n)
        if lo >= hi:
            return
        levels = self._levels
        stack = [(0, lo, hi, 0)]
        while stack:
            level, lo, hi, prefix = stack.pop()
            if lo >= hi:
                continue
            if level == levels:
                if prefix < self._sigma:
                    yield prefix, hi - lo
                continue
            bv = self._bits[level]
            z = self._zeros[level]
            lo0, hi0 = lo - bv.rank1(lo), hi - bv.rank1(hi)
            # Right child below the left one so symbols come out increasing.
            stack.append(
                (level + 1, z + (lo - lo0), z + (hi - hi0), (prefix << 1) | 1)
            )
            stack.append((level + 1, lo0, hi0, prefix << 1))

    def count_distinct(self, lo: int, hi: int) -> int:
        """Number of distinct symbols in ``[lo, hi)``."""
        return sum(1 for _ in self.distinct_in_range(lo, hi))

    def distinct_estimate(self, lo: int, hi: int, max_nodes: int = 64) -> int:
        """Cheap lower bound on the distinct symbols in ``[lo, hi)``.

        Descends level by level keeping the whole frontier of non-empty
        nodes in numpy arrays (one batched rank per level — the same
        machinery as :meth:`count_many`), and stops as soon as the
        frontier exceeds ``max_nodes``.  The frontier size at any level
        is a lower bound on the number of distinct symbols below it, and
        the bound is *exact* whenever the walk reaches the bottom — so
        small ranges get an exact distinct count while large ones cost
        O(``max_nodes`` · levels) regardless of the range size.

        This is the statistic behind the cardinality-guided variable
        ordering: the branching factor a variable would contribute to
        the LTJ search tree, without enumerating any values.
        """
        lo = max(lo, 0)
        hi = min(hi, self._n)
        if lo >= hi:
            return 0
        los = np.array([lo], dtype=np.int64)
        his = np.array([hi], dtype=np.int64)
        prefixes = np.array([0], dtype=np.int64)
        for level in range(self._levels):
            bv = self._bits[level]
            bounds = np.concatenate([los, his])
            ones = bv.rank1_many(bounds)
            lo1, hi1 = ones[: los.size], ones[los.size:]
            lo0, hi0 = los - lo1, his - hi1
            z = self._zeros[level]
            child_lo = np.concatenate([lo0, z + lo1])
            child_hi = np.concatenate([hi0, z + hi1])
            child_prefix = np.concatenate(
                [prefixes << 1, (prefixes << 1) | 1]
            )
            live = child_lo < child_hi
            los, his = child_lo[live], child_hi[live]
            prefixes = child_prefix[live]
            if los.size > max_nodes:
                return int(los.size)
        return int(np.count_nonzero(prefixes < self._sigma))

    def min_in_range(self, lo: int, hi: int) -> Optional[int]:
        """Smallest symbol in ``[lo, hi)``."""
        return self.next_in_range(lo, hi, 0)

    # -- bulk decoding ----------------------------------------------------------

    def extract_at(
        self, positions, return_bottom: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Decode the symbols at an array of positions, level by level.

        With ``return_bottom=True`` additionally returns each position's
        final index at the (virtual) bottom level.  That index equals
        ``bucket_start(symbol) + rank(symbol, position)`` — the access
        descent *is* an LF step — which is what lets
        :meth:`~repro.core.ring.Ring.lf_many` decode whole ranges of
        triples without any per-position rank calls.
        """
        started = time.perf_counter() if _perf.enabled else 0.0
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (int(pos.min()) < 0 or int(pos.max()) >= self._n):
            raise IndexError(f"position out of range [0, {self._n})")
        values = np.zeros(pos.shape, dtype=np.int64)
        cur = pos.copy()
        for bv, z in zip(self._bits, self._zeros):
            bits, ones = bv.access_rank1_many(cur)
            values = (values << 1) | bits
            cur = np.where(bits, z + ones, cur - ones)
        if _perf.enabled:
            _perf.record(
                "wavelet.extract_at", pos.size, time.perf_counter() - started
            )
        if return_bottom:
            return values, cur
        return values

    def bucket_starts(self, symbols) -> np.ndarray:
        """Bottom-level bucket start of each symbol (batched descent).

        The start of symbol ``s``'s bucket is obtained by descending
        position 0 along ``s``'s bit path — exactly the first phase of
        :meth:`select` — batched over an array of symbols in O(levels)
        Python calls.
        """
        syms = np.asarray(symbols, dtype=np.int64)
        starts = np.zeros(syms.shape, dtype=np.int64)
        for level in range(self._levels):
            bv = self._bits[level]
            bit = (syms >> (self._levels - 1 - level)) & 1
            ones = bv.rank1_many(starts)
            starts = np.where(bit == 1, self._zeros[level] + ones, starts - ones)
        return starts

    def extract(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Decode the contiguous slice ``[lo, hi)`` with the batch kernels."""
        hi = self._n if hi is None else min(hi, self._n)
        lo = max(lo, 0)
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        return self.extract_at(np.arange(lo, hi, dtype=np.int64))

    # -- accounting -------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Decode the whole sequence (vectorised level-by-level)."""
        return self.extract(0, self._n)

    def size_in_bits(self) -> int:
        """Bits retained by all level bitvectors plus the header."""
        return sum(bv.size_in_bits() for bv in self._bits) + 64 * (
            len(self._zeros) + 3
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WaveletMatrix(n={self._n}, sigma={self._sigma}, "
            f"levels={self._levels})"
        )
