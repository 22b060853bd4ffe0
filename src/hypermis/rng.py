"""Counter-based random numbers.

Every random decision in this package is a pure function of a 64-bit key
and an integer counter (vertex id, trial index, ...), built from the
splitmix64 finalizer.  That makes runs reproducible bit-for-bit no matter
how the work is scheduled: marking vertices in parallel, in reverse, or
one at a time gives the same coins.

Keys are derived by folding context words (seed, algorithm tag, round,
retry, ...) with :func:`fold`.  Uniforms for a batch of ids come from
:func:`uniforms`, which accepts a numpy integer array and is fully
vectorized.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # golden-ratio increment, odd
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# Domain tags keep the streams of different consumers disjoint.
TAG_BL_MARK = 0x424C
TAG_SBL_SAMPLE = 0x5342
TAG_SBL_INNER = 0x5349
TAG_TRIAL = 0x4D43
TAG_GEN = 0x4745


def mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int (bijective on 64-bit words)."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MUL1) & _MASK
    x ^= x >> 27
    x = (x * _MUL2) & _MASK
    x ^= x >> 31
    return x


def fold(key: int, word: int) -> int:
    """Absorb one context word into a key.

    Injective in `word` for a fixed key, so distinct rounds/retries/trials
    never share a stream.
    """
    return mix64((key + _PHI + word) & _MASK)


def derive_key(*words: int) -> int:
    """Fold a sequence of context words into a stream key."""
    key = 0
    for w in words:
        key = fold(key, w)
    return key


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a fresh uint64 array, in place (every
    caller builds `x` for this call); returns it."""
    t = x >> np.uint64(30)
    x ^= t
    x *= np.uint64(_MUL1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MUL2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _words(key: int, ids: np.ndarray) -> np.ndarray:
    """The mixed 64-bit word of each id (or counter) for the stream key."""
    words = np.asarray(ids, dtype=np.uint64) * np.uint64(_PHI)
    words ^= np.uint64(key)
    return _mix64_array(words)


def uniforms(key: int, ids: np.ndarray) -> np.ndarray:
    """Uniform [0,1) doubles, one per id, for the given stream key.

    Distinct ids map to distinct 64-bit words (the id enters through an
    odd-multiplier bijection before mixing), so per-id coins within one
    key never collide structurally.
    """
    return (_words(key, ids) >> np.uint64(11)) * (2.0 ** -53)


def _top_word(p: float) -> np.uint64:
    """The largest word w that :func:`uniforms` maps below p, for p in (0,
    1]: (w >> 11) * 2^-53 < p iff w < ceil(p * 2^53) << 11 (p * 2^53 is
    exact), a bound of 2^64 at p = 1, which every word is below."""
    return np.uint64((math.ceil(p * 2.0 ** 53) << 11) - 1)


def marks(key: int, ids: np.ndarray, p: float) -> np.ndarray:
    """uniforms(key, ids) < p for p in (0, 1], from the words."""
    return _words(key, ids) <= _top_word(p)


def uniform(key: int, counter: int) -> float:
    """Scalar counterpart of :func:`uniforms`."""
    word = ((counter & _MASK) * _PHI) & _MASK
    return (mix64(word ^ key) >> 11) * (2.0 ** -53)


def _grid_words(key: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The mixed 64-bit words of :func:`uniform_grid`."""
    rk = _mix64_array(np.asarray(rows, dtype=np.uint64) + np.uint64((key + _PHI) & _MASK))
    return _mix64_array((np.asarray(cols, dtype=np.uint64) * np.uint64(_PHI)) ^ rk[:, None])


def uniform_grid(key: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """len(rows) x len(cols) matrix of uniforms.

    Row r uses the sub-key fold(key, rows[r]); entry (r, c) is then the
    uniform for id cols[c] in that sub-key.  No module of the package
    calls it (the Monte Carlo trials and the blocks of marking rounds
    draw :func:`mark_grid`); it is kept only for perfbench/tracer.py and
    the tests, until the benchmark drops it.
    """
    return (_grid_words(key, rows, cols) >> np.uint64(11)) * (2.0 ** -53)


def mark_grid(key: int, rows: np.ndarray, cols: np.ndarray, p: float) -> np.ndarray:
    """uniform_grid(key, rows, cols) < p for p in (0, 1], from the words."""
    return _grid_words(key, rows, cols) <= _top_word(p)


def _span(bound: int) -> int:
    """Rejection bound of :meth:`Stream.randbelow`: the largest multiple
    of `bound` that is at most 2^64 - 1.  A word at or above it is drawn
    again, so that `word % bound` is uniform."""
    return (_MASK // bound) * bound


def _window_any(flags: np.ndarray, width: int) -> np.ndarray:
    """out[q] = flags[q : q + width].any() for every window that fits, in
    about log2(width) passes: each pass widens the windows, at most
    doubling them."""
    out, covered = flags, 1
    while covered < width:
        step = min(covered, width - covered)
        out = out[:-step] | out[step:]
        covered += step
    return out


class Stream:
    """Sequential draw helper over a counter-based key (for generators)."""

    def __init__(self, *words: int):
        self.key = derive_key(*words)
        self.counter = 0

    def u01(self) -> float:
        u = uniform(self.key, self.counter)
        self.counter += 1
        return u

    def randbelow(self, bound: int) -> int:
        """Uniform int in [0, bound).  Uses rejection to avoid modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = _span(bound)
        while True:
            word = ((self.counter & _MASK) * _PHI) & _MASK
            self.counter += 1
            z = mix64(word ^ self.key)
            if z < span:
                return z % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi] inclusive."""
        return lo + self.randbelow(hi - lo + 1)

    def sample_ids(self, n: int, k: int) -> tuple[int, ...]:
        """Sorted k-subset of {1..n}, uniform over all k-subsets."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        # the draws of randbelow(n), with the bound computed once and the
        # words mixed in place (mix64 of the counter word xor the key)
        span, key, counter = _span(max(n, 1)), self.key, self.counter
        chosen: set[int] = set()
        while len(chosen) < k:
            z = ((((counter & _MASK) * _PHI) & _MASK) ^ key) & _MASK
            counter += 1
            z ^= z >> 30
            z = (z * _MUL1) & _MASK
            z ^= z >> 27
            z = (z * _MUL2) & _MASK
            z ^= z >> 31
            if z < span:
                chosen.add(1 + z % n)
        self.counter = counter
        return tuple(sorted(chosen))

    def sample_rows(self, n: int, k: int, count: int) -> np.ndarray:
        """`count` draws of :meth:`sample_ids` in a row, as the rows of a
        (count, k) int64 array; the counter ends where the last draw
        leaves it.  Ids must lie below 2^63.

        The words of a block of counters are mixed at once.  The k words
        from counter c are the draw at c, ending at c + k, when all pass
        the rejection bound and give distinct ids; any other draw is made
        by :meth:`sample_ids`, and the block resumes where it stops.
        """
        out = np.empty((count, k), dtype=np.int64)
        span, got = np.uint64(_span(n)), 0
        while got < count:
            start = self.counter
            size = (count - got) * k * 17 // 16 + k + 16  # room for some redraws
            z = _words(self.key, np.arange(start, start + size, dtype=np.uint64))
            ids = (z % np.uint64(n)).astype(np.int64) + 1
            last = size - k + 1  # windows of k words start at 0 .. last - 1
            bad = _window_any(z >= span, k)
            for gap in range(1, k):  # equal ids `gap` words apart
                if bad.all():  # no window left to rule out
                    break
                bad |= _window_any(ids[gap:] == ids[:-gap], k - gap)
            # the bad windows by position mod k: a draw that ends at p is
            # followed by the draws at p, p + k, ... up to the next one
            by_phase = [[] for _ in range(k)]
            for q in np.flatnonzero(bad).tolist():
                by_phase[q % k].append(q)
            runs = []  # (first draw, its window, draws) of each run of windows
            p = 0
            while True:
                phase = by_phase[p % k]
                at = bisect_left(phase, p)
                stop = phase[at] if at < len(phase) else last
                run = min(len(range(p, stop, k)), count - got)
                runs.append((got, p, run))
                got, p = got + run, p + run * k
                if got == count or p >= last:
                    break
                self.counter = start + p
                out[got] = self.sample_ids(n, k)
                got, p = got + 1, self.counter - start
            first, window, length = np.array(runs).T
            step = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
            windows = np.repeat(window, length) + k * step
            drawn = ids[windows[:, None] + np.arange(k)]
            out[np.repeat(first, length) + step] = np.sort(drawn, axis=1)
            self.counter = start + p
        return out
