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


def uniforms(key: int, ids: np.ndarray) -> np.ndarray:
    """Uniform [0,1) doubles, one per id, for the given stream key.

    Distinct ids map to distinct 64-bit words (the id enters through an
    odd-multiplier bijection before mixing), so per-id coins within one
    key never collide structurally.
    """
    words = np.asarray(ids, dtype=np.uint64) * np.uint64(_PHI)
    words ^= np.uint64(key)
    return (_mix64_array(words) >> np.uint64(11)) * (2.0 ** -53)


def uniform(key: int, counter: int) -> float:
    """Scalar counterpart of :func:`uniforms`."""
    word = ((counter & _MASK) * _PHI) & _MASK
    return (mix64(word ^ key) >> 11) * (2.0 ** -53)


def uniform_grid(key: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """len(rows) x len(cols) matrix of uniforms.

    Row r uses the sub-key fold(key, rows[r]); entry (r, c) is then the
    uniform for id cols[c] in that sub-key.  Used for Monte Carlo trials
    (rows = trial indices, cols = vertex ids).
    """
    rk = _mix64_array(np.asarray(rows, dtype=np.uint64) + np.uint64((key + _PHI) & _MASK))
    words = np.asarray(cols, dtype=np.uint64) * np.uint64(_PHI)
    grid = _mix64_array(words[None, :] ^ rk[:, None])
    grid >>= np.uint64(11)
    return grid * (2.0 ** -53)


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
        span = (_MASK // bound) * bound
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
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.randint(1, n))
        return tuple(sorted(chosen))
