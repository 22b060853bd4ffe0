import math

import numpy as np

from hypermis import rng


def test_scalar_matches_vector():
    ids = np.arange(1, 200, dtype=np.int64)
    key = rng.derive_key(123, 7)
    vec = rng.uniforms(key, ids)
    for i, v in enumerate(ids):
        assert vec[i] == rng.uniform(key, int(v))


def test_grid_matches_fold_per_row():
    key = rng.derive_key(9, rng.TAG_TRIAL)
    ids = np.array([1, 5, 9], dtype=np.int64)
    grid = rng.uniform_grid(key, np.arange(4), ids)
    for t in range(4):
        row_key = rng.fold(key, t)
        assert np.array_equal(grid[t], rng.uniforms(row_key, ids))


def test_streams_disjoint_across_keys():
    ids = np.arange(1, 1000, dtype=np.int64)
    a = rng.uniforms(rng.derive_key(1, 2), ids)
    b = rng.uniforms(rng.derive_key(1, 3), ids)
    assert not np.array_equal(a, b)


def test_uniform_mean_and_range():
    ids = np.arange(1, 100_001, dtype=np.int64)
    u = rng.uniforms(rng.derive_key(42), ids)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    # mark-rate sanity at a small p
    assert abs((u < 0.03).mean() - 0.03) < 0.003


def test_fold_injective_in_word():
    key = rng.derive_key(5)
    seen = {rng.fold(key, w) for w in range(10_000)}
    assert len(seen) == 10_000


def test_stream_randbelow_and_sample():
    s = rng.Stream(11, rng.TAG_GEN)
    draws = [s.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    t = rng.Stream(11, rng.TAG_GEN)
    assert [t.randbelow(7) for _ in range(2000)] == draws  # replayable
    ids = s.sample_ids(10, 4)
    assert len(ids) == 4 and list(ids) == sorted(set(ids))
    assert all(1 <= v <= 10 for v in ids)
    assert s.sample_ids(5, 5) == (1, 2, 3, 4, 5)


def test_sample_ids_replays_randbelow():
    # sample_ids mixes its words in place; it must make exactly the draws
    # of a randbelow loop and leave the counter where that loop does, also
    # where the rejection bound turns words away (n = 3 * 2^61 rejects a
    # quarter of them)
    for n, k in [(0, 0), (1, 1), (7, 3), (13, 13), (1000, 200), (3 * 2**61, 40), (2**63 - 1, 5)]:
        for words in [(1,), (11, rng.TAG_GEN), (2**64 - 1, 3)]:
            s, ref = rng.Stream(*words), rng.Stream(*words)
            for _ in range(3):
                chosen: set[int] = set()
                while len(chosen) < k:
                    chosen.add(1 + ref.randbelow(n))
                assert s.sample_ids(n, k) == tuple(sorted(chosen))
                assert s.counter == ref.counter


def test_mark_grid_is_uniform_grid_below_p():
    # the marks compare the mixed words with an integer bound; they must be
    # the uniforms' comparison exactly, at p = 1, at the bound's edge cases
    # (one and a half grid steps, the smallest double) and at the very
    # uniforms drawn and the doubles next to them, with ids up to 2^63 - 1
    # and trial counters up to 2^40
    key = rng.derive_key(21, rng.TAG_TRIAL)
    rows = np.array([0, 1, 7, 2**20, 2**40 - 1, 2**40], dtype=np.int64)
    cols = np.array([1, 2, 3, 1000, 2**62, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    grid = rng.uniform_grid(key, rows, cols)
    ps = [1.0, 0.5, math.nextafter(0.5, 0), 2**-53, 3 * 2**-54, 5e-324, 1 / 3, 0.02]
    for u in grid.ravel().tolist():
        ps += [p for p in (u, math.nextafter(u, 0), math.nextafter(u, 1)) if 0 < p <= 1]
    for p in ps:
        assert np.array_equal(rng.mark_grid(key, rows, cols, p), grid < p), p
    assert rng.mark_grid(key, rows, cols, 1.0).all()
    assert rng.mark_grid(key, rows[:0], cols, 0.5).shape == (0, len(cols))
