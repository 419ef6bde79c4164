"""Property tests for the Z-order substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sfc import morton_decode, morton_encode, zrange_decompose


@given(
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=80)
def test_encode_decode_round_trip(ndim, bits, seed):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 1 << bits, size=(50, ndim))
    assert np.array_equal(morton_decode(morton_encode(cells, bits), ndim, bits), cells)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_encode_is_bijective_2d(bits, seed):
    side = 1 << bits
    cells = np.array([[x, y] for x in range(min(side, 8)) for y in range(min(side, 8))])
    codes = morton_encode(cells, bits)
    assert len(set(codes.tolist())) == len(cells)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_decomposition_tiles_window_exactly(data):
    ndim = data.draw(st.integers(1, 3))
    bits = data.draw(st.integers(2, 5))
    side = 1 << bits
    lo = np.array([data.draw(st.integers(0, side - 1)) for _ in range(ndim)])
    hi = np.array([data.draw(st.integers(int(l), side - 1)) for l in lo])
    intervals = zrange_decompose(lo, hi, ndim, bits, min_size=1)

    # Disjoint and ordered.
    for (a_lo, a_hi), (b_lo, b_hi) in zip(intervals, intervals[1:]):
        assert a_lo <= a_hi and a_hi < b_lo

    # Exact tiling: decoded cells == the window's cell set.
    cells = set()
    for c_lo, c_hi in intervals:
        decoded = morton_decode(
            np.arange(c_lo, c_hi + 1, dtype=np.uint64), ndim, bits
        )
        cells.update(map(tuple, decoded.tolist()))
    expected = set()
    ranges = [range(int(lo[k]), int(hi[k]) + 1) for k in range(ndim)]

    def rec(prefix, k):
        if k == ndim:
            expected.add(tuple(prefix))
            return
        for v in ranges[k]:
            rec(prefix + [v], k + 1)

    rec([], 0)
    assert cells == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_coarsened_decomposition_is_superset_with_fewer_intervals(data):
    ndim = data.draw(st.integers(1, 2))
    bits = data.draw(st.integers(3, 6))
    side = 1 << bits
    lo = np.array([data.draw(st.integers(0, side - 2)) for _ in range(ndim)])
    hi = np.array([data.draw(st.integers(int(l), side - 1)) for l in lo])
    exact = zrange_decompose(lo, hi, ndim, bits, min_size=1)
    coarse = zrange_decompose(lo, hi, ndim, bits, min_size=4)
    assert len(coarse) <= len(exact)

    def covered(intervals):
        total = set()
        for a, b in intervals:
            total.update(range(a, b + 1))
        return total

    assert covered(exact) <= covered(coarse)
