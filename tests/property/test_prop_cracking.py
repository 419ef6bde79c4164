"""Property tests for the cracking kernels (the permutation mutation of
docs/ARCHITECTURE.md's four-mutation model)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import crack, crack_values, partition_order
from repro.datasets import BoxStore

KEYS = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=200,
)


@given(KEYS, st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_two_way_partition_postcondition(keys, bound):
    arr = np.array(keys)
    order, sizes = partition_order(arr, [bound])
    assert sorted(order.tolist()) == list(range(len(keys)))
    rearranged = arr[order]
    split = sizes[0]
    assert np.all(rearranged[:split] < bound)
    assert np.all(rearranged[split:] >= bound)


@given(
    KEYS,
    st.tuples(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ).filter(lambda t: t[0] < t[1]),
)
def test_three_way_partition_postcondition(keys, bounds):
    lo, hi = bounds
    arr = np.array(keys)
    order, sizes = partition_order(arr, [lo, hi])
    rearranged = arr[order]
    s0, s1 = sizes[0], sizes[0] + sizes[1]
    assert np.all(rearranged[:s0] < lo)
    assert np.all((rearranged[s0:s1] >= lo) & (rearranged[s0:s1] < hi))
    assert np.all(rearranged[s1:] >= hi)


@given(
    st.lists(
        st.tuples(
            st.floats(-1e4, 1e4, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=2,
        max_size=100,
    ),
    st.data(),
)
@settings(max_examples=60)
def test_store_crack_preserves_multiset_and_ranges(rows, data):
    lo = np.array([[r[0]] for r in rows])
    hi = np.array([[r[0] + r[1]] for r in rows])
    store = BoxStore(lo, hi)
    n = store.n
    begin = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(begin + 1, n))
    bound = data.draw(st.floats(-1e4, 1e4, allow_nan=False))
    fp = store.fingerprint()
    outside_before = (
        store.ids[:begin].tolist(),
        store.ids[end:].tolist(),
    )
    splits = crack(store, begin, end, 0, [bound])
    assert store.fingerprint() == fp
    assert begin <= splits[0] <= end
    assert np.all(store.lo[begin : splits[0], 0] < bound)
    assert np.all(store.lo[splits[0] : end, 0] >= bound)
    assert store.ids[:begin].tolist() == outside_before[0]
    assert store.ids[end:].tolist() == outside_before[1]


@given(
    st.lists(st.integers(0, 2**30), min_size=1, max_size=200),
    st.integers(0, 2**30),
)
def test_crack_values_postcondition(values, bound):
    codes = np.array(values, dtype=np.uint64)
    payload = np.arange(len(values))
    pairs_before = sorted(zip(codes.tolist(), payload.tolist()))
    split = crack_values(codes, payload, 0, len(values), bound)
    assert np.all(codes[:split] < bound)
    assert np.all(codes[split:] >= bound)
    assert sorted(zip(codes.tolist(), payload.tolist())) == pairs_before
