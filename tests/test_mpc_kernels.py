"""Shared NumPy kernels: segmented scans.

Property-based (hypothesis) checks against straightforward Python
reference implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.kernels import (
    op_combine,
    op_identity,
    segment_starts,
    segmented_scan,
)


def ref_segmented_scan(values, op, starts, exclusive):
    out = []
    acc = None
    f = {"sum": lambda a, b: a + b, "max": max, "min": min}[op]
    ident = op_identity(op, np.asarray(values).dtype)
    for v, s in zip(values, starts):
        if s:
            acc = None
        out.append(acc if acc is not None else ident)
        acc = v if acc is None else f(acc, v)
    if exclusive:
        return np.array(out, dtype=np.float64)
    res, acc = [], None
    for v, s in zip(values, starts):
        if s:
            acc = None
        acc = v if acc is None else f(acc, v)
        res.append(acc)
    return np.array(res, dtype=np.float64)


segments = st.lists(
    st.tuples(st.integers(1, 6),
              st.lists(st.floats(-100, 100), min_size=1, max_size=8)),
    min_size=0, max_size=6,
)


class TestSegmentStarts:
    def test_empty(self):
        assert len(segment_starts(None, 0)) == 0

    def test_no_keys_single_segment(self):
        s = segment_starts(None, 4)
        assert s.tolist() == [True, False, False, False]

    def test_keyed(self):
        s = segment_starts(np.array([1, 1, 2, 2, 2, 3]), 6)
        assert s.tolist() == [True, False, True, False, False, True]


class TestSegmentedScan:
    @pytest.mark.parametrize("op", ["sum", "max", "min"])
    @pytest.mark.parametrize("exclusive", [False, True])
    def test_known_case(self, op, exclusive):
        keys = np.array([0, 0, 0, 1, 1, 2])
        vals = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 7.0])
        starts = segment_starts(keys, 6)
        got = segmented_scan(vals, op, starts, exclusive=exclusive)
        want = ref_segmented_scan(vals, op, starts, exclusive)
        np.testing.assert_allclose(got, want)

    @given(segs=segments, op=st.sampled_from(["max", "min"]),
           exclusive=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_minmax_matches_reference(self, segs, op, exclusive):
        keys, vals = [], []
        for i, (_, vs) in enumerate(segs):
            keys += [i] * len(vs)
            vals += vs
        keys = np.array(keys, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)
        starts = segment_starts(keys if len(keys) else None, len(vals))
        got = segmented_scan(vals, op, starts, exclusive=exclusive)
        want = ref_segmented_scan(vals, op, starts, exclusive)
        np.testing.assert_allclose(got, want)

    @given(segs=st.lists(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
        min_size=0, max_size=6), exclusive=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_int_sum_matches_reference_exactly(self, segs, exclusive):
        # the library only segmented-sums integer columns (ranks, counts),
        # where the cumsum-offset realisation is exact
        keys, vals = [], []
        for i, vs in enumerate(segs):
            keys += [i] * len(vs)
            vals += vs
        keys = np.array(keys, dtype=np.int64)
        vals = np.array(vals, dtype=np.int64)
        starts = segment_starts(keys if len(keys) else None, len(vals))
        got = segmented_scan(vals, "sum", starts, exclusive=exclusive)
        want = ref_segmented_scan(vals, "sum", starts, exclusive)
        np.testing.assert_array_equal(got, want.astype(np.int64))

    def test_integer_sum_stays_int(self):
        starts = segment_starts(None, 3)
        out = segmented_scan(np.array([1, 2, 3]), "sum", starts)
        assert out.dtype.kind == "i"
        assert out.tolist() == [1, 3, 6]

    def test_unsupported_op(self):
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError):
            segmented_scan(np.array([1.0]), "mean",
                           segment_starts(None, 1))


class TestCombine:
    @pytest.mark.parametrize("op,a,b,want",
                             [("sum", 2, 3, 5), ("max", 2, 3, 3),
                              ("min", 2, 3, 2)])
    def test_ops(self, op, a, b, want):
        assert op_combine(op, a, b) == want

    def test_identities(self):
        assert op_identity("sum", np.float64) == 0.0
        assert op_identity("max", np.float64) == -np.inf
        assert op_identity("min", np.int64) == np.iinfo(np.int64).max
