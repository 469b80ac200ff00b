"""Tests for the FxArray container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FormatError, RangeError
from repro.fixedpoint import FxArray, Overflow, QFormat
from repro.fixedpoint.rounding import Rounding, quantize_float


FMT = QFormat(4, 11)


class TestConstruction:
    def test_constructor_rejects_out_of_range_raw(self):
        with pytest.raises(FormatError):
            FxArray(np.array([FMT.raw_max + 1]), FMT)

    def test_from_float_roundtrip_exact_grid(self):
        values = np.arange(-16.0, 16.0, 0.25)
        x = FxArray.from_float(values, FMT)
        np.testing.assert_array_equal(x.to_float(), values)

    def test_from_raw_wraps_when_asked(self):
        x = FxArray.from_raw(FMT.raw_max + 1, FMT, overflow=Overflow.WRAP)
        assert int(x.raw) == FMT.raw_min

    def test_from_raw_errors_by_default(self):
        with pytest.raises(Exception):
            FxArray.from_raw(FMT.raw_max + 1, FMT)

    def test_zeros(self):
        z = FxArray.zeros((3, 2), FMT)
        assert z.shape == (3, 2)
        assert np.all(z.raw == 0)


class TestViews:
    def test_reinterpret_keeps_bits(self):
        # Doubling the value by moving the binary point: q -> 2q.
        q = FxArray.from_float(0.75, QFormat(1, 14))
        doubled = q.reinterpret(QFormat(2, 13))
        assert float(doubled.to_float()) == 1.5

    def test_reinterpret_rejects_width_change(self):
        q = FxArray.from_float(0.75, QFormat(1, 14))
        with pytest.raises(FormatError):
            q.reinterpret(QFormat(1, 11))

    def test_getitem_and_len(self):
        x = FxArray.from_float(np.array([1.0, 2.0, 3.0]), FMT)
        assert len(x) == 3
        assert float(x[1].to_float()) == 2.0

    def test_iter(self):
        x = FxArray.from_float(np.array([1.0, -1.0]), FMT)
        assert [float(v.to_float()) for v in x] == [1.0, -1.0]

    def test_equality(self):
        a = FxArray.from_float(1.5, FMT)
        b = FxArray.from_float(1.5, FMT)
        c = FxArray.from_float(1.5, QFormat(5, 10))
        assert a == b
        assert a != c

    def test_copy_is_independent(self):
        a = FxArray.from_float(np.array([1.0]), FMT)
        b = a.copy()
        b.raw[0] = 0
        assert a.raw[0] != 0


class TestQuantisationProperties:
    @given(st.lists(st.floats(-15.9, 15.9), min_size=1, max_size=32))
    def test_to_float_within_half_lsb(self, values):
        x = FxArray.from_float(np.array(values), FMT)
        np.testing.assert_allclose(x.to_float(), values, atol=FMT.resolution / 2)

    @given(st.integers(FMT.raw_min, FMT.raw_max))
    def test_raw_float_roundtrip(self, raw):
        x = FxArray.from_raw(raw, FMT)
        back = FxArray.from_float(float(x.to_float()), FMT)
        assert int(back.raw) == raw


class TestFromFloatSkipsTheRangeRescan:
    """``from_float`` wraps ``quantize_float``'s codes without re-checking.

    Every overflow policy leaves the codes in range by construction, so
    skipping the checking constructor must change nothing: the same raw
    words, or the same error, as ``FxArray(quantize_float(...))``.
    """

    @pytest.mark.parametrize("bits", [8, 12, 16, 24])
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.floats(-300.0, 300.0),
                st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300]),
            ),
            min_size=0, max_size=16,
        ),
        rounding=st.sampled_from(list(Rounding)),
        overflow=st.sampled_from(list(Overflow)),
        ib=st.integers(0, 4),
    )
    def test_matches_checking_constructor(self, bits, values, rounding,
                                          overflow, ib):
        fmt = QFormat(ib, bits - ib - 1)
        x = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):  # huge floats scale to inf
            self._compare(x, fmt, rounding, overflow)

    @staticmethod
    def _compare(x, fmt, rounding, overflow):
        try:
            want = FxArray(quantize_float(x, fmt, rounding, overflow), fmt)
        except RangeError:
            with pytest.raises(RangeError):
                FxArray.from_float(x, fmt, rounding, overflow)
            return
        got = FxArray.from_float(x, fmt, rounding, overflow)
        assert isinstance(got.raw, np.ndarray) and got.raw.dtype == np.int64
        assert got == want
