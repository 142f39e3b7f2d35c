"""Tests for the z-order curve."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Point, Rect
from repro.geometry.zorder import _interleave, quantise, z_encode

SPACE = Rect(0.0, 0.0, 1.0, 1.0)


def even_bits(value: int, bits: int) -> int:
    """Collect the even bit positions of ``value`` (undo ``_interleave``)."""
    return sum(((value >> (2 * i)) & 1) << i for i in range(bits))


class TestInterleave:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip(self, value):
        assert even_bits(_interleave(value, 16), 16) == value

    def test_known_values(self):
        assert _interleave(0b11, 2) == 0b0101
        assert _interleave(0b10, 2) == 0b0100


class TestQuantise:
    def test_bounds(self):
        assert quantise(0.0, 0.0, 1.0, bits=4) == 0
        assert quantise(1.0, 0.0, 1.0, bits=4) == 15

    def test_clamps_out_of_range(self):
        assert quantise(-5.0, 0.0, 1.0, bits=4) == 0
        assert quantise(5.0, 0.0, 1.0, bits=4) == 15

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            quantise(0.5, 1.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_in_grid(self, value):
        cell = quantise(value, 0.0, 1.0, bits=8)
        assert 0 <= cell < 256


class TestEncodeDecode:
    def test_z_locality_of_origin(self):
        assert z_encode(Point(0.0, 0.0), SPACE, bits=8) == 0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_code_in_range(self, x, y):
        code = z_encode(Point(x, y), SPACE, bits=8)
        assert 0 <= code < (1 << 16)
