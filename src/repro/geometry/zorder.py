"""Z-order (Morton) space-filling curve.

Section 2.3 of the paper notes that the entries of a page may also be
z-values stored in a B-tree (Orenstein/Manola's PROBE approach).  The
reproduction indexes with the paper's R*-tree, so only the curve's encoding
is kept: :class:`~repro.storage.objects.ObjectStore` packs object pages in
z-order, and the Hilbert keys of ``bulk_load(method="hilbert")`` share its
quantisation.
"""

from __future__ import annotations

from repro.geometry.rect import Point, Rect

#: Default number of bits per dimension.  16 bits give a 65536 x 65536 grid,
#: plenty for the synthetic datasets while keeping z-values in 32 bits.
DEFAULT_BITS = 16


def _interleave(value: int, bits: int) -> int:
    """Spread the low ``bits`` bits of ``value`` to even bit positions."""
    result = 0
    for i in range(bits):
        result |= ((value >> i) & 1) << (2 * i)
    return result


def quantise(coordinate: float, lo: float, hi: float, bits: int = DEFAULT_BITS) -> int:
    """Map ``coordinate`` in ``[lo, hi]`` onto the integer grid ``[0, 2^bits)``."""
    if hi <= lo:
        raise ValueError("quantise() requires hi > lo")
    cells = 1 << bits
    clamped = min(max(coordinate, lo), hi)
    cell = int((clamped - lo) / (hi - lo) * cells)
    return min(cell, cells - 1)


def z_encode(point: Point, space: Rect, bits: int = DEFAULT_BITS) -> int:
    """Morton code of ``point`` within the data space ``space``."""
    ix = quantise(point.x, space.x_min, space.x_max, bits)
    iy = quantise(point.y, space.y_min, space.y_max, bits)
    return _interleave(ix, bits) | (_interleave(iy, bits) << 1)
