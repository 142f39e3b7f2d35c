"""Geometric primitives used throughout the library.

The paper's spatial page-replacement criteria (Section 2.3) are defined in
terms of minimum bounding rectangles (MBRs): the area and margin of a page's
MBR, the summed area/margin of its entry MBRs, and the pairwise overlap
between entry MBRs.  This package provides the axis-aligned rectangle type
those criteria are computed on, plus the z-order and Hilbert space-filling
curves that order object pages and bulk-loaded tree pages.
"""

from repro.geometry.hilbert import hilbert_encode, hilbert_to_xy, xy_to_hilbert
from repro.geometry.rect import Point, Rect, mbr_of_points, mbr_of_rects
from repro.geometry.zorder import z_encode

__all__ = [
    "Point",
    "Rect",
    "mbr_of_points",
    "mbr_of_rects",
    "z_encode",
    "hilbert_encode",
    "xy_to_hilbert",
    "hilbert_to_xy",
]
