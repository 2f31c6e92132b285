"""Axis-aligned box geometry in normalized page coordinates.

All boxes live in the unit square: x grows rightward, y grows downward,
and every coordinate is in [0, 1]. Degenerate boxes (zero width or
height, or an area that underflows to 0.0) are rejected at construction
because they poison IoU and the variance-based fusion formulas
downstream.
"""

from __future__ import annotations

import math

import numpy as np

from .schema import record

__all__ = ["BoundingBox", "iou", "best_overlap", "paired_iou", "clamp_coordinates"]


@record
class BoundingBox:
    """Normalized rectangle with strict ordering invariants.

    Invariants: 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        # One test accepts exactly the valid boxes (NaN and the infinities
        # fail it); the checks below only name what is wrong. The area
        # test rejects sides so small that their product underflows to
        # 0.0, which would make the IoU union zero.
        if 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0 and (x2 - x1) * (y2 - y1) > 0.0:
            return
        for name, value in (("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2)):
            if not math.isfinite(value):
                raise ValueError(f"box coordinate {name}={value!r} is not finite")
            if value < 0.0 or value > 1.0:
                raise ValueError(f"box coordinate {name}={value} outside [0, 1]")
        if not x1 < x2:
            raise ValueError(f"degenerate box: x1={x1} >= x2={x2}")
        if not y1 < y2:
            raise ValueError(f"degenerate box: y1={y1} >= y2={y2}")
        raise ValueError(f"degenerate box: area {x2 - x1}*{y2 - y1} underflows to 0.0")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @classmethod
    def from_array(cls, coords) -> "BoundingBox":
        x1, y1, x2, y2 = coords
        return cls(float(x1), float(y1), float(x2), float(y2))


def clamp_coordinates(coords) -> tuple[list[float], int]:
    """Clamp raw coordinates into [0, 1], counting how many moved.

    Used at ingest; validity (x1 < x2 etc.) is checked afterwards so a
    clamp that collapses a box still surfaces as an error.
    """
    clamped = []
    moved = 0
    for c in coords:
        c = float(c)
        # min(1.0, max(0.0, c)) as conditional expressions, NaN included.
        bounded = c if c > 0.0 else 0.0
        bounded = bounded if bounded < 1.0 else 1.0
        if bounded != c:
            moved += 1
        clamped.append(bounded)
    return clamped, moved


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union. Symmetric, in [0, 1], 1 iff identical.

    Returns 0.0 at the first separating edge: ``a.x2 <= b.x1``, then
    ``b.x2 <= a.x1``, then the same two tests on y, each coordinate
    read only when a test needs it. For valid boxes these four tests
    are exactly ``ix <= 0 or iy <= 0``, so every result keeps its bits;
    pairs that overlap on both axes compute the intersection and the
    union as the tuple form does. Callers make one call per candidate
    pair, with no pre-filter of their own: the benchmark's dense
    workload counts these calls (its floor is IoU calls per page).
    """
    ax2 = a.x2
    bx1 = b.x1
    if ax2 <= bx1:
        return 0.0
    bx2 = b.x2
    ax1 = a.x1
    if bx2 <= ax1:
        return 0.0
    ay2 = a.y2
    by1 = b.y1
    if ay2 <= by1:
        return 0.0
    by2 = b.y2
    ay1 = a.y1
    if by2 <= ay1:
        return 0.0
    # Conditional expressions pick what min()/max() would, minus the calls.
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    intersection = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - intersection
    return intersection / union


def best_overlap(box: BoundingBox, candidates) -> tuple[int, float]:
    """Position in ``candidates`` of the box that overlaps ``box`` most,
    and that IoU; ``(-1, 0.0)`` when none overlaps.

    One ``iou(box, candidate)`` per candidate, in order, compared with a
    strict ``>``: the first of equal maxima wins. ``iou`` is looked up
    as a module global on every call, so rebinding ``geometry.iou``
    reaches every caller.
    """
    best_pos = -1
    best_iou = 0.0
    for pos, candidate in enumerate(candidates):
        overlap = iou(box, candidate)
        if overlap > best_iou:
            best_iou = overlap
            best_pos = pos
    return best_pos, best_iou


def paired_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of each row of ``a`` with the same row of ``b``, two (n, 4)
    coordinate arrays: the scalar operations in the same order, so each
    value equals ``iou`` of the two boxes bit for bit."""
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    ix = np.minimum(bx2, ax2) - np.maximum(bx1, ax1)
    iy = np.minimum(by2, ay2) - np.maximum(by1, ay1)
    intersection = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - intersection
    return intersection / union
