"""Box geometry: exact fixtures plus randomized checks against a
rasterization oracle."""

import numpy as np
import pytest

from layoutfusion.geometry import BoundingBox, clamp_coordinates, iou

from oracles import raster_iou


def random_box(rng, lo=0.0, hi=1.0):
    x1, x2 = np.sort(rng.uniform(lo, hi, size=2))
    y1, y2 = np.sort(rng.uniform(lo, hi, size=2))
    if x2 - x1 < 1e-3:
        x2 = min(hi, x1 + 1e-3)
    if y2 - y1 < 1e-3:
        y2 = min(hi, y1 + 1e-3)
    return BoundingBox(x1, y1, x2, y2)


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(0.2, 0.1, 0.2, 0.3)
        with pytest.raises(ValueError):
            BoundingBox(0.1, 0.4, 0.3, 0.4)

    def test_rejects_area_that_underflows(self):
        # Sides of 9.7e-180 pass the ordering checks, but their product
        # is 0.0, and IoU of two such boxes divided by a zero union.
        with pytest.raises(ValueError, match="degenerate box: area"):
            BoundingBox(0.0, 0.0, 9.7e-180, 9.7e-180)

    def test_smallest_boxes_have_finite_overlaps(self):
        a = BoundingBox(0.0, 0.0, 1e-154, 1e-154)
        b = BoundingBox(0.0, 0.0, 5e-324, 1.0)
        for x, y in ((a, a), (a, b), (b, b)):
            assert 0.0 <= iou(x, y) <= 1.0
        assert iou(a, a) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BoundingBox(-0.1, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, 0.5, 1.5)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox(0.6, 0.1, 0.4, 0.3)

    def test_clamp_counts_moved_coordinates(self):
        coords, moved = clamp_coordinates([-0.2, 0.1, 1.4, 0.9])
        assert coords == [0.0, 0.1, 1.0, 0.9]
        assert moved == 2

    def test_area(self):
        assert BoundingBox(0.0, 0.0, 0.5, 0.25).area == pytest.approx(0.125)


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(0.1, 0.2, 0.5, 0.8)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.8, 0.8)) == 0.0

    def test_offset_overlap_exact_value(self):
        # Intersection 0.01, union 0.07 -> 1/7. Cross-checked against
        # the pixel-grid oracle.
        a = BoundingBox(0, 0, 0.2, 0.2)
        b = BoundingBox(0.1, 0.1, 0.3, 0.3)
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)

    def test_symmetry_and_bounds_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a), abs=1e-15)

    def test_one_iff_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            if iou(a, b) == 1.0:
                assert a == b

    def test_matches_raster_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(raster_iou(a, b, 1500), abs=1e-3)

    def test_monotone_as_gap_shrinks(self):
        # Slide one box toward an overlapping partner: IoU never drops.
        a = BoundingBox(0.1, 0.1, 0.4, 0.4)
        previous = 0.0
        for shift in np.linspace(0.3, 0.0, 16):
            b = BoundingBox(0.1 + shift, 0.1, 0.4 + shift, 0.4)
            current = iou(a, b)
            assert current >= previous - 1e-12
            previous = current
