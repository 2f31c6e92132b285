"""Property tests: the plain-float scalar paths against their array or
linear-scan forms.

IoU and the two box blends must match bit for bit; scalar
sigmoid/logit may differ from numpy's only by the rounding of
``exp``/``log``; taxonomy lookups must give the same answers and errors
as a scan over the category tuple.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from layoutfusion.fusion import fuse_fixed_box, fuse_inverse_variance
from layoutfusion.geometry import BoundingBox, iou, paired_iou
from layoutfusion.numerics import logit, sigmoid
from layoutfusion.taxonomy import PUBLAYNET, TAXONOMIES

from oracles import _iou_tuple

unit = st.floats(min_value=0.0, max_value=1.0)
fraction = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def boxes(draw):
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    assume((x2 - x1) * (y2 - y1) > 0.0)
    return BoundingBox(x1, y1, x2, y2)


def _spans(box, axis):
    """``box``'s span on ``axis`` and on the other axis."""
    x, y = (box.x1, box.x2), (box.y1, box.y2)
    return (x, y) if axis == "x" else (y, x)


def _box_from_spans(axis, span, other):
    (x1, x2), (y1, y2) = (span, other) if axis == "x" else (other, span)
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def box_pairs(draw):
    """Independent or nested box pairs, and pairs that touch (share an
    edge) or stand apart on one axis while they overlap on the other.
    Taken in both orders, these reach each of ``iou``'s four separating
    edges and its overlap path."""
    a = draw(boxes())
    kind = draw(st.sampled_from(["independent", "touching", "apart", "nested"]))
    if kind == "independent":
        return a, draw(boxes())
    axis = draw(st.sampled_from(["x", "y"]))
    (lo, hi), (other_lo, other_hi) = _spans(a, axis)
    if (kind == "touching" and hi < 1.0) or (kind == "apart" and hi <= 0.99):
        start = hi if kind == "touching" else draw(st.floats(hi, 1.0, exclude_min=True, exclude_max=True))
        end = draw(st.floats(start, 1.0, exclude_min=True))
        # Any span that overlaps a's on the other axis.
        near = draw(st.floats(other_lo, other_hi, exclude_max=True))
        far = draw(st.floats(near, 1.0, exclude_min=True))
        assume((end - start) * (far - near) > 0.0)
        return a, _box_from_spans(axis, (start, end), (near, far))
    # Nested: corners at fractions of the outer box (degenerate draws fall back to a itself).
    fx = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
    fy = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
    inner = [a.x1 + f * a.width for f in fx] + [a.y1 + f * a.height for f in fy]
    x1, x2, y1, y2 = inner
    if x1 < x2 and y1 < y2 and x2 <= 1.0 and y2 <= 1.0 and (x2 - x1) * (y2 - y1) > 0.0:
        return a, BoundingBox(x1, y1, x2, y2)
    return a, a


def _coords(box):
    return (box.x1, box.y1, box.x2, box.y2)


def _outcome(fn):
    """The returned box's coordinate bytes, or the raised error's message."""
    try:
        return ("box", fn().as_array().tobytes())
    except ValueError as exc:
        return ("error", str(exc))


def _checked_loop(x1, y1, x2, y2):
    """The per-coordinate validation BoundingBox did before its fast path."""
    for name, value in (("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2)):
        if not np.isfinite(value):
            return f"box coordinate {name}={value!r} is not finite"
        if value < 0.0 or value > 1.0:
            return f"box coordinate {name}={value} outside [0, 1]"
    if not x1 < x2:
        return f"degenerate box: x1={x1} >= x2={x2}"
    if not y1 < y2:
        return f"degenerate box: y1={y1} >= y2={y2}"
    if not (x2 - x1) * (y2 - y1) > 0.0:
        return f"degenerate box: area {x2 - x1}*{y2 - y1} underflows to 0.0"
    return None


coordinate = st.one_of(
    unit, st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-160, 1e-150])
)


@given(coordinate, coordinate, coordinate, coordinate)
def test_box_validation_matches_per_coordinate_checks(x1, y1, x2, y2):
    try:
        BoundingBox(x1, y1, x2, y2)
        message = None
    except ValueError as exc:
        message = str(exc)
    assert message == _checked_loop(x1, y1, x2, y2)


class _ReadLog:
    """A box that logs each coordinate read from it into ``log``."""

    def __init__(self, box, label, log):
        self._box, self._label, self._log = box, label, log

    def __getattr__(self, name):
        self._log.append(f"{self._label}.{name}")
        return getattr(self._box, name)


# iou's edge tests in order, each with the two coordinates it reads.
_EDGE_TESTS = (("a.x2", "b.x1"), ("b.x2", "a.x1"), ("a.y2", "b.y1"), ("b.y2", "a.y1"))


def _expected_reads(a, b):
    """The coordinates iou reads: each edge test's pair, up to and
    including the first that separates the boxes; all eight on overlap."""
    boxes = {"a": a, "b": b}
    reads = []
    for high, low in _EDGE_TESTS:
        reads += [high, low]
        value = {name: getattr(boxes[name[0]], name[2:]) for name in (high, low)}
        if value[high] <= value[low]:
            return reads
    return reads


TOUCHING_X = (BoundingBox(0.1, 0.2, 0.3, 0.6), BoundingBox(0.3, 0.4, 0.5, 0.8))
TOUCHING_Y = (BoundingBox(0.2, 0.1, 0.6, 0.3), BoundingBox(0.4, 0.3, 0.8, 0.5))


@example(TOUCHING_X)
@example(TOUCHING_Y)
@given(box_pairs())
def test_iou_equals_tuple_oracle_bit_for_bit(pair):
    """Also that it stops at the first separating edge: a touching pair
    has IoU 0.0 whether or not its shared edge counts as separating,
    so only the coordinates read tell an edge test's ``<=`` from ``<``."""
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert iou(x, y).hex() == _iou_tuple(_coords(x), _coords(y)).hex()
        log = []
        iou(_ReadLog(x, "a", log), _ReadLog(y, "b", log))
        assert log == _expected_reads(x, y)


@st.composite
def tiny_boxes(draw):
    """Boxes near the origin with sides down to 1e-160, whose area is
    barely above the underflow."""
    x1, y1 = draw(st.floats(0.0, 1e-150)), draw(st.floats(0.0, 1e-150))
    x2, y2 = x1 + draw(st.floats(1e-160, 1e-140)), y1 + draw(st.floats(1e-160, 1e-140))
    assume(x1 < x2 and y1 < y2 and (x2 - x1) * (y2 - y1) > 0.0)
    return BoundingBox(x1, y1, x2, y2)


@st.composite
def iou_cases(draw):
    """``box_pairs`` plus disjoint, identical and tiny pairs."""
    kind = draw(st.sampled_from(["box_pairs", "disjoint", "identical", "tiny"]))
    if kind == "tiny":
        return draw(tiny_boxes()), draw(tiny_boxes())
    a = draw(boxes())
    if kind == "identical":
        return a, BoundingBox(*_coords(a))
    if kind == "disjoint" and a.x2 <= 0.99:
        x1 = draw(st.floats(min_value=a.x2, max_value=1.0, exclude_min=True, exclude_max=True))
        x2 = draw(st.floats(min_value=x1, max_value=1.0, exclude_min=True))
        assume((x2 - x1) * (a.y2 - a.y1) > 0.0)
        return a, BoundingBox(x1, a.y1, x2, a.y2)
    return draw(box_pairs())


@given(st.lists(iou_cases(), min_size=1, max_size=30))
def test_paired_iou_equals_scalar_iou_bit_for_bit(pairs):
    a = np.array([_coords(x) for x, _ in pairs])
    b = np.array([_coords(y) for _, y in pairs])
    for got, (x, y) in zip(paired_iou(a, b).tolist(), pairs):
        assert got.hex() == iou(x, y).hex()
    for got, (x, y) in zip(paired_iou(b, a).tolist(), pairs):
        assert got.hex() == iou(y, x).hex()


def _in_hull(coords, b_t, b_l):
    """Blended coordinates moved into the hull of the two boxes', as the
    scalar blends keep them: a rounded blend can land an ulp past both."""
    t, l = b_t.as_array(), b_l.as_array()
    return BoundingBox.from_array(np.clip(coords, np.minimum(t, l), np.maximum(t, l)))


@given(boxes(), boxes(), unit)
def test_fixed_blend_equals_array_form(b_t, b_l, weight):
    def array_form():
        return _in_hull(weight * b_t.as_array() + (1.0 - weight) * b_l.as_array(), b_t, b_l)

    assert _outcome(lambda: fuse_fixed_box(b_t, b_l, weight)) == _outcome(array_form)


@given(boxes(), boxes(), st.floats(1e-12, 1e3), st.floats(1e-12, 1e3))
def test_inverse_variance_blend_equals_array_form(b_t, b_l, var_t, var_l):
    def array_form():
        w_t, w_l = 1.0 / var_t, 1.0 / var_l
        return _in_hull((w_t * b_t.as_array() + w_l * b_l.as_array()) / (w_t + w_l), b_t, b_l)

    assert _outcome(lambda: fuse_inverse_variance(b_t, var_t, b_l, var_l)) == _outcome(array_form)


@given(st.floats(min_value=-800.0, max_value=800.0))
def test_scalar_sigmoid_within_two_ulps_of_array_path(x):
    got = sigmoid(x)
    want = float(sigmoid(np.array([x]))[0])
    assert type(got) is float
    assert abs(got - want) <= 2 * math.ulp(want)


@given(fraction)
def test_scalar_logit_within_two_ulps_of_array_path(p):
    got = logit(p)
    want = float(logit(np.array([p]))[0])
    assert type(got) is float
    # logit subtracts two logs that nearly cancel near p = 1/2, so the
    # ulps are counted on the larger log term; the subtraction may round
    # once more.
    term = max(abs(math.log(p)), abs(math.log1p(-p)))
    assert abs(got - want) <= 2 * math.ulp(term) + math.ulp(want)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, -math.inf, math.inf])
def test_scalar_logit_raises_like_array_path(p):
    with pytest.raises(ValueError) as scalar:
        logit(p)
    with pytest.raises(ValueError) as array:
        logit(np.array([p]))
    assert str(scalar.value) == str(array.value)


def test_scalar_paths_pass_nan_through():
    assert math.isnan(sigmoid(math.nan))
    assert math.isnan(logit(math.nan))
    assert np.isnan(sigmoid(np.array([math.nan]))[0])
    assert np.isnan(logit(np.array([math.nan]))[0])


def _scan_category(taxonomy, name):
    for c in taxonomy.categories:
        if c.name == name:
            return c
    raise KeyError(f"unknown category {name!r} in taxonomy {taxonomy.name!r}")


def _scan_contains(taxonomy, name):
    return any(c.name == name for c in taxonomy.categories)


def _scan_compatible(taxonomy, a, b):
    for name in (a, b):
        if not _scan_contains(taxonomy, name):
            raise KeyError(f"unknown category {name!r} in taxonomy {taxonomy.name!r}")
    return a == b or frozenset({a, b}) in taxonomy.confusable_pairs


def _result(fn, *args):
    try:
        return ("value", fn(*args))
    except KeyError as exc:
        return ("error", str(exc))


all_names = sorted({c.name for t in TAXONOMIES.values() for c in t.categories})
names = st.one_of(st.sampled_from(all_names), st.text(max_size=12))


@given(st.sampled_from(sorted(TAXONOMIES)), names, names)
def test_indexed_taxonomy_matches_linear_scan(taxonomy_name, a, b):
    taxonomy = TAXONOMIES[taxonomy_name]
    assert _result(taxonomy.category, a) == _result(_scan_category, taxonomy, a)
    assert (a in taxonomy) == _scan_contains(taxonomy, a)
    assert _result(taxonomy.compatible, a, b) == _result(_scan_compatible, taxonomy, a, b)


def test_unhashable_name_is_unknown():
    assert [] not in PUBLAYNET
    with pytest.raises(KeyError, match="unknown category"):
        PUBLAYNET.category([])
