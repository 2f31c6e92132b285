"""Property tests for matching, AP matching and refinement.

``match_regions``, ``average_precision``, ``prediction_correctness`` and
``gate_samples_from_pages`` must give bit-identical results to frozen
copies of their earlier loops (``oracles``) and make the same sequence
of ``geometry.iou`` calls. ``refine_pseudo_labels`` must not
raise on a valid page and ``FusionConfig``, keep each fused box inside
the hull of its two inputs and each fused confidence inside (0, 1).
"""

from unittest import mock

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from layoutfusion import geometry
from layoutfusion.fusion import FusionConfig, gate_samples_from_pages, match_regions, refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.metrics import (
    COCO_IOU_THRESHOLDS,
    Detection,
    GroundTruthBox,
    average_precision,
    prediction_correctness,
)
from layoutfusion.model import GroundTruthAnnotation, LlmRegion, Page, TeacherPrediction
from layoutfusion.taxonomy import DOCLAYNET

from oracles import (
    frozen_average_precision,
    frozen_gate_samples,
    frozen_match_regions,
    frozen_prediction_correctness,
)

unit = st.floats(min_value=0.0, max_value=1.0)
probability = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# Equal, confusable (caption/footer, title/section-header, table/figure)
# and incompatible pairs all occur among these.
CATEGORIES = ("caption", "footer", "title", "section-header", "table", "figure", "text")


@st.composite
def boxes(draw):
    """A box on a coarse grid (ties, shared edges and identical boxes are
    common) or anywhere in the unit square."""
    if draw(st.booleans()):
        x1, x2 = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)))
        y1, y2 = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)))
        return BoundingBox(x1 / 4, y1 / 4, x2 / 4, y2 / 4)
    x1, x2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(unit, min_size=2, max_size=2, unique=True)))
    assume((x2 - x1) * (y2 - y1) > 0.0)
    return BoundingBox(x1, y1, x2, y2)


category = st.sampled_from(CATEGORIES).map(DOCLAYNET.category)
teacher_predictions = st.builds(
    TeacherPrediction,
    box=boxes(),
    category=category,
    confidence=probability,
    coordinate_variance=st.one_of(
        st.none(), st.just(0.0), st.just(float("inf")), st.floats(min_value=0.0, allow_infinity=True)
    ),
)
quality = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def llm_regions(draw):
    """Any valid region; LlmRegion rejects qualities whose product is
    too small for a finite spatial variance."""
    try:
        return LlmRegion(draw(boxes()), draw(category), draw(probability), draw(quality), draw(quality))
    except ValueError:
        reject()


# Taken at import, before any test patches ``geometry.iou``: a recorder
# that looked the name up would call itself.
IOU = geometry.iou


class IouRecorder:
    """Calls the original ``geometry.iou`` and records the identity of
    each argument pair."""

    def __init__(self):
        self.calls = []

    def __call__(self, a, b):
        self.calls.append((id(a), id(b)))
        return IOU(a, b)


@given(
    st.lists(teacher_predictions, max_size=8),
    st.lists(llm_regions(), max_size=8),
    st.sampled_from([0.5, 0.25, 0.01, 0.99]),
)
def test_match_regions_equals_frozen_loop(teacher, llm, threshold):
    config = FusionConfig(iou_threshold=threshold)
    got_iou = IouRecorder()
    with mock.patch.object(geometry, "iou", got_iou):
        got = match_regions(teacher, llm, config)
    want_iou = IouRecorder()
    matches, unmatched_teacher, unmatched_llm = frozen_match_regions(teacher, llm, threshold, DOCLAYNET, want_iou)
    assert [(m.teacher_index, m.llm_index, m.iou.hex()) for m in got.matches] == [
        (ti, li, overlap.hex()) for ti, li, overlap in matches
    ]
    assert got.unmatched_teacher == unmatched_teacher
    assert got.unmatched_llm == unmatched_llm
    assert got_iou.calls == want_iou.calls


@st.composite
def ap_inputs(draw):
    """Detections and ground truth over a few pages and categories;
    scores come from a short list so ties in the ranking are common."""
    pages = ["p0", "p1", "p2"]
    names = ["caption", "table", "text"]
    ground_truth = draw(
        st.lists(
            st.builds(GroundTruthBox, st.sampled_from(pages), st.sampled_from(names), boxes()),
            min_size=1,
            max_size=10,
        )
    )
    detections = draw(
        st.lists(
            st.builds(
                Detection,
                st.sampled_from(pages + ["p3"]),
                st.sampled_from(names),
                st.one_of(st.sampled_from([0.25, 0.5, 0.9]), probability),
                boxes(),
            ),
            max_size=14,
        )
    )
    return detections, ground_truth


@settings(max_examples=150)
@given(ap_inputs(), st.sampled_from([COCO_IOU_THRESHOLDS, (0.5, 0.75), (0.75, 0.5, 0.75, 0.3)]))
def test_average_precision_equals_frozen_loop(inputs, thresholds):
    detections, ground_truth = inputs
    got_iou = IouRecorder()
    with mock.patch.object(geometry, "iou", got_iou):
        got = average_precision(detections, ground_truth, thresholds)
    want_iou = IouRecorder()
    want = frozen_average_precision(detections, ground_truth, thresholds, want_iou)
    # repr prints every float exactly (shortest round trip), so equal
    # reprs mean bit-identical values.
    assert repr(got) == repr(want)
    assert got_iou.calls == want_iou.calls


def test_average_precision_with_no_detections_equals_frozen_loop():
    ground_truth = [GroundTruthBox("p0", "text", BoundingBox(0.1, 0.1, 0.5, 0.5))]
    got = average_precision([], ground_truth)
    assert repr(got) == repr(frozen_average_precision([], ground_truth, COCO_IOU_THRESHOLDS, geometry.iou))
    assert got.ap == 0.0


def test_average_precision_requires_the_ap50_and_ap75_thresholds():
    ground_truth = [GroundTruthBox("p0", "text", BoundingBox(0.1, 0.1, 0.5, 0.5))]
    with pytest.raises(ValueError, match=r"must include 0.5 and 0.75, missing \[0.75\]"):
        average_precision([], ground_truth, (0.5, 0.6))


ground_truth_annotations = st.builds(GroundTruthAnnotation, box=boxes(), category=category)


@st.composite
def annotated_pages(draw):
    """One to three pages with both streams and ground truth, which may
    be empty."""
    return [
        Page(
            page_id=f"p{i}",
            teacher=tuple(draw(st.lists(teacher_predictions, max_size=6))),
            llm=tuple(draw(st.lists(llm_regions(), max_size=6))),
            ground_truth=tuple(draw(st.lists(ground_truth_annotations, max_size=6))),
        )
        for i in range(draw(st.integers(1, 3)))
    ]


# A box equal to two annotations of different categories (the first of
# equal maxima wins), and a page without annotations (no best overlap,
# even at threshold 0).
_SQUARE = BoundingBox(0.1, 0.1, 0.5, 0.5)
_TIED_PAGE = Page(
    page_id="tie",
    teacher=(TeacherPrediction(_SQUARE, DOCLAYNET.category("text"), 0.9),),
    llm=(LlmRegion(_SQUARE, DOCLAYNET.category("text"), 0.8),),
    ground_truth=(
        GroundTruthAnnotation(_SQUARE, DOCLAYNET.category("table")),
        GroundTruthAnnotation(_SQUARE, DOCLAYNET.category("text")),
    ),
)
_BARE_PAGE = Page(page_id="bare", teacher=_TIED_PAGE.teacher, llm=_TIED_PAGE.llm, ground_truth=())


@example([_TIED_PAGE, _BARE_PAGE], "teacher", 0.0)
@given(annotated_pages(), st.sampled_from(["teacher", "llm"]), st.sampled_from([0.5, 0.25, 0.0, 0.99]))
def test_prediction_correctness_equals_frozen_loop(pages, source, threshold):
    got_iou = IouRecorder()
    with mock.patch.object(geometry, "iou", got_iou):
        confidences, correct = prediction_correctness(pages, source, threshold)
    want_iou = IouRecorder()
    want_confidences, want_correct = frozen_prediction_correctness(pages, source, threshold, want_iou)
    assert confidences.tolist() == want_confidences.tolist()
    assert correct.dtype == bool and correct.tolist() == want_correct.tolist()
    assert got_iou.calls == want_iou.calls


@example([_TIED_PAGE, _BARE_PAGE], 0.5)
@given(annotated_pages(), st.sampled_from([0.5, 0.25, 0.01, 0.99]))
def test_gate_samples_equal_frozen_loop(pages, threshold):
    got_iou = IouRecorder()
    with mock.patch.object(geometry, "iou", got_iou):
        got = gate_samples_from_pages(pages, FusionConfig(iou_threshold=threshold))
    want_iou = IouRecorder()
    want = frozen_gate_samples(pages, threshold, DOCLAYNET, want_iou)
    for array, rows in zip(
        (got.features, got.teacher_boxes, got.llm_boxes, got.truth_boxes, got.llm_correct), want
    ):
        assert array.tolist() == rows
    assert got_iou.calls == want_iou.calls


# A float config field takes only finite numbers (``schema``).
temperatures = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def fusion_configs(draw):
    return FusionConfig(
        iou_threshold=draw(probability),
        teacher_box_weight=draw(unit),
        teacher_logit_weight=draw(unit),
        teacher_temperature=draw(temperatures),
        llm_temperature=draw(temperatures),
        soft_score_min=draw(unit),
        soft_smoothing=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    )


@settings(max_examples=300)
@given(st.lists(teacher_predictions, max_size=6), st.lists(llm_regions(), max_size=6), fusion_configs())
def test_refinement_never_raises_and_fused_labels_stay_in_range(teacher, llm, config):
    page = Page(page_id="p", teacher=tuple(teacher), llm=tuple(llm))
    labels = refine_pseudo_labels(page, config)
    fused = [label for label in labels if label.provenance == "fused"]
    matches = match_regions(page.teacher, page.llm, config).matches
    assert len(fused) == len(matches)
    for label, m in zip(fused, matches):
        a, b = page.teacher[m.teacher_index].box, page.llm[m.llm_index].box
        for got, p, q in zip(
            (label.box.x1, label.box.y1, label.box.x2, label.box.y2),
            (a.x1, a.y1, a.x2, a.y2),
            (b.x1, b.y1, b.x2, b.y2),
        ):
            assert min(p, q) <= got <= max(p, q)
        assert 0.0 < label.confidence < 1.0
