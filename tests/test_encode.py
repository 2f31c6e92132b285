"""The writer encodes each record kind's array with orjson unless the two
encoders could write it differently (``dataset_io._agrees``), and then with
json, so that every line is ``json.dumps`` of the page's object
(``oracles.page_to_dict``), compact, byte for byte.

The inputs put in every record field, past the records' constructors, the
values on which the two part: subnormals, signed zeros, infinities, NaN,
floats on both sides of 1e-5, 1e-4 and 1e16, and text of any code point
(DEL, control characters, non-ASCII, lone surrogates)."""

import math

import numpy as np
import orjson
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutfusion import dataset_io
from layoutfusion.dataset_io import regions_line
from layoutfusion.geometry import BoundingBox
from layoutfusion.model import (
    PROVENANCE_LLM_SOFT,
    FusedLabel,
    GroundTruthAnnotation,
    LlmRegion,
    OcrBlock,
    Page,
    TeacherPrediction,
)
from layoutfusion.taxonomy import LayoutCategory

from test_dataset_io import _forced, reference_line, reference_regions_line


def _edges(x: float) -> list[float]:
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, *_edges(1e-5), *_edges(1e-4), *_edges(1e16), 1.7976931348623157e308]
FLOAT = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([*_EDGES, *(-x for x in _EDGES), math.inf, -math.inf, math.nan])
    | st.floats(9e-6, 1.1e-5) | st.floats(9e-5, 1.1e-4) | st.floats(9e15, 1.1e16)
)
# Any code point, lone surrogates included, and the ones where the encoders part, often.
TEXT = st.text(st.sampled_from('a"\\\x00\x1f\x7f\x80é 𐏿\U0001f600') | st.characters(blacklist_categories=()))


@st.composite
def forced_pages(draw):
    """A page of one record of each kind, each float field (box coordinates
    too) holding a drawn float and each text field a drawn text."""
    def box():
        return _forced(BoundingBox(0.1, 0.1, 0.4, 0.2), **{name: draw(FLOAT) for name in ("x1", "y1", "x2", "y2")})

    def category():
        return LayoutCategory(draw(TEXT))

    variance = draw(st.none() | FLOAT)
    return Page(
        draw(TEXT.filter(bool)),
        (_forced(OcrBlock(box()), text=draw(TEXT), is_bold=draw(st.booleans())),),
        (_forced(TeacherPrediction(box(), category(), 0.5), confidence=draw(FLOAT), coordinate_variance=variance),),
        (_forced(LlmRegion(box(), category(), 0.5), score=draw(FLOAT), q_text=draw(FLOAT), q_spatial=draw(FLOAT)),),
        (_forced(GroundTruthAnnotation(box(), category())),),
        (_forced(
            FusedLabel(box(), category(), 0.5, PROVENANCE_LLM_SOFT),
            confidence=draw(FLOAT), provenance=draw(TEXT), smoothing=draw(FLOAT),
        ),),
    )


@settings(max_examples=200, deadline=None)
@given(forced_pages(), TEXT)
def test_lines_are_json_dumps_bytes_for_any_float_and_text(page, source):
    assert dataset_io._page_line(page) == reference_line(page)
    assert regions_line(page, source) == reference_regions_line(page, source)


def test_orjson_writes_repr_wherever_the_guard_lets_a_float_through():
    """2**20 random float64 bit patterns, and 2**20 whose exponent lies
    within four binades of the range [1e-5, 1e16] the guard lets through."""
    rng = np.random.default_rng(20261022)
    n = 1 << 20
    raw = np.frombuffer(rng.bytes(8 * n), dtype="<u8")
    exponents = rng.integers(1023 - 21, 1023 + 58, size=n, dtype=np.uint64) << np.uint64(52)
    banded = raw & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponents
    through = 0
    for bits in (raw, banded):
        values = bits.view("<f8").tolist()
        for lo in range(0, n, 4096):
            chunk = values[lo : lo + 4096]
            for value, text in zip(chunk, orjson.dumps(chunk)[1:-1].split(b",")):
                if dataset_io._agrees(text):
                    through += 1
                    assert text.decode("ascii") == repr(value), value
    assert through > n // 2  # most of the banded values, and some of the raw ones
