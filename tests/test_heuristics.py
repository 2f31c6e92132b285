"""Rule-based text-prior baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layoutfusion.fusion import refine_pseudo_labels
from layoutfusion.geometry import BoundingBox
from layoutfusion.heuristics import (
    HeuristicConfig,
    _find_grid,
    classify_block,
    detect_grid_alignment,
    heuristic_regions,
)
from layoutfusion.model import OcrBlock, Page
from layoutfusion.taxonomy import PUBLAYNET

from oracles import frozen_find_grid


def block(x1, y1, x2, y2, text="", bold=False):
    return OcrBlock(box=BoundingBox(x1, y1, x2, y2), text=text, is_bold=bold)


def grid_blocks(x0=0.2, y0=0.4, cols=3, rows=3, pitch=0.12):
    out = []
    for r in range(rows):
        for c in range(cols):
            x1 = x0 + c * pitch
            y1 = y0 + r * 0.06
            out.append(block(x1, y1, x1 + 0.08, y1 + 0.03, text=str(r * cols + c)))
    return out


class TestClassifyBlock:
    def test_caption_prefix_anywhere(self):
        b = block(0.3, 0.5, 0.7, 0.55, text="Figure 2: results")
        assert classify_block(b).name == "caption"
        b2 = block(0.3, 0.95, 0.7, 0.99, text="Table 4. summary")
        assert classify_block(b2).name == "caption"

    def test_bold_top_band_is_header(self):
        b = block(0.2, 0.05, 0.6, 0.08, text="Introduction", bold=True)
        assert classify_block(b).name == "header"

    def test_top_band_without_bold_is_not_header(self):
        b = block(0.2, 0.05, 0.6, 0.08, text="Introduction", bold=False)
        assert classify_block(b) is None

    def test_bottom_band_is_footer(self):
        b = block(0.4, 0.95, 0.6, 0.98, text="page 3")
        assert classify_block(b).name == "footer"

    def test_caption_precedence_over_position(self):
        b = block(0.4, 0.95, 0.6, 0.98, text="Figure 9: tail", bold=True)
        assert classify_block(b).name == "caption"

    def test_plain_body_text_unclassified(self):
        assert classify_block(block(0.2, 0.4, 0.8, 0.5, text="lorem ipsum")) is None

    def test_band_semantics_shift(self):
        # Pushing a would-be header below the band disables the rule.
        b = block(0.2, 0.2, 0.6, 0.25, text="Bold line", bold=True)
        assert classify_block(b) is None

    def test_missing_category_in_taxonomy_skipped(self):
        b = block(0.2, 0.05, 0.6, 0.08, text="Bold", bold=True)
        assert classify_block(b, taxonomy=PUBLAYNET) is None


class TestGridAlignment:
    def test_empty(self):
        assert not detect_grid_alignment([])

    def test_three_by_three_grid(self):
        assert detect_grid_alignment(grid_blocks())

    def test_two_shared_columns_two_lines_suffice(self):
        blocks = grid_blocks(cols=2, rows=2)
        assert detect_grid_alignment(blocks)

    def test_single_column_is_not_a_grid(self):
        blocks = [block(0.2, 0.1 + 0.05 * i, 0.4, 0.12 + 0.05 * i, text="row") for i in range(6)]
        assert not detect_grid_alignment(blocks)

    def test_single_row_is_not_a_grid(self):
        blocks = [block(0.1 + 0.15 * i, 0.4, 0.2 + 0.15 * i, 0.44) for i in range(5)]
        assert not detect_grid_alignment(blocks)

    def test_random_scatter_rarely_fires(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(1000):
            blocks = []
            for _ in range(20):
                x1 = rng.uniform(0, 0.9)
                y1 = rng.uniform(0, 0.9)
                blocks.append(block(x1, y1, x1 + 0.08, y1 + 0.04, text="x"))
            hits += detect_grid_alignment(blocks)
        assert hits <= 15  # >= 98.5% of scatters stay quiet


# Left and top edges on a coarse lattice, jittered by up to the default
# 0.01 tolerance, so aligned rows and columns (and near misses) are common.
lattice_edge = st.builds(
    lambda cell, jitter: 0.05 + 0.1 * cell + jitter, st.integers(0, 7), st.floats(0.0, 0.012)
)


@given(
    st.lists(st.tuples(lattice_edge, lattice_edge), max_size=40),
    st.integers(1, 3),
    st.integers(2, 4),
)
def test_find_grid_equals_frozen_subset_scan(corners, shared_columns, aligned_lines):
    blocks = [block(x, y, x + 0.05, y + 0.02) for x, y in corners]
    config = HeuristicConfig(min_shared_columns=shared_columns, min_aligned_lines=aligned_lines)
    assert _find_grid(blocks, config) == frozen_find_grid(blocks, config)


class TestHeuristicRegions:
    def test_plain_text_page_yields_nothing(self):
        page = Page(page_id="h", ocr_blocks=tuple(block(0.1, 0.3 + 0.1 * i, 0.8, 0.35 + 0.1 * i, text="body") for i in range(4)))
        assert heuristic_regions(page) == []

    def test_caption_plus_grid_page(self):
        blocks = [block(0.2, 0.33, 0.6, 0.37, text="Table 1: data")] + grid_blocks()
        page = Page(page_id="t", ocr_blocks=tuple(blocks))
        regions = heuristic_regions(page)
        names = sorted(r.category.name for r in regions)
        assert names == ["caption", "table"]
        table = next(r for r in regions if r.category.name == "table")
        # hull covers the grid, not the caption line
        assert table.box.y1 >= 0.39
        assert table.box.x1 == pytest.approx(0.2)
        assert table.box.x2 == pytest.approx(0.52, abs=1e-9)

    def test_regions_carry_fixed_score_and_quality(self):
        page = Page(page_id="s", ocr_blocks=(block(0.3, 0.02, 0.7, 0.05, text="Top", bold=True),))
        (region,) = heuristic_regions(page)
        assert region.score == 0.8
        assert region.q_text == 0.8
        assert region.q_spatial == 0.8

    def test_output_feeds_refinement_pipeline(self):
        blocks = [block(0.2, 0.33, 0.6, 0.37, text="Figure 5: chart")] + grid_blocks()
        page = Page(page_id="p", ocr_blocks=tuple(blocks))
        regions = heuristic_regions(page)
        fed = page.with_llm(regions)
        labels = refine_pseudo_labels(fed)
        # caption clears the soft gate (0.8 >= 0.6, caption in soft set)
        assert any(l.provenance == "llm-soft" and l.category.name == "caption" for l in labels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HeuristicConfig(header_band=0.95)
        with pytest.raises(ValueError):
            HeuristicConfig(min_aligned_lines=1)
