"""Rule-based text-prior baseline over OCR blocks.

Classifies blocks from surface cues alone (no model calls): caption
prefixes, bold text in the top page band, anything in the bottom band,
and grid-aligned groups merged into one table region. Output regions are
shaped exactly like text-stream regions so they can drive the fusion
pipeline unchanged.

Rule precedence is caption > header > footer: the textual prefix is the
most specific signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .geometry import BoundingBox
from .model import LlmRegion, OcrBlock, Page
from .schema import check_fields
from .taxonomy import DOCLAYNET, LayoutCategory, Taxonomy

__all__ = ["HeuristicConfig", "classify_block", "heuristic_regions"]


@dataclass(frozen=True)
class HeuristicConfig:
    header_band: float = 0.10
    footer_band: float = 0.90
    alignment_tolerance: float = 0.01
    min_aligned_lines: int = 2
    min_shared_columns: int = 2
    caption_prefixes: tuple[str, ...] = ("Figure", "Table")
    region_score: float = 0.8
    region_quality: float = 0.8

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.header_band < self.footer_band < 1.0:
            raise ValueError("need 0 < header_band < footer_band < 1")
        if self.alignment_tolerance <= 0.0:
            raise ValueError("alignment_tolerance must be positive")
        if self.min_aligned_lines < 2 or self.min_shared_columns < 1:
            raise ValueError("grid thresholds too small to mean anything")
        # The bounds every emitted LlmRegion enforces on its score and qualities.
        if not 0.0 < self.region_score < 1.0:
            raise ValueError(f"region_score={self.region_score} must be strictly inside (0, 1)")
        quality = self.region_quality * self.region_quality
        if not (0.0 < self.region_quality <= 1.0 and quality > 0.0 and 1.0 / quality < math.inf):
            raise ValueError(f"region_quality={self.region_quality} must be in (0, 1], with 1/region_quality**2 finite")


def classify_block(
    block: OcrBlock, config: HeuristicConfig = HeuristicConfig(), taxonomy: Taxonomy = DOCLAYNET
) -> LayoutCategory | None:
    """Per-block rule cascade; None when no rule fires.

    Tables are a page-level pattern and are handled by the grid
    detector, not here. Categories missing from the active taxonomy are
    skipped rather than invented.
    """
    text = block.text.lstrip()
    if any(text.startswith(prefix) for prefix in config.caption_prefixes):
        return taxonomy.category("caption") if "caption" in taxonomy else None
    if block.box.y1 <= config.header_band and block.is_bold:
        return taxonomy.category("header") if "header" in taxonomy else None
    if block.box.y1 >= config.footer_band:
        return taxonomy.category("footer") if "footer" in taxonomy else None
    return None


def _cluster_positions(values: list[float], tolerance: float) -> list[int]:
    """Greedy 1-D clustering: a gap wider than the tolerance starts a
    new cluster. Returns a cluster id per input value (equal values
    share one, so the order among ties does not matter)."""
    labels = [0] * len(values)
    current = 0
    previous = None
    for idx in sorted(range(len(values)), key=values.__getitem__):
        value = values[idx]
        if previous is not None and value - previous > tolerance:
            current += 1
        labels[idx] = current
        previous = value
    return labels


def _find_grid(blocks: list[OcrBlock], config: HeuristicConfig) -> list[int] | None:
    """Indices of blocks forming a grid-aligned group.

    Detection requires at least ``min_aligned_lines`` row clusters that
    all contain a block in each of at least ``min_shared_columns``
    column clusters (left edges within the tolerance). Once detected,
    membership widens to every block sitting on a well-populated column
    and a row that shares enough of those columns, so the reported
    group covers the whole table rather than the minimal witness.
    """
    if len(blocks) < config.min_aligned_lines * config.min_shared_columns:
        return None
    col_of = _cluster_positions([b.box.x1 for b in blocks], config.alignment_tolerance)
    row_of = _cluster_positions([b.box.y1 for b in blocks], config.alignment_tolerance)
    presence: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(row_of, col_of)):
        presence.setdefault(key, []).append(i)
    rows = sorted(set(row_of))
    if len(rows) < config.min_aligned_lines:
        return None
    # A column present in fewer than min_aligned_lines rows cannot be in
    # a witness subset, so the scan runs over the well-populated ones.
    grid_columns = [
        c for c in sorted(set(col_of)) if sum(1 for r in rows if (r, c) in presence) >= config.min_aligned_lines
    ]
    for col_subset in combinations(grid_columns, config.min_shared_columns):
        complete_rows = [r for r in rows if all((r, c) in presence for c in col_subset)]
        if len(complete_rows) >= config.min_aligned_lines:
            break
    else:
        return None
    grid_rows = {
        r for r in rows if sum(1 for c in grid_columns if (r, c) in presence) >= config.min_shared_columns
    }
    members: list[int] = []
    for (r, c), idx in presence.items():
        if r in grid_rows and c in grid_columns:
            members.extend(idx)
    return sorted(members)


def heuristic_regions(
    page: Page, config: HeuristicConfig = HeuristicConfig(), taxonomy: Taxonomy = DOCLAYNET
) -> list[LlmRegion]:
    """Regions the rule cascade can assert, fusion-pipeline ready.

    Each classified block becomes one region; unclassified blocks feed
    the grid detector, whose members merge into a single table region
    covering their hull. All regions carry the fixed heuristic score and
    quality so they are drop-in substitutes for text-stream regions.
    """
    regions: list[LlmRegion] = []
    leftover: list[OcrBlock] = []
    for block in page.ocr_blocks:
        category = classify_block(block, config, taxonomy)
        if category is None:
            leftover.append(block)
            continue
        regions.append(
            LlmRegion(
                box=block.box,
                category=category,
                score=config.region_score,
                q_text=config.region_quality,
                q_spatial=config.region_quality,
            )
        )
    members = _find_grid(leftover, config)
    if members is not None and "table" in taxonomy:
        hull = BoundingBox(
            x1=min(leftover[i].box.x1 for i in members),
            y1=min(leftover[i].box.y1 for i in members),
            x2=max(leftover[i].box.x2 for i in members),
            y2=max(leftover[i].box.y2 for i in members),
        )
        regions.append(
            LlmRegion(
                box=hull,
                category=taxonomy.category("table"),
                score=config.region_score,
                q_text=config.region_quality,
                q_spatial=config.region_quality,
            )
        )
    return regions
