"""Class-adaptive retention thresholds by category rarity.

An unmatched teacher box is kept as a pseudo-label when its confidence
clears its category's threshold: 0.5 for a rare category, 0.7 for a
frequent one. ``fusion.refine_pseudo_labels`` reads this table unless
it is given another through ``thresholds=``.
"""

from __future__ import annotations

from .taxonomy import LayoutCategory, RARE, Taxonomy

__all__ = ["category_threshold", "threshold_table"]

THRESHOLD_RARE = 0.5
THRESHOLD_FREQUENT = 0.7


def category_threshold(category: LayoutCategory) -> float:
    """Per-category retention threshold from the rarity tag."""
    return THRESHOLD_RARE if category.rarity == RARE else THRESHOLD_FREQUENT


def threshold_table(taxonomy: Taxonomy) -> dict[str, float]:
    return {c.name: category_threshold(c) for c in taxonomy.categories}
