"""Category taxonomies: names, rarity tags, and confusable pairs.

Taxonomies are configuration data, not code. Two are shipped: an
11-category set for general documents and a 5-category set for
scientific publications. Every category carries exactly one rarity tag
("frequent" or "rare") which drives the class-adaptive confidence
thresholds in the curriculum module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "LayoutCategory",
    "Taxonomy",
    "DEFAULT_CONFUSABLE_PAIRS",
    "DOCLAYNET",
    "PUBLAYNET",
    "TAXONOMIES",
]

FREQUENT = "frequent"
RARE = "rare"

# The three pairs a visual detector most often swaps: small text near
# page boundaries, prominent bold lines, and framed grid content.
DEFAULT_CONFUSABLE_PAIRS: frozenset[frozenset[str]] = frozenset(
    {
        frozenset({"caption", "footer"}),
        frozenset({"title", "section-header"}),
        frozenset({"table", "figure"}),
    }
)


@dataclass(frozen=True)
class LayoutCategory:
    name: str
    rarity: str = FREQUENT

    def __post_init__(self) -> None:
        if self.rarity not in (FREQUENT, RARE):
            raise ValueError(f"unknown rarity {self.rarity!r} for category {self.name!r}")


@dataclass(frozen=True)
class Taxonomy:
    """A fixed category set with a symmetric confusable-pair relation."""

    name: str
    categories: tuple[LayoutCategory, ...]
    confusable_pairs: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        names = [c.name for c in self.categories]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate category names in taxonomy {self.name!r}")
        # Pairs referencing categories outside this taxonomy stay inert
        # rather than being rejected, so one pair set can serve both
        # shipped taxonomies.
        for pair in self.confusable_pairs:
            if len(pair) != 2:
                raise ValueError(f"confusable pair {set(pair)} must contain two categories")
        # Name index behind the per-region lookups; not a dataclass field,
        # so equality, hashing and repr still see only the declared fields.
        object.__setattr__(self, "_by_name", {c.name: c for c in self.categories})

    def __contains__(self, name: str) -> bool:
        try:
            return name in self._by_name
        except TypeError:  # unhashable, so never a category name
            return False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.categories)

    def category(self, name: str) -> LayoutCategory:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise KeyError(f"unknown category {name!r} in taxonomy {self.name!r}") from None

    def compatible(self, a: str, b: str) -> bool:
        """True iff identical or a configured confusable pair.

        Reflexive and symmetric by construction. Unknown categories are
        an error: silent False would mask ingest bugs.
        """
        if a not in self:
            raise KeyError(f"unknown category {a!r} in taxonomy {self.name!r}")
        if b not in self:
            raise KeyError(f"unknown category {b!r} in taxonomy {self.name!r}")
        return a == b or frozenset({a, b}) in self.confusable_pairs

    def confusable_partner(self, name: str) -> str | None:
        """The category this one is most easily mistaken for, if any."""
        if name not in self:
            raise KeyError(f"unknown category {name!r} in taxonomy {self.name!r}")
        for pair in self.confusable_pairs:
            if name in pair:
                (other,) = pair - {name}
                if other in self:
                    return other
        return None


DOCLAYNET = Taxonomy(
    name="doclaynet",
    categories=(
        LayoutCategory("caption", RARE),
        LayoutCategory("header", RARE),
        LayoutCategory("title", RARE),
        LayoutCategory("footer", RARE),
        LayoutCategory("footnote", RARE),
        LayoutCategory("table", FREQUENT),
        LayoutCategory("figure", FREQUENT),
        LayoutCategory("list", FREQUENT),
        LayoutCategory("section-header", FREQUENT),
        LayoutCategory("text", FREQUENT),
        LayoutCategory("paragraph", FREQUENT),
    ),
    confusable_pairs=DEFAULT_CONFUSABLE_PAIRS,
)

PUBLAYNET = Taxonomy(
    name="publaynet",
    categories=(
        LayoutCategory("text", FREQUENT),
        LayoutCategory("title", RARE),
        LayoutCategory("list", FREQUENT),
        LayoutCategory("table", FREQUENT),
        LayoutCategory("figure", FREQUENT),
    ),
    confusable_pairs=DEFAULT_CONFUSABLE_PAIRS,
)

TAXONOMIES: dict[str, Taxonomy] = {t.name: t for t in (DOCLAYNET, PUBLAYNET)}
