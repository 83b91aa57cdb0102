"""Canonical taxonomy-tag normalization shared by analytics and lint.

Activity authors type taxonomy terms by hand, so near-misses are
inevitable: stray whitespace, wrong case (``cs1`` for ``CS1``), or a
well-known alias (``K-12`` for ``K_12``).  Exactly one module may decide
what a typed tag *means* — otherwise the coverage tables
(:mod:`repro.analytics`) and the static analyzer (:mod:`repro.lint`)
could disagree about which tags are valid.  Both import this module.

:func:`canonical_term` maps a typed term to its canonical vocabulary form
(or ``None`` when it matches nothing even loosely); :func:`canonicalize_counts`
folds a term histogram onto canonical keys so aggregate tables are
insensitive to spelling variants.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.standards import courses as courses_mod
from repro.standards import cs2013, tcpp

__all__ = [
    "ALIASES",
    "TAXONOMIES",
    "canonical_term",
    "canonicalize_counts",
    "normalize_whitespace",
    "vocabulary",
]

#: Spelling variants accepted (case-insensitively) per taxonomy, beyond the
#: canonical vocabulary itself.  Keys are normalized lowercase forms.
ALIASES: dict[str, dict[str, str]] = {
    "courses": {
        "k-12": "K_12",
        "k12": "K_12",
        "ds&a": "DSA",
        "data structures": "DSA",
        "systems": "Systems",
    },
    "senses": {
        "tactile": "touch",
        "auditory": "sound",
        "kinesthetic": "movement",
    },
    "medium": {
        "role-play": "roleplay",
        "role play": "roleplay",
        "card": "cards",
        "boardgame": "board",
    },
}

#: The taxonomy axes this module can canonicalize.
TAXONOMIES: tuple[str, ...] = (
    "cs2013", "tcpp", "courses", "senses",
    "cs2013details", "tcppdetails", "medium",
)


def normalize_whitespace(term: str) -> str:
    """Collapse internal runs of whitespace and strip the ends."""
    return " ".join(str(term).split())


def vocabulary(taxonomy: str) -> frozenset[str]:
    """The canonical term vocabulary for one taxonomy axis."""
    if taxonomy == "cs2013":
        return frozenset(ku.term for ku in cs2013.PD_KNOWLEDGE_AREA)
    if taxonomy == "cs2013details":
        return frozenset(cs2013.all_detail_terms())
    if taxonomy == "tcpp":
        return frozenset(area.term for area in tcpp.TCPP_CURRICULUM)
    if taxonomy == "tcppdetails":
        return frozenset(tcpp.all_detail_terms())
    if taxonomy == "courses":
        return frozenset(courses_mod.COURSE_ORDER)
    if taxonomy in ("senses", "medium"):
        # Lazy import: activities.schema imports repro.standards at module
        # load, so the reverse edge must not exist at import time.
        from repro.activities import schema

        return frozenset(schema.SENSES if taxonomy == "senses" else schema.MEDIUMS)
    raise ValueError(f"unknown taxonomy {taxonomy!r}")


def canonical_term(taxonomy: str, term: str) -> str | None:
    """Resolve a typed term to its canonical form.

    Returns the term itself when it is already canonical, the canonical
    spelling when only case/whitespace/alias differs, or ``None`` when the
    term matches nothing in the vocabulary even loosely.
    """
    vocab = vocabulary(taxonomy)
    if term in vocab:
        return term
    cleaned = normalize_whitespace(term)
    if cleaned in vocab:
        return cleaned
    lowered = cleaned.lower()
    by_lower = {v.lower(): v for v in vocab}
    if lowered in by_lower:
        return by_lower[lowered]
    alias = ALIASES.get(taxonomy, {}).get(lowered)
    if alias is not None:
        return alias
    return None


def canonicalize_counts(taxonomy: str, counts: Mapping[str, int]) -> Counter:
    """Fold a term histogram onto canonical keys.

    Unrecognized terms keep their (whitespace-normalized) spelling so
    callers still see them rather than silently losing counts.
    """
    folded: Counter = Counter()
    for term, count in counts.items():
        folded[canonical_term(taxonomy, term) or normalize_whitespace(term)] += count
    return folded

