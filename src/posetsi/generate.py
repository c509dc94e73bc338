"""Exhaustive generation of poset isomorphism classes.

Every n-element poset arises from an (n-1)-element poset by attaching a
new maximal element over a lower order ideal, so the class lists are grown
level by level and deduplicated through canonical forms. Results are
cached per size, for all classes and for those of height at most 2, for
reuse across sweeps.
"""

from functools import lru_cache
from typing import Iterable, Iterator

from .canon import canonical_form
from .errors import VerificationError
from .linext import _layers
from .poset import Poset, stats

__all__ = ["enumerate_posets", "poset_class_count"]

# unlabeled posets on 0..8 elements, used as a generation self-check
CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999)


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@lru_cache(maxsize=None)
def _classes(n: int, height2: bool) -> tuple[Poset, ...]:
    """All classes on n elements, or with ``height2`` those of height at
    most 2."""
    if n == 0:
        return (Poset(0, ()),)
    out: list[Poset] = []
    seen: set[bytes] = set()
    for rep in _classes(n - 1, height2):
        if height2:
            # new maximal element over minimal elements only keeps height <= 2
            choices: Iterable[int] = _submasks(rep.minimal_mask)
        else:
            choices = sorted(mask for layer in _layers(rep) for mask in layer)
        for down_mask in choices:
            cand = rep.add_maximal(down_mask)
            key = canonical_form(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
    if not height2 and n < len(CLASS_COUNTS) and len(out) != CLASS_COUNTS[n]:
        raise VerificationError(
            f"got {len(out)} classes on {n} elements, expected {CLASS_COUNTS[n]}"
        )
    return tuple(out)


def enumerate_posets(n: int, max_height: int | None = None) -> Iterator[Poset]:
    """One representative per isomorphism class of posets on n elements.

    ``max_height`` keeps the classes of at most that height: a bound of 2
    or less prunes generation to height 2, and any bound other than 2 is
    also a post-filter. Practical bound is n <= 8 for the full lattice of
    classes.
    """
    height2 = max_height is not None and max_height <= 2
    for p in _classes(n, height2):
        if max_height in (None, 2) or stats(p).height <= max_height:
            yield p


def poset_class_count(n: int, max_height: int | None = None) -> int:
    """Number of classes that ``enumerate_posets(n, max_height)`` yields."""
    return sum(1 for _ in enumerate_posets(n, max_height))
