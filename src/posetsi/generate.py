"""Exhaustive generation of poset isomorphism classes.

Every n-element poset arises from an (n-1)-element poset by attaching a
new maximal element over a lower order ideal, so the class lists are grown
level by level and deduplicated through canonical forms. Two sound rules
drop a candidate down-set D of a parent before any canonical form is
computed (McKay, "Isomorph-free exhaustive generation", 1998):

* Twin orbits. Elements with equal up and down rows are twins, and any
  permutation inside a twin group is an automorphism of the parent. D is
  kept only if it meets every twin group in a prefix, its lowest-indexed
  members.
* Canonical deletion. A maximal element x has the key (|down x|, number
  of lower covers, sorted |down y| over its lower covers y), which reads
  down-rows only and is invariant under isomorphism. D is kept only if no
  maximal element of the parent outside D has a larger key than the new
  element. Adding a maximal element changes no old down-row, so the
  parent's keys are computed once per parent.

Why no class is lost: take any class, delete a maximal element x with the
largest key, and map the rest onto its listed representative; the image
of down x is a down-set that passes the second rule. The twin
permutation that moves it to prefixes is an automorphism of the parent,
so it keeps every key and passes both rules. A height-2 class loses only
height by the deletion, so the same holds for the height-2 lists. A
global seen-set of canonical forms still drops the duplicates that pass,
and the class counts are checked against known tables. Results are
cached per size, for all classes and for those of height at most 2, for
reuse across sweeps.
"""

from functools import lru_cache
from typing import Iterable, Iterator

from .canon import canonical_form
from .errors import VerificationError
from .linext import _layers
from .poset import Poset, iter_bits, stats

__all__ = ["enumerate_posets", "poset_class_count"]

# unlabeled posets on 0..8 elements (OEIS A000112), a generation self-check
CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999)
# unlabeled posets of height at most 2 on 0..10 elements, likewise
H2_CLASS_COUNTS = (1, 1, 2, 4, 9, 21, 56, 164, 557, 2223, 10766)


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _key(p: Poset, below: int) -> tuple:
    """Deletion key of a maximal element whose strict down-set is ``below``."""
    covers = [y for y in iter_bits(below) if not p.up[y] & below]
    return (
        below.bit_count(),
        len(covers),
        sorted(p.down[y].bit_count() for y in covers),
    )


def _children(rep: Poset, height2: bool) -> Iterator[Poset]:
    """Children of ``rep`` that pass the twin-orbit and canonical-deletion
    rules; every class on rep.n + 1 elements is among the children of its
    listed parent."""
    if height2:
        # new maximal element over minimal elements only keeps height <= 2
        choices: Iterable[int] = _submasks(rep.minimal_mask)
    else:
        choices = sorted(mask for layer in _layers(rep) for mask in layer)
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(rep.n):
        groups.setdefault((rep.up[i], rep.down[i]), []).append(i)
    # (lower, higher) neighbours in a twin group: D holds higher only with lower
    steps = [
        (1 << g[j], 1 << g[j + 1]) for g in groups.values() for j in range(len(g) - 1)
    ]
    maxima = sorted(
        ((_key(rep, rep.down[x]), 1 << x) for x in range(rep.n) if not rep.up[x]),
        reverse=True,
    )
    for down_mask in choices:
        if any(down_mask & hi and not down_mask & lo for lo, hi in steps):
            continue
        rival = next((k for k, bit in maxima if not down_mask & bit), None)
        if rival is None or rival <= _key(rep, down_mask):
            yield rep.add_maximal(down_mask)


@lru_cache(maxsize=None)
def _classes(n: int, height2: bool) -> tuple[Poset, ...]:
    """All classes on n elements, or with ``height2`` those of height at
    most 2."""
    if n == 0:
        return (Poset(0, ()),)
    out: list[Poset] = []
    seen: set[bytes] = set()
    for rep in _classes(n - 1, height2):
        for cand in _children(rep, height2):
            key = canonical_form(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
    table = H2_CLASS_COUNTS if height2 else CLASS_COUNTS
    if n < len(table) and len(out) != table[n]:
        kind = "height-2 classes" if height2 else "classes"
        raise VerificationError(
            f"got {len(out)} {kind} on {n} elements, expected {table[n]}"
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
