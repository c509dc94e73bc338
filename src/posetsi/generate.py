"""Exhaustive generation of poset isomorphism classes.

Every n-element poset arises from an (n-1)-element poset by attaching a
new maximal element over a lower order ideal, so the class lists are grown
level by level and deduplicated through canonical forms. Two sound rules
drop a candidate down-set D of a parent before any canonical form is
computed (McKay, "Isomorph-free exhaustive generation", 1998):

* Twin orbits. Elements with equal up and down rows are twins
  (``poset._twins``), and any permutation inside a twin group is an
  automorphism of the parent. D is kept only if it meets every twin
  group in a prefix: with an element, D holds all its lower twins.
* Canonical deletion. A maximal element x of the child C has the key
  (|down x|, number of lower covers, sorted |down y| over its lower
  covers y, refined colour of x in C), which is invariant under
  isomorphism. D is kept only if no maximal element of the parent
  outside D has a larger key than the new element. Adding a maximal
  element changes no old down-row, so the first three parts are computed
  once per parent. Keys compare |D| first, so D is dropped before its
  key is computed when a rival's down-set is larger, and the colour is
  read only when a rival that is not a twin of the new element ties
  with it on the first three parts: twins share their colour.

Why no class is lost: take any class, delete a maximal element x with the
largest key, and map the rest onto its listed representative; the image
of down x is a down-set whose child is the class, with x as the new
element, so it passes the second rule. The twin permutation that moves
it to prefixes is an automorphism of the parent, so it keeps every key
and passes both rules. A height-2 class loses only height by the
deletion, so the same holds for the height-2 lists.

A third rule decides which children need a canonical form. Let S(C) be
the maximal elements of a child C with the largest key. Call C alone
when S(C) is its new element x and the twins of x, the old maximal
elements whose down-set is D, and tied otherwise. An alone child can
repeat only an alone sibling from the same parent P whose down-set D'
lies in the Aut(P)-orbit of its own down-set D:

1. Keys are invariant, so S(C) is, and being alone, that S(C) is one
   twin class, is an isomorphism invariant. An isomorphism from C to
   an alone child C' sends x into S(C'), the twin class of x', and
   following it by the transposition of that image with x', an
   automorphism of C', gives an isomorphism that sends x to x'.
2. Deleting x and x' gives isomorphic parents. The listed parents are
   pairwise non-isomorphic, so both children have the same parent P,
   and the isomorphism restricts to an automorphism of P that maps D
   onto D'.
3. An alone child and a tied child are never isomorphic, since S is
   one twin class in the one and not in the other.

The census carries e, each child's from its parent P's tables rather
than from a walk of its own (De Loof, De Meyer and De Baets,
Fundamenta Informaticae 2006). In every extension of a child, the new
element x follows the set I of elements placed before it, a down-set of
P with I ⊇ D. So e(child) = Σ_{I ⊇ D} f(I)·g(I), where f(I) counts the
ways to build I and g(I) the ways to finish P from I, both from
``linext._through``: the walk's layers and one backward pass. Its keys
are P's down-sets, the choices of D (for the height-2 lists, those
within P's minimal elements), so each parent's lattice is walked once.
The alone siblings are put into buckets keyed by e of the child
and the sorted |down y| over y in D. An automorphism of P that maps D
onto D' gives isomorphic children, so equal e, and keeps every |down y|,
so by rule 2 isomorphic alone siblings share a bucket. A canonical form
is computed only when a bucket already holds a child, and the first
child of each class is kept. Tied children keep a seen-set of canonical
forms per level. The kept representatives and their order are those a
seen-set over every child would keep, and the class counts are checked
against known tables. The classes are cached per size with their e, for
all classes and for those of height at most 2, for reuse across sweeps.
"""

from functools import lru_cache
from typing import Iterator

from .canon import _refined_colors, canonical_form
from .errors import VerificationError
from .linext import _through
from .poset import Poset, _twins, iter_bits, stats

__all__ = ["enumerate_posets", "poset_class_count"]

# unlabeled posets on 0..9 elements (OEIS A000112), a generation self-check
CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)
# unlabeled posets of height at most 2 on 0..10 elements, likewise
H2_CLASS_COUNTS = (1, 1, 2, 4, 9, 21, 56, 164, 557, 2223, 10766)


def _key(p: Poset, below: int) -> tuple:
    """Deletion key of a maximal element whose strict down-set is ``below``."""
    covers = [y for y in iter_bits(below) if not p.up[y] & below]
    return (
        below.bit_count(),
        len(covers),
        sorted(p.down[y].bit_count() for y in covers),
    )


def _children(rep: Poset, height2: bool) -> Iterator[tuple[Poset, bool, int]]:
    """Children of ``rep`` that pass the twin-orbit and canonical-deletion
    rules, each with whether it is alone and its e. Every class on
    rep.n + 1 elements is among the children of its listed parent."""
    through = _through(rep)
    if height2:
        # new maximal element over minimal elements only keeps height <= 2
        mins = rep.minimal_mask
        choices = sorted((d for d in through if not d & ~mins), reverse=True)
    else:
        choices = sorted(through)
    # (v, v and its lower twins) for each v with a lower twin
    twinned = [(1 << v, m) for v, m in enumerate(_twins(rep)) if m != 1 << v]
    maxima = sorted(
        ((_key(rep, rep.down[x]), x) for x in range(rep.n) if not rep.up[x]),
        reverse=True,
    )
    for down_mask in choices:
        if any(down_mask & bit and m & ~down_mask for bit, m in twinned):
            continue
        # the maximal elements that stay maximal, largest key first
        rivals = [(k, x) for k, x in maxima if not down_mask >> x & 1]
        if rivals and rivals[0][0][0] > down_mask.bit_count():
            continue  # a larger down-set is a larger key
        key = _key(rep, down_mask)
        if rivals and rivals[0][0] > key:
            continue
        child = rep.add_maximal(down_mask)
        # rivals tied with the new element x that are not its twins are
        # weighed against x by their colours in the child
        ties = [x for k, x in rivals if k == key and rep.down[x] != down_mask]
        if ties:
            colored = _refined_colors(child)
            if any(colored[x] > colored[-1] for x in ties):
                continue
        e = sum(w for i, w in through.items() if i & down_mask == down_mask)
        yield child, not ties or all(colored[x] < colored[-1] for x in ties), e


def _kept(rep: Poset, height2: bool, seen: set[bytes]) -> Iterator[tuple[Poset, int]]:
    """The children of ``rep`` that are the first of their class, each with
    its e: an alone child is compared only with the kept children of its
    bucket, a tied one with the forms in ``seen``, the level's tied
    classes so far."""
    buckets: dict[tuple, list[Poset]] = {}
    for cand, alone, e in _children(rep, height2):
        if not alone:
            key = canonical_form(cand)
            if key in seen:
                continue
            seen.add(key)
        else:
            sizes = sorted(rep.down[y].bit_count() for y in iter_bits(cand.down[-1]))
            kept = buckets.setdefault((e, *sizes), [])
            if kept and canonical_form(cand) in map(canonical_form, kept):
                continue
            kept.append(cand)
        yield cand, e


@lru_cache(maxsize=None)
def _classes(n: int, height2: bool) -> tuple[tuple[Poset, int], ...]:
    """All classes on n elements, or with ``height2`` those of height at
    most 2, each with its e."""
    if n == 0:
        return ((Poset(0, ()), 1),)
    seen: set[bytes] = set()
    out = [c for rep, _ in _classes(n - 1, height2) for c in _kept(rep, height2, seen)]
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
    also a post-filter. The full census at n = 9, the last entry of
    ``CLASS_COUNTS``, takes about 5.5 s of CPU with e of every class on
    a 2-CPU x86 host.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    height2 = max_height is not None and max_height <= 2
    every = max_height in (None, 2)
    classes = _classes(n, height2)
    return (p for p, _ in classes if every or stats(p).height <= max_height)


def poset_class_count(n: int, max_height: int | None = None) -> int:
    """Number of classes that ``enumerate_posets(n, max_height)`` yields."""
    return sum(1 for _ in enumerate_posets(n, max_height))
