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

Refined colours are invariant under automorphisms, so the alone
siblings are put into buckets keyed by the sorted colours of P over D,
which P keeps if it was refined as a child. P is refined for its buckets
only once it has a second alone child. A canonical form is computed
only when a bucket already holds a child, and the first child of each
class is kept. Tied children keep a seen-set of canonical forms per
level. The kept representatives and their order are those a seen-set
over every child would keep, and the class counts are checked against
known tables. Results are cached per size, for all classes and for those
of height at most 2, for reuse across sweeps.

The census also carries e (``_counted``), each class's from its parent
P's tables rather than from a walk of its own (De Loof, De Meyer and De
Baets, Fundamenta Informaticae 2006). In every extension of a child,
the new element x follows the set I of elements placed before it, a
down-set of P with I ⊇ D. So e(child) = Σ_{I ⊇ D} f(I)·g(I), where f(I)
counts the ways to build I and g(I) the ways to finish P from I, both
from ``linext._through``: the walk's layers and one backward pass.
"""

from functools import lru_cache
from typing import Iterable, Iterator

from .canon import _refined_colors, canonical_form
from .errors import VerificationError
from .linext import _layers, _through
from .poset import Poset, _twins, iter_bits, stats

__all__ = ["enumerate_posets", "poset_class_count"]

# unlabeled posets on 0..9 elements (OEIS A000112), a generation self-check
CLASS_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)
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


def _children(rep: Poset, height2: bool) -> Iterator[tuple[Poset, bool]]:
    """Children of ``rep`` that pass the twin-orbit and canonical-deletion
    rules, each with whether it is alone. Every class on rep.n + 1
    elements is among the children of its listed parent."""
    if height2:
        # new maximal element over minimal elements only keeps height <= 2
        choices: Iterable[int] = _submasks(rep.minimal_mask)
    else:
        choices = sorted(mask for layer in _layers(rep) for mask in layer)
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
        yield child, not ties or all(colored[x] < colored[-1] for x in ties)


def _bucket(rep: Poset, down_mask: int) -> tuple:
    """Bucket of the alone child of ``rep`` over ``down_mask``: the sorted
    colours of rep over the down-set."""
    colors = _refined_colors(rep)
    return tuple(sorted(colors[i] for i in iter_bits(down_mask)))


def _kept(rep: Poset, height2: bool, seen: set[bytes]) -> Iterator[Poset]:
    """The children of ``rep`` that are the first of their class: an alone
    child is compared only with the kept children of its bucket, a tied
    one with the forms in ``seen``, the level's tied classes so far. The
    first alone child is kept unbucketed, so rep is refined for buckets
    only once a second alone child comes."""
    buckets: dict[tuple, list[Poset]] = {}
    first = None
    for cand, alone in _children(rep, height2):
        if not alone:
            key = canonical_form(cand)
            if key in seen:
                continue
            seen.add(key)
        elif first is None:
            first = cand
        else:
            if not buckets:
                buckets[_bucket(rep, first.down[-1])] = [first]
            kept = buckets.setdefault(_bucket(rep, cand.down[-1]), [])
            if kept and canonical_form(cand) in map(canonical_form, kept):
                continue
            kept.append(cand)
        yield cand


@lru_cache(maxsize=None)
def _classes(n: int, height2: bool) -> tuple[Poset, ...]:
    """All classes on n elements, or with ``height2`` those of height at
    most 2."""
    if n == 0:
        return (Poset(0, ()),)
    seen: set[bytes] = set()
    out = [c for rep in _classes(n - 1, height2) for c in _kept(rep, height2, seen)]
    table = H2_CLASS_COUNTS if height2 else CLASS_COUNTS
    if n < len(table) and len(out) != table[n]:
        kind = "height-2 classes" if height2 else "classes"
        raise VerificationError(
            f"got {len(out)} {kind} on {n} elements, expected {table[n]}"
        )
    return tuple(out)


def _counted(n: int, height2: bool) -> Iterator[tuple[Poset, int]]:
    """The classes of ``_classes(n, height2)``, in order, each with e.

    A class is its parent's rows plus a maximal element x over D =
    ``down[x]``, so e is summed over ``_through(parent)``. A parent's
    kept children are consecutive and start with its down-rows, so each
    child finds its parent by them, and only the table of the current
    parent is held."""
    if n == 0:
        yield _classes(0, height2)[0], 1
        return
    parents = iter(_classes(n - 1, height2))
    parent = None
    for child in _classes(n, height2):
        rows, d = child.down[:-1], child.down[-1]
        if parent is None or parent.down != rows:
            parent = next(p for p in parents if p.down == rows)
            through = _through(parent).items()
        yield child, sum(w for i, w in through if i & d == d)


def enumerate_posets(n: int, max_height: int | None = None) -> Iterator[Poset]:
    """One representative per isomorphism class of posets on n elements.

    ``max_height`` keeps the classes of at most that height: a bound of 2
    or less prunes generation to height 2, and any bound other than 2 is
    also a post-filter. The full census at n = 9, the last entry of
    ``CLASS_COUNTS``, takes about 5 s.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    height2 = max_height is not None and max_height <= 2
    every = max_height in (None, 2)
    return (p for p in _classes(n, height2) if every or stats(p).height <= max_height)


def poset_class_count(n: int, max_height: int | None = None) -> int:
    """Number of classes that ``enumerate_posets(n, max_height)`` yields."""
    return sum(1 for _ in enumerate_posets(n, max_height))
