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

The census carries e, each child's from its parent P's tables rather
than from a walk of its own (De Loof, De Meyer and De Baets,
Fundamenta Informaticae 2006). In every extension of a child, the new
element x follows the set I of elements placed before it, a down-set of
P with I ⊇ D. So e(child) = Σ_{I ⊇ D} f(I)·g(I), where f(I) counts the
ways to build I and g(I) the ways to finish P from I, both from
``linext._through``: the walk's layers and one backward pass. Its keys
are P's down-sets, the choices of D (for the height-2 lists, those
within P's minimal elements), so each parent's lattice is walked once.

Every child of a level goes into one bucket, keyed by its e and the
multiset of (|down v|, |up v|) over its elements. Both are isomorphism
invariants, so isomorphic children share a bucket. A canonical form is
computed only when a bucket already holds a child, and the first child
of each class is kept, as a seen-set of forms over every child would
keep it. The key is built per child from its parent's multiset in
O(|D|): the new element adds (|D|, 0), and each y in D moves from
(d, u) to (d, u + 1). The dict is keyed by the hash of (e, multiset),
so two keys with one hash share a bucket, which costs a form and loses
no class. The class counts are checked against known tables. The
classes are cached per size with their e, for all classes and for
those of height at most 2, for reuse across sweeps.
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


def _children(rep: Poset, height2: bool) -> Iterator[tuple[Poset, int]]:
    """Children of ``rep`` that pass the twin-orbit and canonical-deletion
    rules, each with its e. Every class on rep.n + 1 elements is among
    the children of its listed parent."""
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
        yield child, sum(w for i, w in through.items() if i & down_mask == down_mask)


def _slot(d: int, u: int) -> int:
    """1 in the byte of the pair (d, u) of a multiset key; a count past
    255 carries, and the key stays a function of the multiset."""
    s = d + u
    return 1 << 8 * (s * (s + 1) // 2 + u)


def _kept(rep: Poset, height2: bool, level: dict) -> Iterator[tuple[Poset, int]]:
    """The children of ``rep`` that are the first of their class in
    ``level``, each with its e. ``level`` maps the hash of a child's e and
    (|down v|, |up v|) multiset, both invariant, to the first child with
    that hash, or, once two classes share it, to their forms: a shared
    hash costs a form and loses no class."""
    rows = [(d.bit_count(), u.bit_count()) for d, u in zip(rep.down, rep.up)]
    shape = sum(_slot(d, u) for d, u in rows)
    moved = [_slot(d, u + 1) - _slot(d, u) for d, u in rows]
    for cand, e in _children(rep, height2):
        below = cand.down[-1]
        key = shape + _slot(below.bit_count(), 0) + sum(moved[y] for y in iter_bits(below))
        bucket = hash((e, key))
        first = level.setdefault(bucket, cand)
        if first is not cand:
            form = canonical_form(cand)
            forms = first if isinstance(first, set) else {canonical_form(first)}
            if form in forms:
                continue
            forms.add(form)
            level[bucket] = forms
        yield cand, e


@lru_cache(maxsize=None)
def _classes(n: int, height2: bool) -> tuple[tuple[Poset, int], ...]:
    """All classes on n elements, or with ``height2`` those of height at
    most 2, each with its e."""
    if n == 0:
        return ((Poset(0, ()), 1),)
    level: dict[int, Poset | set[bytes]] = {}
    out = [c for rep, _ in _classes(n - 1, height2) for c in _kept(rep, height2, level)]
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
    ``CLASS_COUNTS``, takes about 4.6 s of CPU with e of every class on
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
