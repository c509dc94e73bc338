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
  covers y, sorted |up y| in C over them, refined colour of x in C).
  Each part is read from C alone, not from its labelling, so the key is
  invariant under isomorphism. D is kept only if no maximal element of
  the parent outside D has a larger key than the new element. Adding a
  maximal element changes no old down-row, so the first three parts are
  computed once per parent. Keys compare |D| first, so D is dropped
  before its key is computed when a rival's down-set is larger. The
  fourth part is read only for a rival that is not a twin of the new
  element and ties with it on the first three, and the colour only for
  one that ties on all four: twins share both. At height 2 the first
  three parts of the new element are (|D|, |D|, [0, ..., 0]), so the
  fourth part, where each y in D gains the new element above it, is the
  first that can tell it from a rival over as many minimal elements.

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

Every child of a level goes into one bucket, keyed by its e and its
sorted (|down v|, |up v|) rows. The key is read from the child alone,
not from its parent or labelling, so it is an isomorphism invariant and
isomorphic children share a bucket whatever their parents. A canonical
form is computed only when a bucket already holds a child, and the
first child of each class is kept, as a seen-set of forms over every
child would keep it. The dict is keyed by the hash of (e, rows), so two
keys with one hash share a bucket, which costs a form and loses no
class. The class counts are checked against known tables. The classes
are cached per size with their e, for all classes and for those of
height at most 2, for reuse across sweeps.
"""

from functools import lru_cache
from typing import Iterator

from .canon import _refined_colors, canonical_form
from .errors import VerificationError
from .linext import _through
from .poset import Poset, _twins, iter_bits

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


def _ups(child: Poset, below: int) -> list[int]:
    """The deletion key's fourth part: sorted |up y| in ``child`` over the
    lower covers y of a maximal element whose strict down-set is ``below``."""
    up = child.up
    return sorted(up[y].bit_count() for y in iter_bits(below) if not up[y] & below)


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
        # weighed against x by their covers' up-degrees in the child, and
        # those still tied by their colours there
        ties = [x for k, x in rivals if k == key and rep.down[x] != down_mask]
        if ties:
            mine = _ups(child, down_mask)
            ups = [_ups(child, rep.down[x]) for x in ties]
            if max(ups) > mine:
                continue
            ties = [x for x, u in zip(ties, ups) if u == mine]
        if ties:
            colored = _refined_colors(child)
            if any(colored[x] > colored[-1] for x in ties):
                continue
        yield child, sum(w for i, w in through.items() if i & down_mask == down_mask)


def _kept(rep: Poset, height2: bool, level: dict) -> Iterator[tuple[Poset, int]]:
    """The children of ``rep`` that are the first of their class in
    ``level``, each with its e. ``level`` maps the hash of a child's e and
    sorted (|down v|, |up v|) rows, read from the child alone and so
    invariant, to the first child with that hash, or, once two classes
    share it, to their forms: a shared hash costs a form and loses no
    class."""
    for cand, e in _children(rep, height2):
        rows = sorted(zip(map(int.bit_count, cand.down), map(int.bit_count, cand.up)))
        bucket = hash((e, *rows))
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


def enumerate_posets(n: int, height2: bool = False) -> Iterator[Poset]:
    """One representative per isomorphism class of posets on n elements,
    or with ``height2`` per class of height at most 2, which the census
    generates directly. Each is the first child of its class, found
    through a bucket key read from the child alone, so isomorphic
    children share it. The full census at n = 9, the last entry of
    ``CLASS_COUNTS``, takes about 4.6 s of CPU with e of every class on
    a 2-CPU x86 host.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (p for p, _ in _classes(n, height2))


def poset_class_count(n: int, height2: bool = False) -> int:
    """Number of classes that ``enumerate_posets(n, height2)`` yields."""
    return sum(1 for _ in enumerate_posets(n, height2))
