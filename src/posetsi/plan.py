"""Exact e(P) and signed sums by the cheapest sound route.

``e`` and ``signed`` try, part by part:

1. Split (yields both). A poset whose Hasse diagram has components
   P_1, ..., P_r has e = C(n; |P_1|, ..., |P_r|) * prod e(P_i); an
   ordinal sum P_1 + ... + P_r, each part below the next, has
   e = prod e(P_i) (Kangas et al., IJCAI 2016). With each part relabelled
   into a block of consecutive indices, the next part above the last,
   the signed sums follow the same rules, except that a union takes the
   multinomial at q = -1, a product of ``_binom_minus_one`` (Stanley,
   Adv. Appl. Math. 2005), and both splits take the parity of listing
   the parts' elements part after part, each part in increasing order,
   to put the signed sum back in the caller's labelling. The planner
   splits first, on an explicit work stack, so nothing recurses however
   deep the splits go; then it multiplies in each part's answers and
   one parity, of all the parts listed part after part, which composes
   every split's relabelling.
2. ``forest_count`` on a Hasse forest (yields both).
3. The height-2 inverse, for the signed sum only. ``h2.decompose``
   either certifies sign balance, or finds the lift's one domino tableau
   t, with the base B of the lift as its quotient; then the signed sum
   is sgn(t) * e(B), and e(B) is planned by ``e``.
4. For the signed sum, the quotient walk ``domino.si_via_quotients``.
   It stores a subset of the down-sets that the signed walk would
   store, so it answers whenever that walk would, and the signed sum
   needs no walk of its own. CLI ``si`` checks every route by brute
   force, and every other route by the quotient walk, under ``ENUM_CAP``.
   For e, here and in ``e``, ``_e_part``: step 2, else the peel
   (``_peel``) on at most ``PEEL_N`` elements, else, or past
   ``PEEL_STATES`` states, the walk ``count_extensions``. The peel gains
   where the walk must store every down-set of a part that falls apart
   as it is built: on the random 30-element orders of the benchmark
   (seeds 1-40) it keeps 0.6k-11k states where the walk stores 45k-50k
   down-sets.

``count_extensions`` and ``signed_count`` stay the walk, so every
criterion and test keeps the route it names; CLI ``count`` and
``si`` come here. ``e`` loads neither ``domino`` nor ``h2``: ``signed``
imports ``domino`` when it runs, and ``h2`` only for a part of height 2.
"""

from collections.abc import Sequence
from math import comb, perm
from typing import Callable

from .linext import (
    DOWNSET_CAP,
    _binom_minus_one,
    _parity,
    count_extensions,
    forest_count,
)
from .poset import Poset, _components, _cover_down, iter_bits

__all__ = ["e", "signed"]

ROUTES = ("split", "forest", "height-2", "quotient", "peel", "walk")
# a peel step reads n/8 tables and recurses once per peeled element, so
# this keeps it far under the recursion limit; a larger part takes the walk
PEEL_N = 64
# the peel keeps every state it answered, the walk two layers; past this
# many states, the walk takes over
PEEL_STATES = 1 << 16

# e or None, the signed sum or None, and the route of a part that does
# not split
Answer = tuple[int | None, int | None, str]


def _summands(p: Poset, mask: int) -> list[int]:
    """The ordinal summands of the elements of ``mask``, from the bottom
    up, as masks: the components of the incomparability graph, which an
    order puts one below the next; a lower one's elements each have fewer
    elements of mask below them."""
    parts = _components(p, mask, comparable=False)

    def below(part: int) -> int:
        return (p.down[(part & -part).bit_length() - 1] & mask).bit_count()

    return sorted(parts, key=below)


def _plan(p: Poset, leaf: Callable[[Poset], Answer]) -> Answer:
    """Split p as far as it goes, multiplying in the splits' factors,
    then answer each part that does not split by ``leaf``, in its own
    increasing labelling, first part first, so of two parts past a cap
    the first raises. A component of a union does not split into
    components again, nor a summand of an ordinal sum into summands, so
    a part tries only the split that did not make it. One parity of the
    parts' elements, listed part after part, puts the signed sum back in
    p's labelling, skipped once the sum is 0 or None. The route names
    every rule used, in the order of ``ROUTES``."""
    full = (1 << p.n) - 1
    total: int | None = 1
    sgn: int | None = 1
    parts_left: list[int] = []  # the parts that do not split, first part first
    # (mask, ordinal: the split that made it, None for p)
    todo: list[tuple[int, bool | None]] = [(full, None)]
    while todo:
        mask, made_by = todo.pop()
        parts: list[int] = []
        if mask == full or mask & (mask - 1):  # a part of one element stays
            for ordinal in (False, True):
                if made_by is not ordinal:
                    parts = _summands(p, mask) if ordinal else _components(p, mask)
                    if len(parts) > 1:
                        break
        if len(parts) < 2:
            parts_left.append(mask)
            continue
        if not ordinal:  # the multinomial, and at q = -1
            size = 0
            for part in parts:
                k = part.bit_count()
                size += k
                total *= comb(size, k)
                sgn *= _binom_minus_one(size, k)
        todo += [(part, ordinal) for part in reversed(parts)]  # first part first
    used = {"split"} if len(parts_left) > 1 else set()
    for mask in parts_left:
        if mask == full or mask & (mask - 1):  # one-element parts answer 1
            pe, ps, route = leaf(p if mask == full else p.subposet(iter_bits(mask)))
            used.add(route)
            total = None if total is None or pe is None else total * pe
            sgn = None if sgn is None or ps is None else sgn * ps
    if sgn and len(parts_left) > 1:
        sgn *= _parity(x for part in parts_left for x in iter_bits(part))
    return total, sgn, " + ".join(r for r in ROUTES if r in used)


class _Overflow(Exception):
    """The peel would keep more states than its budget."""


def _or_tables(rows: Sequence[int]) -> list[list[int]]:
    """For each 8-element chunk of 0..n-1, the OR of the rows of each
    subset of the chunk, indexed by the subset's bits."""
    tables = []
    for base in range(0, len(rows), 8):
        chunk = rows[base:base + 8]
        t = [0] * (1 << len(chunk))
        for bits in range(1, len(t)):
            low = bits & -bits
            t[bits] = t[bits ^ low] | chunk[low.bit_length() - 1]
        tables.append(t)
    return tables


def _spread(tables: list[list[int]], s: int) -> int:
    """The OR of the rows of the elements of s."""
    out = 0
    for t in tables:
        if not s:
            break
        out |= t[s & 255]
        s >>= 8
    return out


def _peel(q: Poset, budget: int) -> int:
    """e(Q) by peeling one extremal element at a time, memoised on the
    set left, which splits by the multinomial as soon as it falls apart
    (step 1's rule for unions, inside the peel). Every component of the
    set left holds a cover of the peeled element, so the search for a
    split starts there and stops once they all lie in one component. A
    cover left with no neighbour is taken out at once, times its free
    places among the rest. It peels the end with fewer extremal
    elements, so every state is an up-set (a down-set) of Q, never more
    than the walk stores, and the other, wider end comes apart sooner.
    Raises ``_Overflow`` once it keeps more than ``budget`` states.
    Recurses at most n deep."""
    up, down = q.up, q.down
    rel = [u | d for u, d in zip(up, down)]
    if sum(not d for d in down) <= sum(not u for u in up):
        beyond, covers = up, q.cover_up
    else:  # peel maximal elements, so the covers below
        beyond, covers = down, _cover_down(q)
    beyond, near = _or_tables(beyond), _or_tables(rel)
    memo: dict[int, int] = {}
    get = memo.get

    def count(mask: int, hooks: int) -> int:
        """e of a mask of two or more elements not in memo. Each of its
        components holds an element of ``hooks``."""
        comp = new = hooks & -hooks
        while new and hooks & ~comp:
            new = _spread(near, new) & mask & ~comp
            comp |= new
        if hooks & ~comp:  # comp is a whole component, and not the only one
            rest = mask ^ comp
            total = comb(mask.bit_count(), comp.bit_count())
            total *= 1 if not comp & (comp - 1) else get(comp) or count(comp, comp & -comp)
            total *= 1 if not rest & (rest - 1) else get(rest) or count(rest, rest)
        else:
            ends = mask & ~_spread(beyond, mask)
            total = 0
            while ends:
                low = ends & -ends
                ends ^= low
                child = mask ^ low
                # each component of the child holds a cover of the peeled
                # element; one with no neighbour left stands alone
                c = covers[low.bit_length() - 1] & child
                alone, rest = 0, c
                while rest:
                    y = rest & -rest
                    rest ^= y
                    if not rel[y.bit_length() - 1] & child:
                        alone |= y
                if alone:
                    weight = perm(child.bit_count(), alone.bit_count())
                    child ^= alone
                    c ^= alone
                    if not child & (child - 1):
                        total += weight
                        continue
                    total += weight * (get(child) or count(child, c))
                else:
                    total += get(child) or count(child, c)
        memo[mask] = total
        if len(memo) > budget:
            raise _Overflow
        return total

    full = (1 << q.n) - 1
    return count(full, full) if full & (full - 1) else 1


def _e_part(q: Poset, downset_cap: int) -> Answer:
    """e of a part that does not split, and no signed sum:
    ``forest_count``, else the peel when Q is small enough and it keeps
    few enough states, else the walk. The peel keeps fewer states than
    the walk stores, so where it overflows ``downset_cap`` the walk
    raises the cap's error."""
    fc = forest_count(q)
    if fc is not None:
        return fc.total, None, "forest"
    if q.n <= PEEL_N:
        try:
            return _peel(q, min(downset_cap, PEEL_STATES)), None, "peel"
        except _Overflow:
            pass
    return count_extensions(q, downset_cap), None, "walk"


def e(p: Poset, downset_cap: int = DOWNSET_CAP) -> tuple[int, str]:
    """(e(P), route): split, then ``_e_part`` on each part."""
    total, _, route = _plan(p, lambda q: _e_part(q, downset_cap))
    return total, route


def signed(p: Poset, downset_cap: int = DOWNSET_CAP) -> tuple[int, int | None, str]:
    """(signed sum, e(P) or None, route): split, then ``forest_count``,
    the height-2 inverse or the quotient walk (with ``_e_part`` for e).
    e is None when a part took the height-2 inverse: e of a lift is left
    to ``e``, whose walk is what runs out of memory on lifts."""
    from . import domino

    def leaf(q: Poset) -> Answer:
        fc = forest_count(q)
        if fc is not None:
            return fc.total, fc.signed, "forest"
        if not any(up and down for up, down in zip(q.up, q.down)):  # height <= 2
            from . import h2

            dec = h2.decompose(q)
            if dec.kind == "sign_balanced":
                return None, 0, "height-2"
            t = domino.DominoTableau(dec.pairs, dec.isolated)
            return None, domino._sign(t) * e(dec.base, downset_cap)[0], "height-2"
        total = _e_part(q, downset_cap)[0]
        return total, domino.si_via_quotients(q, downset_cap), "quotient"

    total, sgn, route = _plan(p, leaf)
    return sgn, total, route
