"""Domino tableaux: cover-pair partitions, quotient posets, and the
quotient route to sign imbalance.

A tableau partitions the elements into cover 2-chains plus at most one
singleton (only when n is odd, and it must be a maximal element), such
that the parts admit an ordering whose prefixes are all down-sets -
equivalently, the induced quotient relation is acyclic. ``quotient`` is
the one place that decides this: a partition is a tableau exactly when
``from_covers`` accepts its quotient relation, built from the cover
pairs between parts. Listing the tableaux (``enumerate_tableaux``, CLI
``domino``) collects and sorts the cover matchings, up to ``MATCHING_CAP``,
before it builds each one's quotient once, and ``_term`` reads the sign of a
tableau from its pairs and its adapted count from the quotient, with no
label array. ``si_via_quotients`` sums the same terms without listing
them, to the signed sum over all extensions: one signed walk over the
down-sets that sequences of dominoes reach, bounded by a down-set cap,
not by ``MATCHING_CAP``. ``exists_q_adapted`` searches depth first
for a chain of connected q-blocks whose prefixes are down-sets, and
lists no extension."""

from typing import Iterator, NamedTuple

from .errors import CycleError, MalformedPartition, NotATableau, ResourceLimit
from .linext import DOWNSET_CAP, count_extensions
from .linext import _downset_limit, _parity, _upper_covers, _validate
from .poset import Poset, _components, _cover_down, from_covers, iter_bits

__all__ = [
    "DominoTableau",
    "enumerate_tableaux",
    "quotient",
    "tableau_sign",
    "si_via_quotients",
    "is_q_adapted",
    "exists_q_adapted",
    "MATCHING_CAP",
]

MATCHING_CAP = 10**5


class DominoTableau(NamedTuple):
    pairs: tuple[tuple[int, int], ...]  # (bottom, top) cover pairs, by bottom
    singleton: int | None


def _check_partition(p: Poset, t: DominoTableau) -> None:
    seen = 0
    for bot, top in t.pairs:
        if not (0 <= bot < p.n and 0 <= top < p.n and p.cover_up[bot] >> top & 1):
            raise MalformedPartition(f"({bot}, {top}) is not a cover pair")
        pm = (1 << bot) | (1 << top)
        if seen & pm:
            raise MalformedPartition("parts overlap")
        seen |= pm
    if t.singleton is not None:
        if not 0 <= t.singleton < p.n:
            raise MalformedPartition(f"singleton {t.singleton} is out of range")
        sm = 1 << t.singleton
        if seen & sm:
            raise MalformedPartition("parts overlap")
        seen |= sm
    if seen != (1 << p.n) - 1:
        raise MalformedPartition("parts do not cover all elements")


def _parts(t: DominoTableau) -> list[tuple[int, ...]]:
    """Parts in canonical order: pairs by bottom element, singleton last."""
    parts: list[tuple[int, ...]] = list(t.pairs)
    if t.singleton is not None:
        parts.append((t.singleton,))
    return parts


def quotient(p: Poset, t: DominoTableau) -> Poset:
    """Poset on the parts of t (pairs by bottom element, singleton last).

    Part i lies below part j when some element of i lies below some
    element of j. Raises MalformedPartition if t is not a partition into
    cover 2-chains plus at most one singleton, and NotATableau if the
    singleton is not maximal or the relation has a cycle.
    """
    _check_partition(p, t)
    if t.singleton is not None and p.up[t.singleton]:
        raise NotATableau(f"singleton {t.singleton} is not maximal")
    parts = _parts(t)
    part_of = [0] * p.n
    for i, part in enumerate(parts):
        for x in part:
            part_of[x] = i
    # the cover pairs between parts have the same closure as all pairs
    edges = [
        (i, part_of[y])
        for i, part in enumerate(parts)
        for x in part
        for y in iter_bits(p.cover_up[x])
        if part_of[y] != i
    ]
    try:
        return from_covers(len(parts), edges)
    except CycleError as exc:
        raise NotATableau("partition is not a domino tableau") from exc


def _cover_matchings(p: Poset) -> Iterator[DominoTableau]:
    """All partitions into cover 2-chains plus at most one maximal
    singleton (no ordering condition yet), raising ResourceLimit past
    ``MATCHING_CAP`` of them. The walk is depth first: the lowest uncovered
    element is paired with an element covering it, then with one it
    covers, then left as the singleton. It keeps one explicit stack frame
    per part, holding that part, so that no chain is too long for it."""
    n = p.n
    if n == 0:
        yield DominoTableau((), None)
        return

    hasse = [u | d for u, d in zip(p.cover_up, _cover_down(p))]  # Hasse neighbours

    def steps(uncovered: int, singleton: int | None):
        # (part, elements left uncovered, singleton) per way to cover the
        # lowest uncovered element; the part is a pair, or None for the
        # singleton. A pair is skipped when it strands a neighbour: one
        # with no uncovered neighbour left that cannot be the singleton.
        u = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered ^ (1 << u)
        above = p.cover_up[u] & rest
        spare = singleton is None and n % 2 == 1
        for w in iter_bits(above) + iter_bits((hasse[u] & rest) ^ above):
            left = rest ^ (1 << w)
            if all(
                hasse[y] & left or (spare and not p.up[y])
                for y in iter_bits((hasse[u] | hasse[w]) & left)
            ):
                yield ((u, w) if above >> w & 1 else (w, u)), left, singleton
        if spare and not p.up[u]:
            yield None, rest, u

    produced = 0
    # per frame: the part that opened it (None on the first) and its steps
    stack = [(None, steps((1 << n) - 1, None))]
    while stack:
        step = next(stack[-1][1], None)
        if step is None:
            stack.pop()
            continue
        part, uncovered, singleton = step
        if uncovered:
            stack.append((part, steps(uncovered, singleton)))
            continue
        produced += 1
        if produced > MATCHING_CAP:
            raise ResourceLimit(f"matching count exceeded cap {MATCHING_CAP}")
        pairs = sorted(filter(None, [opened for opened, _ in stack] + [part]))
        yield DominoTableau(tuple(pairs), singleton)


def _tableaux(p: Poset) -> Iterator[tuple[DominoTableau, Poset]]:
    """Each cover matching that is a tableau, with its quotient, sorted
    by pair list. The matchings are all collected in one walk and sorted
    first, so that ``MATCHING_CAP`` fires before any quotient is built."""
    for t in sorted(_cover_matchings(p)):
        try:
            q = quotient(p, t)
        except NotATableau:
            continue
        yield t, q


def enumerate_tableaux(p: Poset) -> list[DominoTableau]:
    """All domino tableaux, in ``_tableaux``'s order of pair lists."""
    return [t for t, _ in _tableaux(p)]


def _term(t: DominoTableau, q: Poset) -> tuple[int, int]:
    """Sign and adapted count of tableau t with quotient q. An adapted
    extension lists the parts in a schedule, each pair bottom first;
    moving a pair past another part is an even permutation, so the parts
    in canonical order have the same parity. The adapted count is e(q)
    for even n; for odd n the singleton part is forced to carry the top
    label, so it is e of q with that part removed."""
    if t.singleton is not None:
        q = q.subposet(range(q.n - 1))
    return _sign(t), count_extensions(q)


def _sign(t: DominoTableau) -> int:
    """Parity of the elements of t's parts in canonical order."""
    return _parity([x for part in _parts(t) for x in part])


def tableau_sign(p: Poset, t: DominoTableau) -> int:
    """Common sign of all extensions adapted to t; building the quotient
    validates t."""
    quotient(p, t)
    return _sign(t)


def si_via_quotients(p: Poset, downset_cap: int = DOWNSET_CAP) -> int:
    """The signed sum over all extensions, as the sum over tableaux T of
    sgn(T) * e(P_T), with e(P_T) the number of extensions adapted to T
    (see ``_term``); its absolute value is the sign imbalance.

    The extensions adapted to some tableau are exactly the fixed points
    of ``linext.phi``: labels 2i - 1 and 2i on comparable elements sit on
    a cover pair, bottom first. Each fixed point is adapted to one
    tableau and has its sign, and phi pairs off every other extension
    with one of opposite sign, so

        sum_T sgn(T) * e(P_T) = sum of sgn over the fixed points of phi.

    The right side is counted by one signed walk over the down-sets of
    even size that a sequence of dominoes reaches, one layer at a time.
    A step adds a domino: an addable element u, then an element w
    covering u that is addable once u is placed; for odd n the last step
    places the one element left. Each placement is signed by the rule of
    ``linext._layers``: x adds one inversion per placed element with a
    larger index. A down-set is stored as one int, its signed ways above
    its tops: the elements w with exactly one element u of their
    down-set unplaced, so that (u, w) is a domino. A step goes from w
    alone, and so touches only bottoms that complete a domino. A child's
    tops are built once, when it is first stored: the parent's tops that
    do not cover u, plus those among the upper covers of u, of w and of
    each element they make addable. Every distinct down-set, the empty
    one included, counts toward ``downset_cap`` as it is stored, and
    nothing recurses.
    """
    n = p.n
    full = (1 << n) - 1
    down, cover_up = p.down, p.cover_up
    covers = _upper_covers(p)
    tops = sum(1 << w for w, m in enumerate(down) if m and not m & (m - 1))
    cur = {0: 1 << n | tops}  # one even way
    stored = 1
    for k in range(2, n + 1, 2):
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, val in cur.items():
            tops = val & full
            plus = val ^ tops
            minus = -plus
            free = tops
            while free:
                wbit = free & -free
                free ^= wbit
                ubit = down[wbit.bit_length() - 1] & ~mask
                half = mask | ubit
                new = half | wbit
                # placed elements above u, then above w
                odd = (
                    (mask >> ubit.bit_length()).bit_count()
                    + (half >> wbit.bit_length()).bit_count()
                ) & 1
                inc = minus if odd else plus
                old = get(new)
                if old is not None:
                    nxt[new] = old + inc
                    continue
                stored += 1
                if stored > downset_cap:
                    raise _downset_limit(downset_cap, k, n)
                u = ubit.bit_length() - 1
                child = tops & ~cover_up[u]
                near = covers[u] + covers[wbit.bit_length() - 1]
                for ybit, below in near:  # grows by the covers of new addables
                    if ybit & new:
                        continue
                    unplaced = below & ~new
                    if not unplaced:
                        near += covers[ybit.bit_length() - 1]
                    elif not unplaced & (unplaced - 1):
                        child |= ybit
                nxt[new] = inc | child
        cur = nxt
    if not n & 1:
        return cur.get(full, 0) >> n
    total = 0
    for mask, val in cur.items():
        last = full ^ mask
        ways = val >> n
        total += -ways if (mask >> last.bit_length()).bit_count() & 1 else ways
    return total


def is_q_adapted(p: Poset, labels: tuple[int, ...], q: int) -> bool:
    """Blocks of q consecutive labels must each induce a connected
    subposet (up to q-1 top labels are left over and ignored)."""
    if q < 2:
        raise ValueError("block size must be at least 2")
    _validate(p, labels)
    order = sorted(range(p.n), key=labels.__getitem__)
    return all(
        len(_components(p, sum(1 << x for x in order[i : i + q]))) == 1
        for i in range(0, p.n - q + 1, q)
    )


def exists_q_adapted(p: Poset, q: int) -> bool:
    """Whether some extension is q-adapted, decided with no extension
    listed, by a depth-first search over the down-sets R that a chain of
    connected q-blocks builds from the empty one. From R it adds q
    addable elements in every way, one set of down-sets per step, and
    pushes once each down-set D so reached with D - R connected. Testing
    only the whole block reaches every down-set of size |R| + q above R,
    where growing the block connected would miss a < c > b from {a}. D
    and R are down-sets, so that block may follow R in any order that
    respects P, and so may the fewer than q elements left after the last
    block. The down-sets held at once, those pushed and those of the step
    being grown, count toward ``DOWNSET_CAP``."""
    if q < 2:
        raise ValueError("block size must be at least 2")
    n, down = p.n, p.down
    full = (1 << n) - 1
    seen = {0}
    stack = [0]
    while stack:
        r = stack.pop()
        if r.bit_count() == n // q * q:
            return True
        step = {r}
        for _ in range(q):
            nxt = set()
            for mask in step:
                for x in iter_bits(full ^ mask):
                    if not down[x] & ~mask:
                        nxt.add(mask | 1 << x)
                        if len(seen) + len(nxt) > DOWNSET_CAP:
                            raise _downset_limit(DOWNSET_CAP, mask.bit_count() + 1, n)
            step = nxt
        for d in step - seen:
            if len(_components(p, d ^ r)) == 1:
                seen.add(d)
                stack.append(d)
    return False
