"""Finite posets on elements 0..n-1 with bitmask relation rows.

The strict order is kept transitively closed at all times; covers are
derived once at construction. Posets are immutable and hashable, so they
can be shared freely across threads and used as dict keys.
"""

from typing import Iterable, Iterator, NamedTuple

from .errors import CycleError

__all__ = [
    "Poset",
    "PosetStats",
    "from_covers",
    "chain",
    "antichain",
    "zigzag",
    "grid",
    "ordinal_sum",
    "disjoint_union",
    "stats",
]


def iter_bits(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order. A list, not
    a generator: most callers read every bit, and ``canon`` keeps them."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PosetStats(NamedTuple):
    height: int  # elements in a longest chain (antichain has height 1)
    re: int  # comparable pairs
    cr: int  # cover pairs (Hasse edges)
    components: int  # connected components of the Hasse diagram


class Poset:
    """Immutable strict partial order on ``n`` integer elements.

    ``up[i]`` is the bitmask of elements strictly above i, ``down[i]`` the
    mask of elements strictly below, and ``cover_up[i]`` the mask of
    elements covering i. The constructor trusts its input to be
    transitively closed; use :func:`from_covers` to build from arbitrary
    acyclic pairs. It derives covers and down-sets from each row's
    minimal elements and covers alone, so a chain costs n steps, not
    n^2 / 2. The census builds its children with :meth:`add_maximal`,
    which extends the parent's rows and does not call the constructor.
    """

    __slots__ = ("n", "up", "down", "cover_up", "_canon", "_colors")

    def __init__(self, n: int, up: tuple[int, ...]):
        _check_size(n)
        self.n = n
        self.up = up
        down = [0] * n
        cover = [0] * n
        # an element has more elements above it than any element above
        # it, so this order puts every element after all those below it
        size = [-u.bit_count() for u in up]
        for i in sorted(range(n), key=size.__getitem__):
            # visit up[i] lowest index first, dropping all above each
            # visited element: every minimal element, so every cover, is
            # visited, and reach gathers everything above a cover
            rest, reach = up[i], 0
            while rest:
                low = rest & -rest
                above = up[low.bit_length() - 1]
                reach |= above
                rest &= ~(above | low)
            cover[i] = c = up[i] & ~reach
            # down[i] is complete: each lower cover of i came before it
            below = down[i] | 1 << i
            while c:
                low = c & -c
                c ^= low
                down[low.bit_length() - 1] |= below
        self.down = tuple(down)
        self.cover_up = tuple(cover)
        self._canon = self._colors = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset) and self.n == other.n and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __repr__(self) -> str:
        return f"Poset({self.n}, {self.covers()})"

    def __reduce__(self):
        return (Poset, (self.n, self.up))

    def lt(self, i: int, j: int) -> bool:
        """True iff i is strictly below j."""
        return bool(self.up[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j | self.up[j] >> i) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (u, v) with v covering u, sorted lexicographically."""
        return [(i, j) for i in range(self.n) for j in iter_bits(self.cover_up[i])]

    def relations(self) -> Iterator[tuple[int, int]]:
        """All strict pairs (i, j) with i below j."""
        for i in range(self.n):
            for j in iter_bits(self.up[i]):
                yield (i, j)

    @property
    def minimal_mask(self) -> int:
        m = 0
        for i in range(self.n):
            if not self.down[i]:
                m |= 1 << i
        return m

    @property
    def isolated_mask(self) -> int:
        m = 0
        for i in range(self.n):
            if not self.up[i] and not self.down[i]:
                m |= 1 << i
        return m

    def subposet(self, elements: Iterable[int]) -> "Poset":
        """Induced subposet; element k of the result is ``elements[k]``."""
        elems = list(elements)
        pos = {e: k for k, e in enumerate(elems)}
        inside = sum(1 << e for e in pos)
        up = []
        for e in elems:
            m = 0
            for j in iter_bits(self.up[e] & inside):
                m |= 1 << pos[j]
            up.append(m)
        return Poset(len(elems), tuple(up))

    def relabel(self, perm: Iterable[int]) -> "Poset":
        """Apply ``perm`` (old index -> new index) to the elements."""
        p = list(perm)
        up = [0] * self.n
        for i in range(self.n):
            m = 0
            for j in iter_bits(self.up[i]):
                m |= 1 << p[j]
            up[p[i]] = m
        return Poset(self.n, tuple(up))

    def add_maximal(self, down_mask: int) -> "Poset":
        """Extend by one new maximal element v whose strict lower set is
        ``down_mask`` (must be a lower order ideal). The rows come from
        this poset's, not from ``__init__``: no down-row changes, each
        element of the ideal gains v above it, and each maximal element
        of the ideal gains v as an upper cover."""
        v = self.n
        bit = 1 << v
        up, cover = list(self.up), list(self.cover_up)
        for i in iter_bits(down_mask):
            if not up[i] & down_mask:
                cover[i] |= bit
            up[i] |= bit
        child = Poset.__new__(Poset)
        child.n = v + 1
        child.up = (*up, 0)
        child.down = (*self.down, down_mask)
        child.cover_up = (*cover, 0)
        child._canon = child._colors = None
        return child


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def from_covers(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Transitive closure of the pairs (u, v) meaning u < v.

    Input pairs need not be covers; covers are recomputed after closure.
    Raises :class:`CycleError` if the pairs contain a directed cycle and
    ``ValueError`` for a negative n and for out-of-range or reflexive pairs.
    """
    _check_size(n)
    adj = [0] * n
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"element out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"reflexive pair ({u}, {v})")
        adj[u] |= 1 << v

    # Kahn topological sort to reject cycles, then closure in reverse order.
    indeg = [0] * n
    for u in range(n):
        for v in iter_bits(adj[u]):
            indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in iter_bits(adj[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n:
        raise CycleError("input relation contains a directed cycle")

    up = [0] * n
    for v in reversed(order):
        m = adj[v]
        for w in iter_bits(adj[v]):
            m |= up[w]
        up[v] = m
    return Poset(n, tuple(up))


def chain(n: int) -> Poset:
    """Total order 0 < 1 < ... < n-1."""
    _check_size(n)
    full = (1 << n) - 1
    return Poset(n, tuple(full & ~((1 << (i + 1)) - 1) for i in range(n)))


def antichain(n: int) -> Poset:
    return Poset(n, (0,) * n)


def zigzag(n: int) -> Poset:
    """Fence 0 < 1 > 2 < 3 > ..., indexed along the zigzag: each even
    element lies below its neighbours, and no other pair is related."""
    _check_size(n)
    full = (1 << n) - 1
    return Poset(n, tuple(0 if i % 2 else 0b101 << i >> 1 & full for i in range(n)))


def grid(m: int, n: int) -> Poset:
    """Componentwise order on {0..m-1} x {0..n-1}; element (i, j) is i*n + j."""
    _check_size(min(m, n))
    pairs = []
    for i in range(m):
        for j in range(n):
            if i + 1 < m:
                pairs.append((i * n + j, (i + 1) * n + j))
            if j + 1 < n:
                pairs.append((i * n + j, i * n + j + 1))
    return from_covers(m * n, pairs)


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Everything in p below everything in q; q's indices shift by p.n."""
    qmask_shifted = ((1 << q.n) - 1) << p.n
    up = [p.up[i] | qmask_shifted for i in range(p.n)]
    up += [q.up[i] << p.n for i in range(q.n)]
    return Poset(p.n + q.n, tuple(up))


def disjoint_union(p: Poset, q: Poset) -> Poset:
    up = list(p.up) + [q.up[i] << p.n for i in range(q.n)]
    return Poset(p.n + q.n, tuple(up))


def _cover_down(p: Poset) -> list[int]:
    """The mask of the elements that each element covers: ``cover_up``
    transposed. Built per call, not kept on ``Poset``, so that the census,
    which builds posets by the hundred thousand, does not pay for it."""
    down = [0] * p.n
    for x, c in enumerate(p.cover_up):
        for y in iter_bits(c):
            down[y] |= 1 << x
    return down


def _twins(p: Poset) -> list[int]:
    """Per element, the mask of it and its lower-indexed twins: elements
    with equal ``up`` and ``down`` rows, which swap by an automorphism."""
    seen: dict[tuple[int, int], int] = {}
    twins = []
    for v, rows in enumerate(zip(p.up, p.down)):
        seen[rows] = seen.get(rows, 0) | 1 << v
        twins.append(seen[rows])
    return twins


def _components(p: Poset, mask: int, comparable: bool = True) -> list[int]:
    """The components of the elements of ``mask`` as masks, each grown
    from its lowest element: in the comparability graph (the Hasse
    components) or, unless ``comparable``, in the incomparability graph,
    whose neighbours of x are mask ^ (up[x] | down[x]) less those outside
    mask."""
    up, down = p.up, p.down
    flip = 0 if comparable else mask
    parts = []
    while mask:
        comp = new = mask & -mask
        while new:
            reach = 0
            while new:
                low = new & -new
                new ^= low
                x = low.bit_length() - 1
                reach |= (up[x] | down[x]) ^ flip
            new = reach & mask & ~comp
            comp |= new
        parts.append(comp)
        mask ^= comp
    return parts


def stats(p: Poset) -> PosetStats:
    """Height, comparable-pair count, cover count, Hasse components."""
    n = p.n
    height = [0] * n
    best = 0
    # longest chain by increasing down-set size
    for v in sorted(range(n), key=lambda v: p.down[v].bit_count()):
        h = 1
        for u in iter_bits(p.down[v]):
            if height[u] >= h:
                h = height[u] + 1
        height[v] = h
        best = max(best, h)
    re = sum(m.bit_count() for m in p.up)
    cr = sum(m.bit_count() for m in p.cover_up)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for i in range(n):
        for j in iter_bits(p.cover_up[i]):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                comps -= 1
    return PosetStats(best, re, cr, comps)
