"""Linear extensions: counting, enumeration, signs, and the label-swap
involution underlying sign imbalance.

A linear extension is stored as its label array ``labels`` with
``labels[x]`` in 1..n. The sign convention fixes the reference bijection
to the identity on element indices, so sgn is the inversion parity of the
label array; imbalance is independent of that choice.

Four exact routes count or sign extensions, and each is checked
against the others:

- The down-set walk, ``_layers``, serves every poset and every public
  count: e(P), or e(P) and the signed sum together in a single pass,
  and the list of down-sets that poset generation attaches new
  elements over. ``_through`` adds one backward pass over its layers,
  giving the extensions that pass through each down-set, from which
  the census sums e of every child of a parent (``generate._classes``).
- The forest route, ``forest_count``, takes O(n^2) big-integer steps
  when the Hasse diagram is a forest (fences, chains, antichains, trees)
  and declines every other poset. The public counts and every
  criterion but the Euler table check keep to the walk.
- Brute enumeration, a depth-first walk on an explicit stack that
  stores no down-sets. ``enumerate_extensions`` writes each element's
  label as it places it and keeps the label array of each full order.
  ``_enumerated_signed``, the brute route that counts and signs every
  extension (and, capped, counts the extensions of ``at_least_k``),
  runs its own loop of the same shape: each frame also carries its
  prefix's parity, which placing an element updates by the sign rule
  below, and the last element, being forced, is counted and signed
  without a frame. The loops stay separate because sharing one would
  make the listing carry a parity it does not need, and build a tuple
  per extension that the counts do not need.
- The quotient route, ``domino.si_via_quotients``, signs only the
  fixed points of ``phi``, the extensions built from dominoes, by a
  walk over the down-sets of even size that they reach; it shares
  ``_upper_covers``, the sign rule below and the cap's error with
  ``_layers``.

``count_extensions`` and ``signed_count`` are the walk by name, each
reading its last layer; CLI ``count`` and ``si`` pick a route by
``plan.e`` and ``plan.signed``.

Each stored down-set of the walk keeps one int that packs its count
(its even and odd ways, when signed) above its addable set, the minimal
elements of its complement, so the walk steps only over elements that
can be added and each lattice edge costs one dict update. Enumeration
carries the same addable sets from depth to depth. Every sign follows
one rule: an element placed after j larger ones adds j inversions, per
step in the walk, the quotient route and the brute route, and per
sequence in ``_parity``. The walk stores one popcount layer at a time and raises
:class:`ResourceLimit` the moment the number of stored down-sets would
pass the cap, before the rest of the layer is built. ``at_least_k``
falls back to the brute route, which stops at the k-th extension, when
the lattice is too large for a walk of fewer than k steps; its private
twin ``_at_least_k`` also returns how many extensions that enumerated,
which criterion 9 bounds by k.
"""

from itertools import accumulate
from math import comb, factorial
from typing import Iterator, NamedTuple

from .errors import InvalidExtension, ResourceLimit
from .poset import Poset, _cover_down, iter_bits

__all__ = [
    "SignedCount",
    "sign",
    "count_extensions",
    "signed_count",
    "forest_count",
    "enumerate_extensions",
    "at_least_k",
    "phi",
    "ruskey_criterion",
    "stanley_criterion",
    "DOWNSET_CAP",
    "ENUM_CAP",
]

DOWNSET_CAP = 1 << 24
ENUM_CAP = 10**6


class SignedCount(NamedTuple):
    total: int  # e(P)
    signed: int  # sum of sgn over all extensions
    imbalance: int  # |signed|


def _validate(p: Poset, labels: tuple[int, ...]) -> None:
    n = p.n
    if len(labels) != n or sorted(labels) != list(range(1, n + 1)):
        raise InvalidExtension(f"labels {labels} are not a bijection onto 1..{n}")
    for i in range(n):
        for j in iter_bits(p.up[i]):
            if labels[i] >= labels[j]:
                raise InvalidExtension(
                    f"labels {labels} violate {i} < {j}"
                )


def _parity(seq) -> int:
    """Inversion parity of distinct nonnegative integers as +1 or -1: each
    one adds an inversion per larger one seen before it. A label array and
    its element order are inverse permutations, so they share it."""
    seen = inv = 0
    for x in seq:
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inv & 1 else 1


def sign(p: Poset, labels: tuple[int, ...]) -> int:
    """Inversion parity of the label array; +1 for the identity labeling."""
    _validate(p, labels)
    return _parity(labels)


def _width(k: int) -> int:
    """Bits for each of the even and odd ways in layer k: each is <= k!."""
    return factorial(k).bit_length()


def _upper_covers(p: Poset) -> list[list[tuple[int, int]]]:
    """For each element x, (bit of y, elements below y) for each y that
    covers x: placing x makes y addable once all of those are placed."""
    down = p.down
    return [[(1 << y, down[y]) for y in iter_bits(p.cover_up[x])] for x in range(p.n)]


def _downset_limit(cap: int, k: int, n: int) -> ResourceLimit:
    """The error of a walk that would store more than ``cap`` down-sets
    while it builds layer k of n."""
    return ResourceLimit(
        f"down-set count exceeded cap {cap} in layer {k} of {n}; "
        "raise it with --downset-cap"
    )


def _layers(
    p: Poset, downset_cap: int = DOWNSET_CAP, signed: bool = False
) -> Iterator[dict[int, int]]:
    """Walk the lattice of down-sets one popcount layer at a time.

    Yields layer k as ``{down-set mask: value}`` for k = 0..n. The count
    of a down-set is the number of ways to build it one minimal element
    at a time, so the last layer's count is e(P). Appending x gives it
    the next label, which adds one inversion per placed element with a
    larger index. A value is one int: the low n bits are the down-set's
    addable set (the minimal elements of its complement), and above them
    sits the count. With ``signed`` the count is split in two fields of
    ``_width(k)`` bits, the even ways above the odd ones, and a step that
    adds an odd number of inversions swaps them, so the signed sum rides
    along in the same pass. Only addable elements are stepped over, so
    each lattice edge costs one dict update. A child's addable set is
    built once, when the child is first stored: the parent's set minus
    x, plus each upper cover of x whose elements below are now all
    placed. Every distinct down-set, the empty one included, counts
    toward ``downset_cap`` as it is stored.
    """
    n = p.n
    full = (1 << n) - 1
    covers = _upper_covers(p)
    w = _width(0)
    cur = {0: (1 << w if signed else 1) << n | p.minimal_mask}  # one even way
    stored = 1
    yield cur
    for k in range(1, n + 1):
        prev, w = w, _width(k)
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, val in cur.items():
            addable = val & full
            if signed:
                ways = val >> n
                even, odd = ways >> prev, ways & ((1 << prev) - 1)
                plus = (even << w | odd) << n
                minus = (odd << w | even) << n
            else:
                plus = val ^ addable
            free = addable
            while free:
                low = free & -free
                free ^= low
                new = mask | low
                # placed elements above x: mask >> (x + 1)
                odd_step = signed and (mask >> low.bit_length()).bit_count() & 1
                inc = minus if odd_step else plus
                old = get(new)
                if old is not None:
                    nxt[new] = old + inc
                    continue
                stored += 1
                if stored > downset_cap:
                    raise _downset_limit(downset_cap, k, n)
                child = addable ^ low
                for ybit, below in covers[low.bit_length() - 1]:
                    if not below & ~new:
                        child |= ybit
                nxt[new] = inc | child
        yield nxt
        cur = nxt


def _through(p: Poset) -> dict[int, int]:
    """Each down-set I of P with the number of extensions whose first |I|
    elements are I: f(I), the count of the walk's layers, times g(I), the
    ways to finish from I, from one backward pass over the same layers,
    g(I) = sum of g(I + a) over the addable elements a packed in I's
    value, with g = 1 on the full set."""
    n = p.n
    full = (1 << n) - 1
    ahead: dict[int, int] = {}  # g of every down-set passed so far
    through = {}
    for layer in reversed([*_layers(p)]):
        for mask, val in layer.items():
            free = val & full
            g = 0 if free else 1
            while free:
                low = free & -free
                free ^= low
                g += ahead[mask | low]
            ahead[mask] = g
            through[mask] = (val >> n) * g
    return through


def count_extensions(p: Poset, downset_cap: int = DOWNSET_CAP) -> int:
    """Exact e(P) by dynamic programming over down-sets: the count of
    the walk's last layer."""
    for layer in _layers(p, downset_cap):
        pass
    return layer[(1 << p.n) - 1] >> p.n


def signed_count(p: Poset, downset_cap: int = DOWNSET_CAP) -> SignedCount:
    """e(P) together with the exact signed sum over all extensions, from
    the even and odd ways of one signed walk's last layer."""
    for layer in _layers(p, downset_cap, signed=True):
        pass
    ways = layer[(1 << p.n) - 1] >> p.n
    w = _width(p.n)
    even, odd = ways >> w, ways & ((1 << w) - 1)
    return SignedCount(even + odd, even - odd, abs(even - odd))


def _binom_minus_one(m: int, k: int) -> int:
    """Gaussian binomial [m choose k] at q = -1: the signed number of
    shuffles of k low and m - k high elements, each high element placed
    before a low one adding an inversion."""
    if not m & 1 and k & 1:
        return 0
    return comb(m >> 1, k >> 1)


def _merge(f: list[int], g: list[int], above: bool, signed: bool) -> list[int]:
    """Join subtree C (vector g, its root c) to the tree A (vector f, its
    root r) along the cover edge r-c; c lies above r when ``above``.

    f[i] counts the extensions of A with r at position i, g[j] those of
    C with c at position j, and so for the result. An extension of the
    join puts s of C's elements before r; then c follows r exactly when
    j >= s. A's indices are all below C's, so with ``signed`` the cross
    inversions depend only on the shuffle: the two shuffles around r
    weigh their q = -1 binomials, and the s elements of C before r add
    one inversion each for r and the a - 1 - i elements of A after it.
    """
    a, b = len(f), len(g)
    binom = _binom_minus_one if signed else comb
    # tail[s]: ways of C whose root sits where s elements of C before r allow
    if above:
        tail = [*accumulate(reversed(g), initial=0)][::-1]
    else:
        tail = [*accumulate(g, initial=0)]
    if a == 1:  # r alone: every shuffle is C's first s elements, r, the rest
        if signed:
            tail[1::2] = [-ways for ways in tail[1::2]]
        return tail
    h = [0] * (a + b)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for s, ways in enumerate(tail):
            if ways:
                k = i + s
                w = binom(k, i) * binom(a + b - 1 - k, a - 1 - i)
                if signed and s * (a - i) & 1:
                    w = -w
                h[k] += fi * w * ways
    return h


def forest_count(p: Poset) -> SignedCount | None:
    """e(P) and the signed sum in O(n^2) big-integer steps when the Hasse
    diagram of P is a forest, else None.

    The elements are renumbered in preorder, one component after
    another, so that every subtree, and every component, occupies a
    block of consecutive numbers above those merged before it. Each
    subtree keeps a vector indexed by its root's position, and children
    join their parent in preorder by ``_merge`` (Atkinson, Order 1990);
    the signed pass uses the same merge with q = -1 shuffle weights
    (Stanley, Adv. Appl. Math. 2005). Components join by the same
    binomials. The parity of the renumbering puts the signed sum back
    in the caller's labelling. Nothing recurses, so a chain of any
    length is one pass.
    """
    n = p.n
    if n and sum(m.bit_count() for m in p.cover_up) >= n:
        return None  # a forest has n - (components) < n cover edges
    nbrs = [u | d for u, d in zip(p.cover_up, _cover_down(p))]  # Hasse neighbours
    order: list[int] = []  # elements in preorder
    children: list[list[int]] = [[] for _ in range(n)]
    roots = seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        roots |= 1 << root
        seen |= 1 << root
        stack = [(root, 0)]  # (element, its parent's bit)
        while stack:
            x, pbit = stack.pop()
            order.append(x)
            kids = nbrs[x] & ~seen
            if nbrs[x] ^ kids != pbit:
                return None  # a second path to a seen element: a cycle
            seen |= kids
            children[x] = iter_bits(kids)
            stack += [(y, 1 << x) for y in reversed(children[x])]
    sums = []
    for signed in (False, True):
        binom = _binom_minus_one if signed else comb
        vec: list[list[int] | None] = [None] * n
        total, size = 1, 0
        for x in reversed(order):
            f = [1]
            for c in children[x]:
                f = _merge(f, vec[c], p.cover_up[x] >> c & 1, signed)
                vec[c] = None
            vec[x] = f
            if roots >> x & 1:  # a component's root, met last to first
                m = len(f)
                total *= binom(size + m, m) * sum(f)
                size += m
        sums.append(total)
    e, signed_sum = sums
    signed_sum *= _parity(order)
    return SignedCount(e, signed_sum, abs(signed_sum))


def _enumerated_signed(p: Poset, cap: int = ENUM_CAP) -> tuple[int, int]:
    """(count, signed sum) over the extensions, each visited and counted
    one at a time, raising ResourceLimit at extension ``cap`` + 1.

    A depth-first walk with ascending element choice, on an explicit
    stack so that no chain is too long for it. Each frame carries the
    placed mask, the addable set, the untried set and the parity of the
    prefix. A child's addable set is its parent's less x, plus each upper
    cover of x whose elements below are now all placed, as in
    ``_layers``. Placing x after the placed elements above it flips the
    parity once per such element, the sign rule of ``_layers``. With one
    element left it is forced, so the extension is counted and signed on
    the spot, without a frame of its own. The signed sum is the
    count less twice the odd extensions."""
    n = p.n
    count = odd = 0
    if n < 2:  # the one extension of an empty or one-element order
        count = 1
    else:
        covers = _upper_covers(p)
        full = (1 << n) - 1
        last = n - 1  # frames on the stack once only the last element is left
        first = p.minimal_mask
        stack = [[0, first, first, 0]]
        while stack:
            frame = stack[-1]
            mask, addable, untried, parity = frame
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            frame[2] = untried ^ low
            x = low.bit_length() - 1
            parity ^= (mask >> x).bit_count() & 1
            mask |= low
            if len(stack) == last:
                count += 1
                if count > cap:
                    break
                rest = full ^ mask
                odd += parity ^ (mask >> rest.bit_length()).bit_count() & 1
                continue
            nxt = addable ^ low
            for ybit, below in covers[x]:
                if not below & ~mask:
                    nxt |= ybit
            stack.append([mask, nxt, nxt, parity])
    if count > cap:
        raise ResourceLimit(f"extension count exceeded cap {cap}")
    return count, count - 2 * odd


def enumerate_extensions(p: Poset, cap: int = ENUM_CAP) -> Iterator[tuple[int, ...]]:
    """All linear extensions as label arrays, lexicographically sorted,
    raising ResourceLimit at extension ``cap`` + 1.

    A depth-first walk like ``_enumerated_signed``, whose frames carry
    the placed mask, the addable set and the untried set. Placing an
    element writes its label, the depth, and a full order is kept as
    its label array without a frame of its own."""
    n = p.n
    if not n:
        if cap < 1:
            raise ResourceLimit(f"extension count exceeded cap {cap}")
        return iter([()])
    covers = _upper_covers(p)
    full = (1 << n) - 1
    found = []
    labels = [0] * n
    first = p.minimal_mask
    stack = [[0, first, first]]
    while stack:
        frame = stack[-1]
        mask, addable, untried = frame
        if not untried:
            stack.pop()
            continue
        low = untried & -untried
        frame[2] = untried ^ low
        x = low.bit_length() - 1
        labels[x] = len(stack)
        mask |= low
        if mask == full:
            found.append(tuple(labels))
            if len(found) > cap:
                raise ResourceLimit(f"extension count exceeded cap {cap}")
            continue
        nxt = addable ^ low
        for ybit, below in covers[x]:
            if not below & ~mask:
                nxt |= ybit
        stack.append([mask, nxt, nxt])
    found.sort()
    return iter(found)


def at_least_k(p: Poset, k: int) -> bool:
    """True iff e(P) >= k, for at most about twice the work of
    enumerating k extensions.

    The exact down-set walk goes first, capped at k // (n + 1) stored
    down-sets: each one costs its storing plus at most n steps over its
    addable elements, so the capped walk takes at most k steps, no more
    than enumerating k extensions. The cap is clamped to ``DOWNSET_CAP``
    to bound memory. A lattice that outgrows it falls back to the brute
    route, which stops at the k-th extension.
    """
    return _at_least_k(p, k)[0]


def _at_least_k(p: Poset, k: int) -> tuple[bool, int]:
    """``at_least_k`` and the number of extensions it enumerated: 0 when
    the capped walk decided, else e(P) or k, whichever is less."""
    if k <= 0:
        return True, 0
    cap = min(k // (p.n + 1), DOWNSET_CAP)
    if cap:
        try:
            return count_extensions(p, cap) >= k, 0
        except ResourceLimit:
            pass
    try:
        e = _enumerated_signed(p, k - 1)[0]
    except ResourceLimit:
        return True, k
    return False, e


def phi(p: Poset, labels: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-reversing involution: swap the least odd label j whose
    successor j+1 sits on an incomparable element; fixed point if none."""
    _validate(p, labels)
    n = p.n
    elem_of = [0] * (n + 1)
    for x, lab in enumerate(labels):
        elem_of[lab] = x
    for j in range(1, n, 2):
        a, b = elem_of[j], elem_of[j + 1]
        if not p.comparable(a, b):
            out = list(labels)
            out[a], out[b] = j + 1, j
            return tuple(out)
    return labels


def ruskey_criterion(p: Poset) -> bool:
    """Every nonminimal element lies strictly above at least two elements.

    Posets satisfying this are sign-balanced: labels 1 and 2 always land
    on incomparable minimal elements, so swapping them is a sign-reversing
    involution without fixed points. Needs two labels to swap, so posets
    with fewer than two elements (si = 1) fail the criterion.
    """
    return p.n >= 2 and all(
        p.down[v] == 0 or p.down[v].bit_count() >= 2 for v in range(p.n)
    )


def stanley_criterion(p: Poset) -> bool:
    """Every maximal chain has length (edge count) congruent to n mod 2.

    Such posets are sign-balanced (promotion gives a sign-reversing
    involution). Posets with fewer than two elements (si = 1) fail the
    criterion.
    """
    n = p.n
    if n < 2:
        return False
    # Bit j of par[v]: some chain from a minimal element up to v has length
    # j mod 2. Lower covers come first in order of down-set size.
    par = [0 if p.down[v] else 1 for v in range(n)]
    for u in sorted(range(n), key=lambda v: p.down[v].bit_count()):
        flipped = (par[u] & 1) << 1 | par[u] >> 1
        for w in iter_bits(p.cover_up[u]):
            par[w] |= flipped
    return all(par[v] == 1 << (n & 1) for v in range(n) if not p.up[v])
