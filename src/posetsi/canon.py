"""Canonical forms and isomorphism tests for small posets.

The canonical form is the lexicographically least relation encoding over
all element orderings compatible with an iteratively refined vertex
partition. Refinement stops once every color is held by one element. A
poset keeps its colors in ``_colors`` beside its form in ``_canon``, so
it is refined at most once: the census reads the same colors for its
deletion ties and for the form. Twin pruning, on
``poset._twins``, keeps the search small for the n <= 12 regime this
toolkit targets; an explicit stack lets it go deeper. Two posets are
isomorphic exactly when their forms are equal.
"""

from .poset import Poset, _twins, iter_bits

__all__ = ["canonical_form", "is_isomorphic"]


def _refined_colors(p: Poset) -> list[int]:
    """Stable vertex colors; isomorphic posets get identical color lists
    up to relabeling. Colors are dense ranks of invariant signatures. A
    color held by one element is final: its signature is the color alone,
    which keeps its rank, since the color leads every signature."""
    if p._colors is not None:
        return p._colors
    n = p.n
    colors = _rank([
        (p.down[v].bit_count(), p.up[v].bit_count(), p.cover_up[v].bit_count())
        for v in range(n)
    ])
    last, classes = 0, len(set(colors))
    if classes < n:
        rows = list(zip(*[map(iter_bits, m) for m in (p.up, p.down, p.cover_up)]))
    while last < classes < n:
        size = [0] * n
        for c in colors:
            size[c] += 1
        get = colors.__getitem__
        colors = _rank([
            (c,) if size[c] == 1 else (
                c,
                tuple(sorted(map(get, above))),
                tuple(sorted(map(get, below))),
                tuple(sorted(map(get, covup))),
            )
            for c, (above, below, covup) in zip(colors, rows)
        ])
        last, classes = classes, len(set(colors))
    p._colors = colors
    return colors


def _rank(signatures: list) -> list[int]:
    order = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


def canonical_form(p: Poset) -> bytes:
    """Canonical byte string: equal for two posets iff they are isomorphic."""
    if p._canon is not None:
        return p._canon
    n = p.n
    if n == 0:
        p._canon = b"\x00"
        return p._canon
    colors = _refined_colors(p)
    # positions are filled class by class in color order
    pos_color = sorted(colors)
    down = p.down
    # twins give equal codes: v is tried only when it alone is unplaced in
    # twins[v], the mask of it and its lower twins
    twins = _twins(p)

    best: list[int] | None = None
    placed: list[int] = []
    codes: list[int] = []
    mask = 0
    # per position, an iterator over its candidates; the first color is 0
    todo = [iter([v for v in range(n) if not colors[v] and twins[v] == 1 << v])]
    while todo:
        v = next(todo[-1], None)
        if v is None:
            todo.pop()
            if placed:
                mask ^= 1 << placed.pop()
                del codes[len(codes) - len(placed) :]
            continue
        pos = len(placed)
        # whether each placed q lies below v: positions go in color order,
        # and an element above v has a larger down-set, so a larger color
        step = [down[v] >> q & 1 for q in placed]
        if best is not None:
            ref = best[len(codes) : len(codes) + pos]
            if step > ref:
                continue
            if step < ref:
                best = None  # current prefix strictly better; rebuild
        if pos + 1 == n:
            best = codes + step
            continue
        placed.append(v)
        mask |= 1 << v
        codes.extend(step)
        want = pos_color[pos + 1]
        todo.append(iter([
            u for u in range(n) if colors[u] == want and twins[u] & ~mask == 1 << u
        ]))
    assert best is not None
    # past 255 the size byte saturates; the n(n - 1)/2 codes tell sizes apart
    out = bytes([min(n, 255)]) + bytes(best)
    p._canon = out
    return out


def is_isomorphic(p: Poset, q: Poset) -> bool:
    return canonical_form(p) == canonical_form(q)
