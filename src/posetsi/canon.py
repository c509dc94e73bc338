"""Canonical forms and isomorphism tests for small posets.

The canonical form is the lexicographically least relation encoding over
all element orderings compatible with an iteratively refined vertex
partition. Refinement plus twin pruning keeps the search small for the
n <= 12 regime this toolkit targets.
"""

from .poset import Poset, iter_bits

__all__ = ["canonical_form", "is_isomorphic"]


def _refined_colors(p: Poset) -> list[int]:
    """Stable vertex colors; isomorphic posets get identical color lists
    up to relabeling. Colors are dense ranks of invariant signatures."""
    n = p.n
    sig = [
        (p.down[v].bit_count(), p.up[v].bit_count(), p.cover_up[v].bit_count())
        for v in range(n)
    ]
    colors = _rank(sig)
    classes = len(set(colors))
    while True:
        sig = []
        for v in range(n):
            above = sorted(colors[j] for j in iter_bits(p.up[v]))
            below = sorted(colors[j] for j in iter_bits(p.down[v]))
            covup = sorted(colors[j] for j in iter_bits(p.cover_up[v]))
            sig.append((colors[v], tuple(above), tuple(below), tuple(covup)))
        colors = _rank(sig)
        new_classes = len(set(colors))
        if new_classes == classes:
            return colors
        classes = new_classes


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
    up, down = p.up, p.down

    best: list[int] | None = None
    placed: list[int] = []
    codes: list[int] = []

    def rec(pos: int) -> None:
        nonlocal best
        if pos == n:
            best = codes.copy()
            return
        want = pos_color[pos]
        # twins, with equal up and down rows, give equal codes: try one
        kept: dict[tuple[int, int], int] = {}
        for v in range(n):
            if colors[v] == want and v not in placed_set:
                kept.setdefault((up[v], down[v]), v)
        for v in kept.values():
            # whether each placed q lies below v: positions go in color order,
            # and an element above v has a larger down-set, so a larger color
            step = [down[v] >> q & 1 for q in placed]
            if best is not None:
                ref = best[len(codes) : len(codes) + pos]
                if step > ref:
                    continue
                if step < ref:
                    best = None  # current prefix strictly better; rebuild
            placed.append(v)
            placed_set.add(v)
            codes.extend(step)
            rec(pos + 1)
            del codes[len(codes) - pos :]
            placed_set.discard(v)
            placed.pop()

    placed_set: set[int] = set()
    rec(0)
    assert best is not None
    # past 255 the size byte saturates; the n(n - 1)/2 codes tell sizes apart
    out = bytes([min(n, 255)]) + bytes(best)
    p._canon = out
    return out


def is_isomorphic(p: Poset, q: Poset) -> bool:
    if p.n != q.n:
        return False
    if sorted(m.bit_count() for m in p.up) != sorted(m.bit_count() for m in q.up):
        return False
    return canonical_form(p) == canonical_form(q)
