"""Height-2 layer: the two-level lift, its inverse decomposition, the
polynomial sign-imbalance decider, and the desk-scale census operations
(odd-count, prime-coprime count, bounds, achievable spectrum).

The lift of a base poset P under a good relation set R lives on two
copies of P's elements: bottoms 0..n-1, tops n..2n-1, with x below n+y
iff (x, y) is in R. Its sign imbalance equals e(P). The inverse peels
the lift's forced (bottom, top) pairs in one pass over its Hasse diagram.
Only the census functions (``count_f``, ``count_f_q``, ``odd_e_bounds``
and ``spectrum``) import ``generate`` and ``canon``, when they run, so
the lift, its inverse and the decider load neither. They read e from
the census values of ``generate._classes``, each class's from its
parent's tables. ``count_f_q`` and ``spectrum`` read the height-2
census; ``count_f`` reads the full census on half the elements for its
formula route and the height-2 census for its direct route;
``odd_e_bounds`` reads the full census on n elements for its odd-e
bases, and walks each of their lifts on 2n.
"""

import math
from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import BadGoodSet, HeightExceeded, VerificationError
from .linext import _at_least_k, count_extensions
from .poset import Poset, from_covers, iter_bits, stats

__all__ = [
    "Decomposition",
    "good_base",
    "enumerate_good_sets",
    "build_lift",
    "decompose",
    "h2sb_decide",
    "count_f",
    "count_f_q",
    "odd_e_bounds",
    "spectrum",
]

GoodSet = frozenset  # pairs (x, y) over base elements, diagonal included


class Decomposition(NamedTuple):
    kind: str  # "sign_balanced" | "lift" | "lift_plus_isolated"
    base: Poset | None = None
    rel: GoodSet | None = None
    isolated: int | None = None
    pairs: tuple[tuple[int, int], ...] | None = None  # (bottom, top), by bottom


def good_base(p: Poset) -> GoodSet:
    """Smallest good set: the diagonal plus all cover pairs."""
    return frozenset({*((x, x) for x in range(p.n)), *p.covers()})


def _validate_good(p: Poset, rel: GoodSet) -> None:
    for x, y in sorted(rel):
        if not (0 <= x < p.n and 0 <= y < p.n):
            raise BadGoodSet(f"pair ({x}, {y}) is outside 0..{p.n - 1}")
    base = good_base(p)
    if not base <= rel:
        missing = sorted(base - rel)[0]
        raise BadGoodSet(f"missing diagonal or cover pair {missing}")
    for x, y in sorted(rel - base):
        if not p.lt(x, y):
            raise BadGoodSet(f"pair ({x}, {y}) leaves the order")


def enumerate_good_sets(p: Poset) -> Iterator[GoodSet]:
    """All good sets: the base union each subset of non-cover relations."""
    base = good_base(p)
    extras = sorted(
        (x, y) for x, y in p.relations() if not p.cover_up[x] >> y & 1
    )
    for r in range(len(extras) + 1):
        for chosen in combinations(extras, r):
            yield base | frozenset(chosen)


def build_lift(p: Poset, rel: GoodSet) -> Poset:
    """Two-level poset with bottoms below tops along rel; height <= 2.
    The lift lemma with its sign: under these labels the signed sum of
    lift(P, R) is (-1)^{n(n-1)/2}·e(P) for every good set R of an
    n-element P, whatever P's labels, which move bottoms and tops alike."""
    _validate_good(p, rel)
    n = p.n
    up = [0] * (2 * n)
    for x, y in rel:
        up[x] |= 1 << (n + y)
    return Poset(2 * n, tuple(up))


def _forced_pairs(q: Poset, free: int) -> list[tuple[int, int]] | None:
    """The unique perfect matching of the Hasse diagram on the elements of
    ``free``, as (bottom, top) pairs sorted by bottom, or None if there are
    zero or several. An element with one unmatched neighbour must be
    matched to it, and at height <= 2 the diagram is bipartite, so if it
    has a unique perfect matching some element has one neighbour (Kotzig
    1959): peeling such elements either matches everything or stalls."""
    nbr = [up | down for up, down in zip(q.up, q.down)]
    pairs = []
    todo = iter_bits(free)
    while todo:
        x = todo.pop()
        only = nbr[x] & free
        if free >> x & 1 and only.bit_count() == 1:
            y = only.bit_length() - 1
            free ^= 1 << x | only
            pairs.append((x, y) if q.lt(x, y) else (y, x))
            todo += iter_bits((nbr[x] | nbr[y]) & free)
    return None if free else sorted(pairs)


def decompose(q: Poset) -> Decomposition:
    """Invert the lift on a height-<=2 poset, or certify sign balance.

    Not sign-balanced iff n mod 2 elements are isolated and the rest have
    a unique Hasse perfect matching, found by ``_forced_pairs`` and kept
    as ``pairs``. Sorted by bottom, its pairs are the parts of the base:
    part i lies below part j iff bottom i lies below top j. That relation
    is acyclic, since a cycle would be an alternating cycle, and swapping
    along it would give a second perfect matching. So the pairs, with the
    isolated element as the singleton, are the one domino tableau.
    """
    if any(up and down for up, down in zip(q.up, q.down)):  # height > 2
        height = stats(q).height
        raise HeightExceeded(f"requires height at most 2, got height {height}")
    iso = q.isolated_mask
    if iso.bit_count() != q.n % 2:
        return Decomposition("sign_balanced")
    pairs = _forced_pairs(q, (1 << q.n) - 1 ^ iso)
    if pairs is None:
        return Decomposition("sign_balanced")
    part = {top: i for i, (_, top) in enumerate(pairs)}
    rel = frozenset(
        (i, part[top])
        for i, (bot, _) in enumerate(pairs)
        for top in iter_bits(q.up[bot])
    )
    base = from_covers(len(pairs), [(i, j) for i, j in rel if i != j])
    kind = "lift_plus_isolated" if iso else "lift"
    isolated = iso.bit_length() - 1 if iso else None
    return Decomposition(kind, base, rel, isolated, tuple(pairs))


def h2sb_decide(q: Poset, k: int) -> bool:
    """Decide si(q) >= k for height-<=2 q without full enumeration.

    ``decompose`` either certifies sign balance (si = 0) or returns the
    base B of the lift, whose e(B) is the sign imbalance. ``at_least_k``
    compares e(B) with k: by the exact down-set walk when B has at most
    k // (|B| + 1) down-sets, else by enumerating at most k extensions.
    """
    return _h2sb_decide(q, k)[0]


def _h2sb_decide(q: Poset, k: int) -> tuple[bool, int]:
    """``h2sb_decide`` and the extensions of B it enumerated (0 when the
    walk decided or q is sign-balanced), which criterion 9 bounds by k."""
    if k < 0:
        raise ValueError("threshold must be nonnegative")
    dec = decompose(q)
    if dec.kind == "sign_balanced":
        return k == 0, 0
    return _at_least_k(dec.base, k)


def count_f(n_total: int) -> dict:
    """Count height-<=2 classes on n_total elements with odd e, by two
    independent routes that must agree.

    Formula route: sum 2**(re-cr) over odd-e classes on half the elements.
    Direct route: count the height-<=2 classes with odd e. Both read e
    from the census values of ``generate._classes``.

    The formula counts good sets, one lift each. Two lifts of a base B
    are isomorphic exactly when an automorphism of B maps the one good
    set onto the other, so the formula counts classes only while every
    odd-e base has the trivial automorphism group. It does on this range
    (half of 11 elements rounds down to 5): every odd-e class up to 8
    elements has a discrete refined colouring. At 9 elements one odd-e
    class has three automorphisms.
    """
    from .generate import _classes

    if n_total < 0 or n_total > 11:
        raise ValueError("supported range is 0..11")
    formula = 0
    for p, e in _classes(n_total // 2, False):
        if e % 2:
            s = stats(p)
            formula += 1 << (s.re - s.cr)
    direct = sum(e % 2 for _, e in _classes(n_total, True))
    if formula != direct:
        raise VerificationError(
            f"odd-count mismatch on {n_total} elements: "
            f"formula {formula} != direct {direct}"
        )
    return {"n": n_total, "formula": formula, "direct": direct}


def count_f_q(m: int, q: int) -> int:
    """Height-<=2 classes on m elements whose e is not divisible by q,
    with e from the census values."""
    from .generate import _classes

    if m < 0 or m > 8:
        raise ValueError("supported range is 0..8")
    if q < 2:
        raise ValueError("modulus must be at least 2")
    return sum(1 for _, e in _classes(m, True) if e % q)


def odd_e_bounds(n: int) -> dict:
    """Check every odd-e height-<=2 class on 2n vertices against
    (n!)^2 <= e <= n!(2n-1)!!, built as a lift of an odd-e base.

    e is congruent to si mod 2, so a height-<=2 poset with odd e is not
    sign-balanced, and ``decompose`` returns it as lift(B, R) with
    si = e(B), so e(B) is odd. Conversely every lift of an odd-e base B
    has si = e(B) odd, hence odd e. So the odd-e classes on 2n vertices
    are the lifts of the odd-e bases on n elements over their good sets.
    Each lift's e is the walk's; it must be odd, and ``decompose`` must
    give back a base and relation set whose lift is isomorphic to it.
    Classes are the distinct canonical forms among the lifts.
    """
    from .canon import canonical_form, is_isomorphic
    from .generate import _classes

    if n < 0 or 2 * n > 12:
        raise ValueError("supported range is 2n <= 12")
    lower = math.factorial(n) ** 2
    upper = math.factorial(n) * math.prod(range(1, 2 * n, 2))
    classes: dict[bytes, int] = {}
    for base, e_base in _classes(n, False):
        if e_base % 2 == 0:
            continue
        for rel in enumerate_good_sets(base):
            lift = build_lift(base, rel)
            e = count_extensions(lift)
            if e % 2 == 0:
                raise VerificationError(
                    f"a lift of an odd-e base has even e={e} on {2 * n} vertices"
                )
            if not lower <= e <= upper:
                raise VerificationError(
                    f"odd e={e} outside [{lower}, {upper}] on {2 * n} vertices"
                )
            dec = decompose(lift)
            if dec.kind != "lift" or not is_isomorphic(
                build_lift(dec.base, dec.rel), lift
            ):
                raise VerificationError("odd-e poset failed to decompose as a lift")
            classes[canonical_form(lift)] = e
    return {
        "n": n,
        "vertices": 2 * n,
        "lower": lower,
        "upper": upper,
        "odd_e_values": sorted(set(classes.values())),
        "classes_with_odd_e": len(classes),
    }


def spectrum(max_vertices: int) -> dict:
    """Achievable e values over height-<=2 classes with at most
    max_vertices elements, with one witness poset per value, e read from
    the census values."""
    from .generate import _classes

    if max_vertices < 0 or max_vertices > 8:
        raise ValueError("supported range is 0..8")
    witnesses: dict[int, Poset] = {}
    for size in range(max_vertices + 1):
        for p, e in _classes(size, True):
            if e not in witnesses:
                witnesses[e] = p
    values = sorted(witnesses)
    top = values[-1] if values else 0
    gaps = [v for v in range(1, top) if v not in witnesses]
    return {
        "max_vertices": max_vertices,
        "values": values,
        "gaps": gaps,
        "witnesses": witnesses,
    }
