import random
from itertools import combinations, permutations, product

from posetsi import (
    antichain,
    canonical_form,
    chain,
    enumerate_posets,
    from_covers,
    is_isomorphic,
    zigzag,
)


def brute_classes(n):
    """Independent enumeration of all posets on n elements up to
    isomorphism: orient or drop each pair, keep transitive relations,
    deduplicate by the minimum relation set over all relabelings."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    reps = []
    for assign in product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (i, j), a in zip(pairs, assign):
            if a == 1:
                rel.add((i, j))
            elif a == 2:
                rel.add((j, i))
        if any(
            (a, d) not in rel
            for a, b in rel
            for c, d in rel
            if b == c
        ):
            continue
        key = min(
            tuple(sorted((p[a], p[b]) for a, b in rel))
            for p in permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            reps.append(rel)
    return reps


def test_isomorphic_relabeled_chain():
    p = chain(3)
    q = from_covers(3, [(2, 0), (0, 1)])  # chain 2 < 0 < 1
    assert is_isomorphic(p, q)


def test_non_isomorphic_easy():
    assert not is_isomorphic(zigzag(4), chain(4))
    assert not is_isomorphic(chain(3), antichain(3))


def test_quotient_shapes_not_isomorphic():
    # the two four-element quotients arising from the eight-cycle
    crown = from_covers(4, [(0, 1), (0, 3), (2, 1), (2, 3)])
    diamond = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not is_isomorphic(crown, diamond)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(11)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            base = canonical_form(p)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(p.relabel(perm)) == base


def test_canonical_form_against_brute_classes():
    for n in range(5):
        oracle = brute_classes(n)
        forms = {
            canonical_form(from_covers(n, sorted(rel))) for rel in oracle
        }
        assert len(forms) == len(oracle)


def test_twins_are_the_transpositions_that_are_automorphisms():
    # the twin rule of canonical_form and generate._children: swapping
    # u and w fixes the order exactly when their up and down rows agree,
    # and poset._twins gives each element the mask of it and such lower w
    from posetsi.poset import _twins

    rng = random.Random(13)
    for n in range(7):
        for p in enumerate_posets(n):
            for q in (p, p.relabel(rng.sample(range(n), n))):
                masks = [1 << v for v in range(n)]
                for u, w in combinations(range(n), 2):
                    swap = list(range(n))
                    swap[u], swap[w] = w, u
                    swaps = q.relabel(swap) == q
                    assert swaps == (q.up[u] == q.up[w] and q.down[u] == q.down[w])
                    if swaps:
                        masks[w] |= 1 << u
                assert _twins(q) == masks


def _reference_colors(p):
    """The refinement that re-signs every element in every round, even
    one alone in its color, until the number of colors stops growing."""
    from posetsi.poset import iter_bits

    def rank(signatures):
        order = {s: i for i, s in enumerate(sorted(set(signatures)))}
        return [order[s] for s in signatures]

    def sorted_colors(colors, mask):
        return tuple(sorted(colors[j] for j in iter_bits(mask)))

    colors = rank([
        (p.down[v].bit_count(), p.up[v].bit_count(), p.cover_up[v].bit_count())
        for v in range(p.n)
    ])
    while True:
        new = rank([
            (
                colors[v],
                sorted_colors(colors, p.up[v]),
                sorted_colors(colors, p.down[v]),
                sorted_colors(colors, p.cover_up[v]),
            )
            for v in range(p.n)
        ])
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def test_refinement_that_leaves_lone_colors_gives_the_same_colors():
    from posetsi.canon import _refined_colors

    rng = random.Random(17)
    for n in range(8):
        for p in enumerate_posets(n):
            for _ in range(2):
                q = p.relabel(rng.sample(range(n), n))
                assert _refined_colors(q) == _reference_colors(q)
    for p in (chain(300), zigzag(300), antichain(12)):
        assert _refined_colors(p) == _reference_colors(p)


def test_highly_symmetric_inputs_stay_fast():
    # twin pruning keeps antichains and stacked antichains tractable
    canonical_form(antichain(11))
    both = from_covers(
        10, [(a, b) for a in range(5) for b in range(5, 10)]
    )
    canonical_form(both)


def test_empty_poset():
    from posetsi import Poset

    assert canonical_form(Poset(0, ())) == b"\x00"
    assert is_isomorphic(Poset(0, ()), Poset(0, ()))


def test_an_element_below_v_has_a_smaller_color():
    # so it is placed before v, and a placed element never lies above the
    # one being placed: each code is one bit
    from posetsi.canon import _refined_colors

    for n in range(8):
        for p in enumerate_posets(n):
            colors = _refined_colors(p)
            for v in range(n):
                below = [u for u in range(n) if p.down[v] >> u & 1]
                assert all(colors[u] < colors[v] for u in below)


def test_forms_past_255_elements():
    assert is_isomorphic(chain(300), chain(300))
    assert not is_isomorphic(chain(300), zigzag(300))
    form = canonical_form(chain(300))
    assert form[0] == 255 and len(form) == 1 + 300 * 299 // 2
    assert form != canonical_form(zigzag(300))
    assert canonical_form(chain(255))[0] == 255  # the size byte saturates


def test_a_chain_of_1100_gets_a_form():
    # the search keeps one list of untried elements per position on an
    # explicit stack, so its depth is not bounded by the recursion limit
    from posetsi.poset import ordinal_sum

    n = 1100
    form = canonical_form(chain(n))
    assert form[0] == 255 and len(form) == 1 + n * (n - 1) // 2
    assert form == canonical_form(ordinal_sum(chain(600), chain(500)))


def test_posets_of_different_sizes_are_not_isomorphic():
    assert not is_isomorphic(chain(3), chain(4))
    assert not is_isomorphic(antichain(0), antichain(1))
