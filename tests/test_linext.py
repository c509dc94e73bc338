import random
import re
from itertools import permutations, product
from math import factorial, prod
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from posetsi import (
    InvalidExtension,
    ResourceLimit,
    antichain,
    at_least_k,
    chain,
    count_extensions,
    disjoint_union,
    enumerate_extensions,
    enumerate_posets,
    euler_numbers,
    from_covers,
    grid,
    phi,
    ruskey_criterion,
    sign,
    si_via_quotients,
    signed_count,
    stanley_criterion,
    zigzag,
)
from posetsi import linext
from posetsi.linext import _layers, forest_count
from conftest import (
    CountedRows,
    brute_label_arrays,
    brute_signed,
    inversion_sign,
    labelled_posets,
)


def test_count_fence_six():
    assert count_extensions(zigzag(6)) == 61


def test_count_chain():
    for n in range(9):
        assert count_extensions(chain(n)) == 1


def test_counts_of_six_vertex_odd_posets(six_vertex_odd):
    for expected, p in six_vertex_odd.items():
        assert count_extensions(p) == expected


def test_count_against_brute():
    for n in range(6):
        for p in enumerate_posets(n):
            total, signed = brute_signed(n, list(p.relations()))
            sc = signed_count(p)
            assert sc.total == count_extensions(p) == total
            assert sc.signed == signed
            assert abs(sc.signed) == sc.imbalance


def test_signed_count_examples(eight_cycle):
    assert signed_count(zigzag(6)).imbalance == 1
    assert signed_count(eight_cycle).imbalance == 2
    assert signed_count(antichain(2)) == (2, 0, 0)


def test_parity_invariant():
    for n in range(7):
        for p in enumerate_posets(n):
            sc = signed_count(p)
            assert (sc.total - sc.signed) % 2 == 0


def test_enumerate_extensions_basics():
    assert len(list(enumerate_extensions(antichain(3)))) == 6
    assert list(enumerate_extensions(chain(4))) == [(1, 2, 3, 4)]


def test_enumerate_is_sorted_and_complete():
    posets = [zigzag(4), grid(2, 2), disjoint_union(chain(2), chain(2))]
    posets += [p for n in range(7) for p in enumerate_posets(n)]
    for p in posets:
        got = list(enumerate_extensions(p))
        assert got == sorted(got)
        assert set(got) == set(brute_label_arrays(p.n, list(p.relations())))
        assert len(got) == len(set(got))


def test_fence_six_sign_split():
    plus = minus = 0
    for lab in enumerate_extensions(zigzag(6)):
        if sign(zigzag(6), lab) > 0:
            plus += 1
        else:
            minus += 1
    assert plus + minus == 61
    assert sorted((plus, minus)) == [30, 31]


def test_enumeration_cap():
    with pytest.raises(ResourceLimit):
        list(enumerate_extensions(antichain(6), cap=10))
    assert linext._enumerated_signed(antichain(3), cap=6) == (6, 0)
    with pytest.raises(ResourceLimit, match="extension count exceeded cap 5"):
        linext._enumerated_signed(antichain(3), cap=5)
    # the empty order has one extension, which a cap of 0 refuses
    assert list(enumerate_extensions(chain(0), cap=1)) == [()]
    for route in (enumerate_extensions, linext._enumerated_signed):
        with pytest.raises(ResourceLimit, match="extension count exceeded cap 0"):
            route(chain(0), cap=0)


def test_brute_route_matches_the_walk_on_every_class():
    # the brute route signs each prefix as it grows and the forced last
    # element on the spot; n = 0 and n = 1 have the one extension
    assert linext._enumerated_signed(antichain(0)) == (1, 1)
    assert linext._enumerated_signed(antichain(1)) == (1, 1)
    rng = random.Random(22)
    for n in range(7):
        for p in enumerate_posets(n):
            for q in (p, p.relabel(rng.sample(range(n), n))):
                sc = signed_count(q)
                assert linext._enumerated_signed(q) == (sc.total, sc.signed)


def test_downset_cap():
    with pytest.raises(ResourceLimit):
        count_extensions(antichain(24), downset_cap=100)


def test_downset_cap_counts_every_stored_downset():
    assert count_extensions(antichain(3), downset_cap=8) == 6  # 8 down-sets
    with pytest.raises(ResourceLimit):
        count_extensions(antichain(3), downset_cap=7)


def test_downset_cap_message_names_cap_layer_and_flag():
    # 1 + 24 down-sets in layers 0 and 1, then 276 in layer 2
    with pytest.raises(ResourceLimit, match=r"cap 100 in layer 2 of 24.*--downset-cap"):
        count_extensions(antichain(24), downset_cap=100)


def test_downset_cap_fires_before_the_layer_is_built():
    # layer 3 of antichain(100) holds 161700 down-sets; the cap of 10**4
    # must stop the walk inside it, not after it is stored
    p = antichain(100)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            count_extensions(p, downset_cap=10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_signed_walk_cap_message_matches_count():
    messages = []
    for count in (count_extensions, signed_count):
        with pytest.raises(ResourceLimit) as exc:
            count(antichain(24), downset_cap=100)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert re.search(r"cap 100 in layer 2 of 24.*--downset-cap", messages[1])


def test_signed_downset_cap_fires_before_the_layer_is_built():
    p = antichain(100)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            signed_count(p, downset_cap=10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_signed_count_walks_once(monkeypatch):
    walks = 0
    real = linext._layers

    def counting(*args, **kwargs):
        nonlocal walks
        walks += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(linext, "_layers", counting)
    assert signed_count(zigzag(6)) == (61, 1, 1)
    assert walks == 1


def test_stored_values_match_brute_force_on_each_downset():
    # every stored down-set D carries the number of ways to build it, with
    # the signed walk splitting them into even and odd ways (elements in
    # index order, so the sign is that of the induced labelling), and the
    # minimal elements outside D; class representatives are naturally
    # labelled (a < b in P implies a < b as integers), so the reversed
    # labelling is checked too
    reps = [p for n in range(7) for p in enumerate_posets(n)]
    flipped = [p.relabel(range(p.n - 1, -1, -1)) for p in reps]
    for p, signed in product(reps + flipped, (False, True)):
        n, full = p.n, (1 << p.n) - 1
        for k, layer in enumerate(_layers(p, signed=signed)):
            w = linext._width(k)
            for mask, value in layer.items():
                elems = [x for x in range(n) if mask >> x & 1]
                pos = {x: i for i, x in enumerate(elems)}
                rels = [(pos[a], pos[b]) for a, b in p.relations() if b in pos]
                arrays = brute_label_arrays(k, rels)
                ways = value >> n
                if signed:
                    even, odd = ways >> w, ways & ((1 << w) - 1)
                    assert even + odd == len(arrays)
                    assert even - odd == sum(map(inversion_sign, arrays))
                else:
                    assert ways == len(arrays)
                addable = [
                    x
                    for x in range(n)
                    if x not in pos and all(a in pos for a in range(n) if p.lt(a, x))
                ]
                assert value & full == sum(1 << x for x in addable)


def _recursive_orders(p):
    """The depth-first enumeration as it was written recursively: ascending
    element choice at every depth."""
    n = p.n
    full = (1 << n) - 1
    seq = []

    def rec(mask):
        if mask == full:
            yield tuple(seq)
            return
        for x in range(n):
            if not mask >> x & 1 and not p.down[x] & ~mask:
                seq.append(x)
                yield from rec(mask | 1 << x)
                seq.pop()

    return rec(0)


def test_extension_orders_match_recursive_order():
    for n in range(7):
        for p in enumerate_posets(n):
            want = []
            for order in _recursive_orders(p):
                labels = [0] * n
                for pos, x in enumerate(order):
                    labels[x] = pos + 1
                want.append(tuple(labels))
            assert list(enumerate_extensions(p)) == sorted(want)
    assert list(enumerate_extensions(antichain(0))) == [()]


def test_extension_orders_scan_no_unplaced_elements_on_a_chain():
    # each depth carries its addable set, so backing out of the one
    # extension of a chain tests no unplaced element again
    n = 300
    p = chain(n)
    p.down = rows = CountedRows(p.down)
    assert list(enumerate_extensions(p)) == [tuple(range(1, n + 1))]
    assert rows.reads <= 2 * n
    rows.reads = 0
    assert not at_least_k(p, 2)
    assert rows.reads <= 2 * n


def test_walk_lists_every_downset():
    for n in range(7):
        for p in enumerate_posets(n):
            layers = list(_layers(p))
            assert len(layers) == n + 1
            for k, layer in enumerate(layers):
                assert all(mask.bit_count() == k for mask in layer)
            brute = [
                m
                for m in range(1 << n)
                if all(not (p.down[x] & ~m) for x in range(n) if m >> x & 1)
            ]
            assert sorted(m for layer in layers for m in layer) == brute


@settings(max_examples=100, deadline=None, database=None)
@given(labelled_posets(max_n=6), st.data())
def test_through_weights_count_extensions_by_prefix(poset, data):
    n, relations = poset
    p = from_covers(n, relations)
    through = linext._through(p)
    e = brute_signed(n, relations)[0]
    # each extension passes through exactly one down-set of each size
    for k in range(n + 1):
        assert sum(w for i, w in through.items() if i.bit_count() == k) == e
    # a new maximal element over D follows some down-set I that holds D
    d = data.draw(st.sampled_from(sorted(through)))
    child = p.add_maximal(d)
    want = brute_signed(n + 1, list(child.relations()))[0]
    assert sum(w for i, w in through.items() if i & d == d) == want


@settings(max_examples=200, deadline=None, database=None)
@given(labelled_posets())
def test_walk_matches_brute_force(poset):
    n, relations = poset
    p = from_covers(n, relations)
    e, signed = brute_signed(n, relations)
    assert count_extensions(p) == e
    sc = signed_count(p)
    assert (sc.total, sc.signed) == (e, signed)
    assert linext._enumerated_signed(p) == (e, signed)
    assert si_via_quotients(p) == signed


def _is_forest(p):
    """No cover pair joins two elements that covers already connect."""
    part = list(range(p.n))

    def find(x):
        while part[x] != x:
            x = part[x]
        return x

    for x, y in p.covers():
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        part[rx] = ry
    return True


@st.composite
def labelled_forests(draw):
    """A forest on up to 8 elements: each element after the first starts
    a tree or hangs below or above an earlier one, under shuffled labels.
    A tree has one path between two elements, so its edges are covers."""
    n = draw(st.integers(0, 8))
    perm = draw(st.permutations(range(n)))
    relations = []
    for x in range(1, n):
        y = draw(st.integers(-1, x - 1))
        if y >= 0:
            a, b = (y, x) if draw(st.booleans()) else (x, y)
            relations.append((perm[a], perm[b]))
    return n, relations


@settings(max_examples=30, deadline=None, database=None)
@given(labelled_forests())
def test_forest_route_matches_brute_force(forest):
    n, relations = forest
    p = from_covers(n, relations)
    assert _is_forest(p)
    fc = forest_count(p)
    assert (fc.total, fc.signed) == brute_signed(n, relations)
    assert fc.imbalance == abs(fc.signed)


def test_forest_route_matches_the_walk_on_every_forest_class():
    rng = random.Random(16)
    forests = 0
    for n in range(9):
        for p in enumerate_posets(n):
            if not _is_forest(p):
                assert forest_count(p) is None
                continue
            forests += 1
            for q in (p, p.relabel(rng.sample(range(n), n)), p.relabel(rng.sample(range(n), n))):
                assert forest_count(q) == signed_count(q)
    assert forests == 2924


def test_forest_route_matches_the_hook_formulas():
    # a rooted forest, roots on top, and its dual share their hooks h_x,
    # the size of x's subtree. Knuth: e = n!/prod h_x. Bjorner and Wachs
    # at q = -1: si = (n//2)!/prod_{h_x even} h_x/2 when exactly n//2
    # hooks are even, else 0
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(0, 11)
        parent = [rng.randrange(-1, x) for x in range(n)]
        hook = [1] * n
        for x in reversed(range(n)):
            if parent[x] >= 0:
                hook[parent[x]] += hook[x]
        halves = [h // 2 for h in hook if h % 2 == 0]
        e = factorial(n) // prod(hook)
        si = factorial(n // 2) // prod(halves) if len(halves) == n // 2 else 0
        perm = rng.sample(range(n), n)
        below = [(perm[x], perm[parent[x]]) for x in range(n) if parent[x] >= 0]
        for p in (from_covers(n, below), from_covers(n, [(b, a) for a, b in below])):
            fc = forest_count(p)
            assert (fc.total, fc.imbalance) == (e, si)
            assert signed_count(p) == fc


def test_forest_route_counts_fences_by_the_euler_table():
    table = euler_numbers(300)
    for n in range(1, 301):
        fc = forest_count(zigzag(n))
        assert fc.total == table[n - 1]
        # a fence of odd length n >= 3 is balanced, all others have si 1
        assert fc.imbalance == (n % 2 == 0 or n == 1)
    assert forest_count(antichain(15)).total == 1307674368000


def test_forest_route_declines_a_cycle(eight_cycle):
    bowtie = from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    # fewer cover edges than elements, so only the traversal sees the cycle
    square_and_two = disjoint_union(grid(2, 2), antichain(2))
    for p in (eight_cycle, grid(2, 2), bowtie, square_and_two):
        assert forest_count(p) is None
    # the N poset's Hasse diagram is a path: it is the fence on 4 elements
    n_poset = from_covers(4, [(0, 2), (1, 2), (1, 3)])
    assert forest_count(n_poset) == signed_count(n_poset)
    assert forest_count(n_poset).total == 5
    assert forest_count(antichain(0)) == signed_count(antichain(0))


def test_at_least_k_near_chain():
    p = disjoint_union(chain(9), chain(1))  # 10 extensions
    assert at_least_k(p, 10)
    assert not at_least_k(p, 11)
    assert at_least_k(p, 0)


def test_at_least_k_enumerates_at_most_k():
    p = antichain(6)  # 64 down-sets, 720 extensions
    # below k = 7 * 64 the walk's cap k // 7 is under the 64 down-sets,
    # so at_least_k enumerates; from there on the walk answers alone
    for k, want, pulled in (
        (1, True, 1),
        (5, True, 5),
        (447, True, 447),
        (448, True, 0),
        (720, True, 0),
        (721, False, 0),
    ):
        assert linext._at_least_k(p, k) == (want, pulled)
        assert at_least_k(p, k) == want


def test_at_least_k_matches_the_walk_count(monkeypatch):
    walk = linext.count_extensions
    caps = []

    def recording(p, downset_cap):
        caps.append(downset_cap)
        return walk(p, downset_cap)

    monkeypatch.setattr(linext, "count_extensions", recording)
    walked = enumerated = 0
    for n in range(7):
        for p in enumerate_posets(n):
            e = walk(p)
            for k in (*range(10), e - 1, e, e + 1, 2 * e, 20 * e):
                caps.clear()
                decided, pulled = linext._at_least_k(p, k)
                assert decided == (e >= k)
                assert pulled <= k
                assert all(cap <= k // (n + 1) for cap in caps)
                # e >= 1, so an enumeration pulls at least one extension
                walked += k > 0 and pulled == 0
                enumerated += pulled > 0
    assert walked and enumerated


def test_at_least_k_clamps_the_walk_to_the_downset_cap(monkeypatch):
    monkeypatch.setattr(linext, "DOWNSET_CAP", 10)
    assert linext._at_least_k(antichain(6), 10**9) == (False, 720)


def test_sign_identity_and_transposition():
    p = antichain(4)
    assert sign(p, (1, 2, 3, 4)) == 1
    assert sign(p, (2, 1, 3, 4)) == -1


def test_parity_of_permutation_equals_parity_of_inverse():
    for perm in permutations(range(6)):
        inverse = [0] * 6
        for i, x in enumerate(perm):
            inverse[x] = i
        assert linext._parity(perm) == linext._parity(inverse)
        labels = tuple(x + 1 for x in perm)
        assert linext._parity(perm) == sign(antichain(6), labels)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))), st.booleans())
def test_parity_matches_pairwise_inversions(perm, as_labels):
    # element orders over 0..n-1, or label arrays over 1..n
    seq = [x + 1 for x in perm] if as_labels else perm
    assert linext._parity(seq) == inversion_sign(seq)


def test_sign_validates():
    p = chain(3)
    with pytest.raises(InvalidExtension):
        sign(p, (1, 1, 2))
    with pytest.raises(InvalidExtension):
        sign(p, (2, 1, 3))  # violates 0 < 1
    with pytest.raises(InvalidExtension):
        sign(p, (1, 2))


def test_phi_figure_swap(swap_figure):
    # labels 4,1,3 on the bottoms and 5,2,6 on the tops: the pair (3, 4)
    # sits on incomparable elements and is the least odd such pair
    before = (4, 5, 1, 2, 3, 6)
    after = (3, 5, 1, 2, 4, 6)
    assert phi(swap_figure, before) == after
    assert phi(swap_figure, after) == before
    assert sign(swap_figure, before) == -sign(swap_figure, after)


def test_phi_fixed_points(swap_figure):
    # the adapted labeling from the highlighted-matching figure
    assert phi(swap_figure, (5, 6, 1, 2, 3, 4)) == (5, 6, 1, 2, 3, 4)
    for lab in enumerate_extensions(chain(5)):
        assert phi(chain(5), lab) == lab


def test_phi_involution_sweep():
    for n in range(6):
        for p in enumerate_posets(n):
            for lab in enumerate_extensions(p):
                image = phi(p, lab)
                assert phi(p, image) == lab
                if image != lab:
                    assert sign(p, image) == -sign(p, lab)


def test_imbalance_invariant_under_relabeling():
    rng = random.Random(3)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            si = signed_count(p).imbalance
            perm = list(range(n))
            rng.shuffle(perm)
            assert signed_count(p.relabel(perm)).imbalance == si


def test_ruskey_criterion_cases():
    assert ruskey_criterion(antichain(2))
    assert ruskey_criterion(from_covers(3, [(0, 2), (1, 2)]))
    assert not ruskey_criterion(chain(2))
    assert not ruskey_criterion(chain(1))  # nothing to swap, si = 1


def test_stanley_criterion_cases():
    assert stanley_criterion(antichain(2))
    assert stanley_criterion(grid(2, 2))
    assert stanley_criterion(zigzag(3))  # chains of length 1, n odd
    assert not stanley_criterion(chain(2))
    assert not stanley_criterion(zigzag(4))


def _brute_stanley(p):
    """Every maximal chain, walked one cover at a time from each minimal
    element, has length congruent to n mod 2."""
    n = p.n
    covers = [
        [
            b
            for b in range(n)
            if p.lt(a, b) and not any(p.lt(a, c) and p.lt(c, b) for c in range(n))
        ]
        for a in range(n)
    ]

    def lengths(v):
        if not covers[v]:
            return [0]
        return [1 + k for w in covers[v] for k in lengths(w)]

    minimal = [v for v in range(n) if not any(p.lt(u, v) for u in range(n))]
    return n >= 2 and all(k % 2 == n % 2 for v in minimal for k in lengths(v))


def test_stanley_criterion_matches_chain_walk():
    for n in range(7):
        for p in enumerate_posets(n):
            assert stanley_criterion(p) == _brute_stanley(p)


def test_stanley_criterion_square_grids():
    # graded: every maximal chain has 2m - 2 edges, so only n = m*m matters
    for m in range(1, 13):
        assert stanley_criterion(grid(m, m)) == (m % 2 == 0)


def test_criteria_imply_balance():
    for n in range(7):
        for p in enumerate_posets(n):
            if ruskey_criterion(p) or stanley_criterion(p):
                assert signed_count(p).imbalance == 0


def test_grid_balance_parity():
    for m in range(2, 5):
        for n in range(2, 5):
            balanced = signed_count(grid(m, n)).imbalance == 0
            assert balanced == (m % 2 == n % 2)


def test_empty_poset_conventions():
    from posetsi import Poset

    empty = Poset(0, ())
    assert count_extensions(empty) == 1
    assert signed_count(empty) == (1, 1, 1)
