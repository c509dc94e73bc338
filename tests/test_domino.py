from itertools import permutations
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_signed, labelled_posets
from posetsi import (
    CycleError,
    DominoTableau,
    MalformedPartition,
    NotATableau,
    ResourceLimit,
    antichain,
    chain,
    count_extensions,
    disjoint_union,
    enumerate_extensions,
    enumerate_posets,
    enumerate_tableaux,
    exists_q_adapted,
    from_covers,
    grid,
    is_isomorphic,
    is_q_adapted,
    phi,
    quotient,
    sign,
    si_via_quotients,
    signed_count,
    tableau_sign,
    zigzag,
)
from posetsi import domino, linext
from posetsi.h2 import build_lift, good_base
from posetsi.poset import _components, iter_bits


def test_fence_six_has_unique_tableau():
    tabs = enumerate_tableaux(zigzag(6))
    assert tabs == [DominoTableau(((0, 1), (2, 3), (4, 5)), None)]
    # its quotient is a three-chain, consistent with si = e(chain) = 1
    assert is_isomorphic(quotient(zigzag(6), tabs[0]), chain(3))
    assert si_via_quotients(zigzag(6)) == 1


def test_swap_figure_quotient_is_chain_plus_point(swap_figure):
    tabs = enumerate_tableaux(swap_figure)
    assert len(tabs) == 1
    q = quotient(swap_figure, tabs[0])
    assert is_isomorphic(q, disjoint_union(chain(2), chain(1)))
    assert count_extensions(q) == 3
    assert si_via_quotients(swap_figure) == 3
    assert signed_count(swap_figure).imbalance == 3


def test_no_tableau_poset(no_tableau_poset):
    assert enumerate_tableaux(no_tableau_poset) == []
    assert si_via_quotients(no_tableau_poset) == 0
    assert signed_count(no_tableau_poset).imbalance == 0


def _partitions(p):
    """Every partition into cover pairs plus, for odd n, one singleton
    that need not be maximal."""
    covers = p.covers()

    def rec(left, pairs, singleton):
        if not left:
            yield DominoTableau(tuple(sorted(pairs)), singleton)
            return
        u = min(left)
        for a, b in covers:
            if u in (a, b) and a in left and b in left:
                yield from rec(left - {a, b}, pairs + [(a, b)], singleton)
        if singleton is None and p.n % 2:
            yield from rec(left - {u}, pairs, u)

    return rec(frozenset(range(p.n)), [], None)


def _brute_is_tableau(p, t):
    """The module docstring's definition: a maximal singleton, and some
    ordering of the parts whose every prefix is a down-set."""
    if t.singleton is not None and p.up[t.singleton]:
        return False
    parts = list(t.pairs) + ([(t.singleton,)] if t.singleton is not None else [])
    for order in permutations(parts):
        placed = set()
        for part in order:
            placed |= set(part)
            if any(p.lt(a, b) and a not in placed for b in placed for a in range(p.n)):
                break
        else:
            return True
    return False


def _accepted(p, t):
    """True iff ``quotient`` accepts t as a tableau; MalformedPartition
    passes through."""
    try:
        quotient(p, t)
    except NotATableau:
        return False
    return True


def _adapted_extension(p, t):
    """Labels 2i - 1 and 2i on the i-th part of the quotient's
    lexicographically least element order (ascending choice), each pair
    bottom first. That schedules the singleton part, maximal and last by
    index, last, with label n."""
    parts = domino._parts(t)
    q = quotient(p, t)
    order = min(
        sorted(range(q.n), key=lab.__getitem__) for lab in enumerate_extensions(q)
    )
    labels = [0] * p.n
    for pos, x in enumerate(x for v in order for x in parts[v]):
        labels[x] = pos + 1
    return tuple(labels)


def _reference_quotient(p, t):
    """Quotient from the parts-mapped strict relations."""
    parts = list(t.pairs) + ([(t.singleton,)] if t.singleton is not None else [])
    part_of = {x: k for k, part in enumerate(parts) for x in part}
    edges = {
        (part_of[a], part_of[b])
        for a, b in p.relations()
        if part_of[a] != part_of[b]
    }
    return from_covers(len(parts), edges)


def test_is_tableau_and_quotient_match_definition():
    tried = tableaux = 0
    for n in range(7):
        for p in enumerate_posets(n):
            partitions = list(_partitions(p))
            assert sorted(domino._cover_matchings(p)) == sorted(
                t for t in partitions if t.singleton is None or not p.up[t.singleton]
            )
            for t in partitions:
                tried += 1
                ok = _brute_is_tableau(p, t)
                assert _accepted(p, t) == ok
                if ok:
                    tableaux += 1
                    assert quotient(p, t) == _reference_quotient(p, t)
                else:
                    with pytest.raises(NotATableau):
                        quotient(p, t)
                    if t.singleton is None or not p.up[t.singleton]:
                        with pytest.raises(CycleError):
                            _reference_quotient(p, t)
    assert 0 < tableaux < tried


def test_enumerate_tableaux_builds_each_quotient_once(monkeypatch, eight_cycle):
    original = domino.quotient
    calls = 0

    def counting(p, t):
        nonlocal calls
        calls += 1
        return original(p, t)

    monkeypatch.setattr(domino, "quotient", counting)
    for p in (zigzag(6), eight_cycle, disjoint_union(chain(2), chain(1))):
        calls = 0
        enumerate_tableaux(p)
        assert calls == sum(1 for _ in domino._cover_matchings(p))


def test_si_via_quotients_validates_no_labels(monkeypatch):
    original = linext._validate
    calls = 0

    def counting(p, labels):
        nonlocal calls
        calls += 1
        return original(p, labels)

    monkeypatch.setattr(linext, "_validate", counting)
    assert si_via_quotients(grid(3, 4)) == signed_count(grid(3, 4)).signed == -2
    assert calls == 0


def test_tableau_sign_matches_validated_sign():
    # reference: the validating sign of the adapted label array
    for n in range(8):
        for p in enumerate_posets(n):
            for t in enumerate_tableaux(p):
                assert tableau_sign(p, t) == sign(p, _adapted_extension(p, t))


def test_tableau_sign_is_the_parity_of_its_parts_in_any_order():
    # moving a pair past another part is an even permutation
    rng = random.Random(13)
    for n in range(8):
        for p in enumerate_posets(n):
            for t in enumerate_tableaux(p):
                parts = domino._parts(t)
                rng.shuffle(parts)
                order = [x for part in parts for x in part]
                assert tableau_sign(p, t) == linext._parity(order)


def test_matching_that_is_not_a_tableau(no_tableau_poset):
    # matching (a,d)(b,e)(c,f): neither pair can be scheduled first
    t = DominoTableau(((0, 3), (1, 4), (2, 5)), None)
    assert not _accepted(no_tableau_poset, t)
    with pytest.raises(NotATableau):
        quotient(no_tableau_poset, t)


def test_singleton_overlapping_a_pair():
    for t in (DominoTableau(((0, 1),), 1), DominoTableau(((1, 2),), 1)):
        with pytest.raises(MalformedPartition, match="parts overlap"):
            quotient(chain(3), t)


def test_eight_cycle_tableaux(eight_cycle):
    tabs = enumerate_tableaux(eight_cycle)
    assert len(tabs) == 2
    counts = sorted(count_extensions(quotient(eight_cycle, t)) for t in tabs)
    assert counts == [2, 4]
    signs = sorted(tableau_sign(eight_cycle, t) for t in tabs)
    assert signs == [-1, 1]
    assert si_via_quotients(eight_cycle) == 2


def _recursive_cover_matchings(p):
    """The recursive walk that ``_cover_matchings`` replaced, without its
    cap: the reference for its yield order."""
    if p.n == 0:
        yield DominoTableau((), None)
        return
    pairs = []

    def rec(uncovered, singleton):
        if uncovered == 0:
            yield DominoTableau(tuple(sorted(pairs)), singleton)
            return
        u = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered ^ (1 << u)
        for w in iter_bits(p.cover_up[u] & rest):
            pairs.append((u, w))
            yield from rec(rest ^ (1 << w), singleton)
            pairs.pop()
        for w in iter_bits(p.down[u] & rest):
            if p.cover_up[w] >> u & 1:
                pairs.append((w, u))
                yield from rec(rest ^ (1 << w), singleton)
                pairs.pop()
        if singleton is None and p.n % 2 == 1 and not p.up[u]:
            yield from rec(rest, u)

    yield from rec((1 << p.n) - 1, None)


def test_cover_matchings_keep_the_recursive_order():
    for n in range(7):
        for p in enumerate_posets(n):
            assert list(domino._cover_matchings(p)) == list(
                _recursive_cover_matchings(p)
            )


def test_tableaux_are_sorted_where_the_walk_is_not():
    # a diamond with bottom 1 and top 0: the walk covers 0 first, as a top
    p = from_covers(4, [(1, 2), (1, 3), (2, 0), (3, 0)])
    walked = [t.pairs for t in domino._cover_matchings(p)]
    assert walked == [((1, 3), (2, 0)), ((1, 2), (3, 0))]
    assert [t.pairs for t in enumerate_tableaux(p)] == sorted(walked)


def test_cover_matchings_of_a_long_chain():
    # 1,050 parts deep, past the default recursion limit
    [t] = domino._cover_matchings(chain(2100))
    assert t.pairs == tuple((i, i + 1) for i in range(0, 2100, 2))
    assert t.singleton is None


def _tableau_sum(p):
    """The sum over the listed tableaux of sign times adapted count."""
    terms = (domino._term(t, quotient(p, t)) for t in enumerate_tableaux(p))
    return sum(sgn * count for sgn, count in terms)


def test_matching_cap(monkeypatch, eight_cycle):
    # the eight-cycle has exactly two cover matchings, and the walk reads
    # the cap when it runs
    monkeypatch.setattr(domino, "MATCHING_CAP", 2)
    assert _tableau_sum(eight_cycle) == 2
    monkeypatch.setattr(domino, "MATCHING_CAP", 1)
    with pytest.raises(ResourceLimit, match="matching count exceeded cap 1"):
        enumerate_tableaux(eight_cycle)


def test_matching_cap_fires_before_any_quotient(monkeypatch, eight_cycle):
    calls = 0
    original = domino.quotient

    def counting(p, t):
        nonlocal calls
        calls += 1
        return original(p, t)

    monkeypatch.setattr(domino, "quotient", counting)
    monkeypatch.setattr(domino, "MATCHING_CAP", 1)
    with pytest.raises(ResourceLimit, match="matching count exceeded cap 1"):
        enumerate_tableaux(eight_cycle)
    assert calls == 0


def test_cover_matchings_end_dead_branches_early(monkeypatch):
    # on a lift the lowest bottom can pair with many tops, and all but one
    # choice strand an element; a walk that follows those branches to
    # their end makes 90,300 calls here
    p = build_lift(chain(300), good_base(chain(300)))
    calls = 0

    def counting(mask):
        nonlocal calls
        calls += 1
        return iter_bits(mask)

    monkeypatch.setattr(domino, "iter_bits", counting)
    [t] = domino._cover_matchings(p)
    assert t.pairs == tuple((x, 300 + x) for x in range(300))
    assert calls <= 10 * 300


def test_eight_cycle_quotients_not_isomorphic(eight_cycle):
    t1, t2 = enumerate_tableaux(eight_cycle)
    q1 = quotient(eight_cycle, t1)
    q2 = quotient(eight_cycle, t2)
    assert not is_isomorphic(q1, q2)
    # one is two points under two points, the other a diamond
    crown = from_covers(4, [(0, 1), (0, 3), (2, 1), (2, 3)])
    diamond = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert sorted(
        [is_isomorphic(q1, crown), is_isomorphic(q1, diamond)]
    ) == [False, True]
    assert sorted(
        [is_isomorphic(q2, crown), is_isomorphic(q2, diamond)]
    ) == [False, True]


def test_disjoint_two_chains_forced_matching():
    p = disjoint_union(disjoint_union(chain(2), chain(2)), chain(2))
    tabs = enumerate_tableaux(p)
    assert len(tabs) == 1
    assert is_isomorphic(quotient(p, tabs[0]), antichain(3))
    assert tableau_sign(p, tabs[0]) == 1


def test_malformed_partitions():
    p = zigzag(4)
    with pytest.raises(MalformedPartition):
        _accepted(p, DominoTableau(((0, 3),), None))  # not a cover pair
    with pytest.raises(MalformedPartition):
        _accepted(p, DominoTableau(((0, 1),), None))  # does not cover
    with pytest.raises(MalformedPartition):
        _accepted(p, DominoTableau(((0, 1), (2, 1)), None))  # overlap
    for pair in ((5, 1), (-1, 1)):  # out of range
        with pytest.raises(MalformedPartition, match="not a cover pair"):
            _accepted(p, DominoTableau((pair,), None))
    with pytest.raises(MalformedPartition, match="singleton 5 is out of range"):
        _accepted(p, DominoTableau(((0, 1),), 5))


def test_non_maximal_singleton():
    p = chain(3)
    assert not _accepted(p, DominoTableau(((1, 2),), 0))
    with pytest.raises(NotATableau, match="singleton 0 is not maximal"):
        quotient(p, DominoTableau(((1, 2),), 0))


def test_singleton_tableaux_odd_count():
    p = disjoint_union(chain(2), chain(1))
    tabs = enumerate_tableaux(p)
    assert tabs == [DominoTableau(((0, 1),), 2)]
    assert domino._term(tabs[0], quotient(p, tabs[0]))[1] == 1
    assert si_via_quotients(p) == 1
    assert signed_count(p).imbalance == 1


def test_adapted_extension_properties(swap_figure):
    for p in (zigzag(6), swap_figure, chain(2), disjoint_union(chain(2), chain(1))):
        for t in enumerate_tableaux(p):
            lab = _adapted_extension(p, t)
            assert phi(p, lab) == lab  # always a fixed point
            for bot, top in t.pairs:
                assert lab[top] == lab[bot] + 1
                assert lab[bot] % 2 == 1
            if t.singleton is not None:
                assert lab[t.singleton] == p.n


def test_chain_two_adapted():
    t = enumerate_tableaux(chain(2))[0]
    assert _adapted_extension(chain(2), t) == (1, 2)


def test_adapted_extensions_share_sign():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            for t in enumerate_tableaux(p):
                signs = set()
                hits = 0
                for lab in enumerate_extensions(p):
                    if _adapted_to(p, lab, t):
                        signs.add(sign(p, lab))
                        hits += 1
                assert len(signs) == 1
                assert hits == domino._term(t, quotient(p, t))[1]
                assert signs == {tableau_sign(p, t)}


def _adapted_to(p, labels, t):
    for bot, top in t.pairs:
        if labels[top] != labels[bot] + 1 or labels[bot] % 2 == 0:
            return False
    return t.singleton is None or labels[t.singleton] == p.n


def test_quotient_route_matches_signed_dp():
    for n in range(7):
        for p in enumerate_posets(n):
            assert si_via_quotients(p) == signed_count(p).signed


def test_quotient_route_counts_e_by_the_walk_past_peel_n():
    # grid:3:30 less its two corners has 88 elements, over PEEL_N, so the
    # planner's e of that part takes the walk
    from posetsi import plan

    p = grid(3, 30)
    assert plan.PEEL_N < p.n - 2
    want = (signed_count(p).signed, count_extensions(p), "split + quotient")
    assert plan.signed(p) == want


def test_quotient_walk_matches_the_tableau_sum():
    rng = random.Random(17)
    checked = 0
    for n in range(8):
        for p in enumerate_posets(n):
            for q in (p, p.relabel(rng.sample(range(n), n)), p.relabel(rng.sample(range(n), n))):
                assert si_via_quotients(q) == _tableau_sum(q)
                checked += 1
    assert checked == 3 * 2451  # the classes with n <= 7


@settings(max_examples=40, deadline=None, database=None)
@given(labelled_posets(max_n=8, max_pairs=10))
def test_quotient_walk_matches_brute_force(poset):
    n, relations = poset
    assert si_via_quotients(from_covers(n, relations)) == brute_signed(n, relations)[1]


def test_quotient_walk_cap_counts_every_stored_downset():
    # chain(4) reaches three down-sets of even size: {}, {0, 1} and all
    assert si_via_quotients(chain(4), downset_cap=3) == 1
    with pytest.raises(ResourceLimit, match=r"cap 2 in layer 4 of 4.*--downset-cap"):
        si_via_quotients(chain(4), downset_cap=2)
    # a fence's one matching reaches one down-set per domino, plus the empty one
    assert si_via_quotients(zigzag(1000), downset_cap=501) == 1
    with pytest.raises(ResourceLimit, match=r"cap 500 in layer 1000 of 1000.*--downset-cap"):
        si_via_quotients(zigzag(1000), downset_cap=500)


def test_quotient_walk_on_a_long_chain():
    # 1,050 dominoes, past the default recursion limit
    assert si_via_quotients(chain(2100)) == 1
    assert si_via_quotients(chain(2101)) == 1


def test_more_minimal_than_maximal_blocks_tableaux():
    # height-2, no isolated vertices: each tableau pair is one minimal
    # plus one maximal, so an excess of minimals rules tableaux out
    from posetsi import stats

    for n in range(1, 7, 2):
        for p in enumerate_posets(n, max_height=2):
            if p.isolated_mask:
                continue
            n_min = bin(p.minimal_mask).count("1")
            n_max = sum(1 for up in p.up if not up)
            if n_min > n_max:
                assert enumerate_tableaux(p) == []


def test_two_adapted_means_phi_fixed():
    for n in range(6):
        for p in enumerate_posets(n):
            for lab in enumerate_extensions(p):
                assert is_q_adapted(p, lab, 2) == (phi(p, lab) == lab)


def test_antichain_three_not_three_adapted():
    p = antichain(3)
    for lab in enumerate_extensions(p):
        assert not is_q_adapted(p, lab, 3)
    assert not exists_q_adapted(p, 3)
    assert count_extensions(p) % 3 == 0  # consistent with the divisibility lemma


@pytest.mark.parametrize("q", [1, 0, -2])
def test_q_adapted_needs_blocks_of_two_or_more(q):
    with pytest.raises(ValueError):
        is_q_adapted(chain(2), (0, 1), q)
    with pytest.raises(ValueError):
        exists_q_adapted(chain(2), q)


def test_block_connectivity_matches_hasse_components():
    from posetsi import stats

    blocks = 0
    for n in range(7):
        for p in enumerate_posets(n):
            for block in range(1, 1 << n):
                sub = p.subposet(list(iter_bits(block)))
                connected = len(_components(p, block)) == 1
                assert connected == (stats(sub).components <= 1)
                blocks += 1
    assert blocks == 22269


def test_q_adapted_existence_sweep():
    for n in range(6):
        for p in enumerate_posets(n):
            for q in (2, 3, 5):
                if count_extensions(p) % q != 0:
                    assert exists_q_adapted(p, q)


def test_q_adapted_existence_matches_the_brute_route_and_lists_nothing(monkeypatch):
    classes = [p for n in range(7) for p in enumerate_posets(n)]
    qs = (2, 3, 4, 5)
    brute = [
        any(is_q_adapted(p, lab, q) for lab in enumerate_extensions(p))
        for p in classes
        for q in qs
    ]
    assert not hasattr(linext, "_extension_orders")
    assert not hasattr(linext, "_labels_of_order")

    def listing(*args, **kwargs):
        raise AssertionError("exists_q_adapted listed extensions")

    monkeypatch.setattr(linext, "enumerate_extensions", listing)
    monkeypatch.setattr(linext, "_enumerated_signed", listing)
    assert [exists_q_adapted(p, q) for p in classes for q in qs] == brute


@settings(max_examples=100, deadline=None, database=None)
@given(labelled_posets(max_n=6), st.sampled_from([2, 3, 4]))
def test_q_adapted_existence_matches_the_brute_route_on_labelled_orders(poset, q):
    p = from_covers(*poset)
    brute = any(is_q_adapted(p, lab, q) for lab in enumerate_extensions(p))
    assert exists_q_adapted(p, q) == brute


def test_q_adapted_existence_cap_counts_every_held_downset(monkeypatch):
    # the empty down-set is seen, and the first step holds the singletons
    monkeypatch.setattr(domino, "DOWNSET_CAP", 5)
    with pytest.raises(ResourceLimit, match=r"cap 5 in layer 1 of 8.*--downset-cap"):
        exists_q_adapted(antichain(8), 2)
    # on chain(4), {} and {0, 1} are pushed while {0, 1, 2} is grown
    monkeypatch.setattr(domino, "DOWNSET_CAP", 3)
    assert exists_q_adapted(chain(4), 2)
    monkeypatch.setattr(domino, "DOWNSET_CAP", 2)
    with pytest.raises(ResourceLimit, match=r"cap 2 in layer 3 of 4.*--downset-cap"):
        exists_q_adapted(chain(4), 2)


def test_q_adapted_existence_on_disjoint_chains_is_fast():
    # 3**10 down-sets, and the first blocks tried are connected
    p = chain(2)
    for _ in range(9):
        p = disjoint_union(p, chain(2))
    start = time.perf_counter()
    assert exists_q_adapted(p, 2)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q", [2, 3])
def test_q_adapted_existence_on_a_long_fence_is_fast(q):
    # the 16-element fence has 19,391,512,145 extensions, too many to
    # list, but few down-sets per layer
    start = time.perf_counter()
    assert exists_q_adapted(zigzag(16), q)
    assert time.perf_counter() - start < 1


def test_empty_poset_tableau():
    from posetsi import Poset

    empty = Poset(0, ())
    assert enumerate_tableaux(empty) == [DominoTableau((), None)]
    assert si_via_quotients(empty) == 1
