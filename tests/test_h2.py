from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from posetsi import (
    BadGoodSet,
    HeightExceeded,
    Poset,
    VerificationError,
    antichain,
    build_lift,
    canonical_form,
    chain,
    count_extensions,
    count_f,
    count_f_q,
    decompose,
    disjoint_union,
    enumerate_good_sets,
    enumerate_posets,
    from_covers,
    good_base,
    h2sb_decide,
    is_isomorphic,
    odd_e_bounds,
    signed_count,
    spectrum,
    stats,
    zigzag,
)
from posetsi import domino, h2, plan


def test_good_set_counts():
    assert len(list(enumerate_good_sets(chain(3)))) == 2
    assert len(list(enumerate_good_sets(chain(4)))) == 8
    for n in range(1, 5):
        assert len(list(enumerate_good_sets(antichain(n)))) == 1


def test_good_base_contents():
    base = good_base(chain(3))
    assert (0, 0) in base and (1, 1) in base
    assert (0, 1) in base and (1, 2) in base
    assert (0, 2) not in base


def test_bad_good_sets():
    p = chain(3)
    with pytest.raises(BadGoodSet):
        build_lift(p, frozenset({(0, 0), (1, 1), (2, 2)}))  # covers missing
    with pytest.raises(BadGoodSet):
        build_lift(p, good_base(p) | {(2, 0)})  # outside the order
    with pytest.raises(BadGoodSet):
        build_lift(antichain(2), good_base(antichain(2)) | {(0, 1)})
    # pairs outside the base: one would index past the rows, the other
    # would wrap around to a top and build a height-3 poset
    with pytest.raises(BadGoodSet, match=r"pair \(5, 7\) is outside 0\.\.2"):
        build_lift(p, good_base(p) | {(5, 7)})
    with pytest.raises(BadGoodSet, match=r"pair \(-3, 2\) is outside 0\.\.2"):
        build_lift(p, good_base(p) | {(-3, 2)})


def test_bad_good_set_names_its_smallest_pair():
    # equal sets built in different orders can iterate differently
    p = chain(6)
    for bad, msg in (
        ([(1, 0), (5, 3), (4, 2)], r"pair \(1, 0\) leaves the order"),
        ([(9, 0), (7, 8), (-1, 3)], r"pair \(-1, 3\) is outside 0\.\.5"),
    ):
        a = frozenset([*good_base(p), *bad])
        b = frozenset([*bad[::-1], *sorted(good_base(p), reverse=True)])
        assert a == b
        for rel in (a, b):
            with pytest.raises(BadGoodSet, match=msg):
                build_lift(p, rel)


def test_lift_of_point_is_two_chain():
    lifted = build_lift(chain(1), good_base(chain(1)))
    assert lifted == chain(2) or is_isomorphic(lifted, chain(2))


def test_lift_examples_match_six_vertex_posets(six_vertex_odd):
    base = disjoint_union(chain(1), chain(2))
    [rel] = list(enumerate_good_sets(base))
    lifted = build_lift(base, rel)
    assert is_isomorphic(lifted, six_vertex_odd[75])
    assert count_extensions(lifted) == 75

    got = sorted(
        count_extensions(build_lift(chain(3), rel))
        for rel in enumerate_good_sets(chain(3))
    )
    assert got == [57, 61]


def test_lift_height_and_structure():
    for n in range(4):
        for p in enumerate_posets(n):
            for rel in enumerate_good_sets(p):
                lifted = build_lift(p, rel)
                assert lifted.n == 2 * p.n
                if p.n:
                    assert stats(lifted).height == 2
                # bottoms are 0..n-1, tops n..2n-1, diagonal forced
                for x in range(p.n):
                    assert lifted.lt(x, p.n + x)


def test_main_identity_small():
    for n in range(4):
        for p in enumerate_posets(n):
            e = count_extensions(p)
            for rel in enumerate_good_sets(p):
                assert signed_count(build_lift(p, rel)).imbalance == e


def test_lift_lemma_with_its_sign():
    # every good set of every class with at most 5 elements: 404 lifts
    pairs = 0
    for n in range(6):
        for p in enumerate_posets(n):
            want = (-1) ** (n * (n - 1) // 2) * count_extensions(p)
            for rel in enumerate_good_sets(p):
                lifted = build_lift(p, rel)
                assert signed_count(lifted).signed == want
                assert plan.signed(lifted)[0] == want
                pairs += 1
    assert pairs == 404


def test_lift_injective_up_to_pair_isomorphism():
    # count lift classes = count (P, R) orbits under automorphisms of P
    for n in range(5):
        for p in enumerate_posets(n):
            autos = [
                perm
                for perm in permutations(range(p.n))
                if p.relabel(perm) == p
            ]
            rels = list(enumerate_good_sets(p))
            orbits = set()
            for rel in rels:
                orbits.add(
                    min(
                        tuple(sorted((perm[a], perm[b]) for a, b in rel))
                        for perm in autos
                    )
                )
            forms = {canonical_form(build_lift(p, rel)) for rel in rels}
            assert len(forms) == len(orbits)


def test_decompose_round_trip():
    for n in range(5):
        for p in enumerate_posets(n):
            for rel in enumerate_good_sets(p):
                lifted = build_lift(p, rel)
                dec = decompose(lifted)
                assert dec.kind == "lift"
                assert is_isomorphic(dec.base, p)
                assert is_isomorphic(build_lift(dec.base, dec.rel), lifted)


def test_decompose_figure_poset(six_vertex_odd):
    dec = decompose(six_vertex_odd[75])
    assert dec.kind == "lift"
    assert is_isomorphic(dec.base, disjoint_union(chain(2), chain(1)))


def test_decompose_balanced_cases(no_tableau_poset):
    assert decompose(no_tableau_poset).kind == "sign_balanced"
    assert decompose(antichain(3)).kind == "sign_balanced"
    assert decompose(antichain(4)).kind == "sign_balanced"


def _reference_decompose(q):
    """(kind, base, rel) by the route ``decompose`` replaced: set the one
    isolated element aside when n is odd, walk the cover matchings for a
    unique one, take its quotient and scan every pair of parts for rel."""
    if q.n % 2:
        iso = q.isolated_mask
        if iso.bit_count() != 1:
            return "sign_balanced", None, None
        v = iso.bit_length() - 1
        q = q.subposet(x for x in range(q.n) if x != v)
    matchings = list(islice(domino._cover_matchings(q), 2))
    if len(matchings) != 1:
        return "sign_balanced", None, None
    [t] = matchings
    rel = frozenset(
        (i, j)
        for i, (bot, _) in enumerate(t.pairs)
        for j, (_, top) in enumerate(t.pairs)
        if q.lt(bot, top)
    )
    return "lift", domino.quotient(q, t), rel


def _assert_matches_reference(q):
    dec = decompose(q)
    kind, base, rel = _reference_decompose(q)
    if dec.kind == "lift_plus_isolated":
        assert kind == "lift" and q.isolated_mask == 1 << dec.isolated
    else:
        assert dec.kind == kind and dec.isolated is None
    assert (dec.base, dec.rel) == (base, rel)


def test_unique_cover_perfect_matching_is_a_tableau():
    # at height <= 2 a cycle in the quotient would be an alternating cycle
    # and give a second perfect matching, so decompose needs no fallback;
    # its peeling pass gives the same base and rel as the matching walk
    unique = 0
    for n in range(9):
        for q in enumerate_posets(n, max_height=2):
            _assert_matches_reference(q)
            if n % 2:
                continue
            matchings = list(islice(domino._cover_matchings(q), 2))
            if len(matchings) == 1:
                unique += 1
                domino.quotient(q, matchings[0])  # raises NotATableau if not
                assert decompose(q).kind == "lift"
    assert unique == 41


@st.composite
def _relabelled_lifts(draw):
    """A lift of a random base on up to 7 elements, sometimes with an
    isolated element, sometimes with one bottom-top relation toggled,
    under a random relabelling."""
    m = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = from_covers(m, [pr for pr, keep in zip(pairs, kept) if keep])
    extras = sorted(set(base.relations()) - good_base(base))
    chosen = draw(st.sets(st.sampled_from(extras))) if extras else set()
    up = list(build_lift(base, good_base(base) | chosen).up)
    if m and draw(st.booleans()):
        x, y = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        up[x] ^= 1 << (m + y)
    if draw(st.booleans()):
        up.append(0)
    perm = draw(st.permutations(range(len(up))))
    return Poset(len(up), tuple(up)).relabel(perm)


@settings(max_examples=300, deadline=None)
@given(_relabelled_lifts())
def test_decompose_matches_the_matching_walk(q):
    _assert_matches_reference(q)


def test_decompose_large_lift_exactly():
    # bottoms are 0..n-1 in the lift, so the base comes back verbatim
    base = zigzag(2000)
    dec = decompose(build_lift(base, good_base(base)))
    assert dec.kind == "lift"
    assert dec.base == base
    assert dec.rel == good_base(base)


def test_decompose_with_isolated_vertex():
    base = zigzag(2)
    lifted = build_lift(base, good_base(base))
    padded = disjoint_union(lifted, chain(1))
    dec = decompose(padded)
    assert dec.kind == "lift_plus_isolated"
    assert dec.isolated == padded.n - 1
    assert is_isomorphic(dec.base, base)


def test_decompose_height_guard():
    message = "requires height at most 2, got height 3"
    with pytest.raises(HeightExceeded, match=message):
        decompose(chain(3))
    with pytest.raises(HeightExceeded, match=message):
        h2sb_decide(chain(3), 1)


def test_h2sb_pinned_values(six_vertex_odd, no_tableau_poset):
    # the six-vertex poset with e = 61 is the lift of a three-chain, so
    # its imbalance is e(chain) = 1, not 61 (brute force agrees)
    assert signed_count(six_vertex_odd[61]).imbalance == 1
    assert h2sb_decide(six_vertex_odd[61], 1)
    assert not h2sb_decide(six_vertex_odd[61], 2)
    assert not h2sb_decide(no_tableau_poset, 1)
    assert h2sb_decide(no_tableau_poset, 0)
    # a lift plus an isolated vertex: si is e of the base, E_4 = 5
    padded = disjoint_union(build_lift(zigzag(4), good_base(zigzag(4))), chain(1))
    assert h2sb_decide(padded, 5)
    assert not h2sb_decide(padded, 6)
    # the empty poset has one (empty) extension, so si = 1
    assert [h2sb_decide(Poset(0, ()), k) for k in range(3)] == [True, True, False]


def test_h2sb_large_threshold_via_lift():
    # a twelve-element lift of the six-element fence has si = 61; its
    # base has 21 down-sets, more than 61 // 7, so the decider resolves
    # k = 61 vs 62 by enumerating at most k extensions of the base, far
    # beyond anything brute force would check
    lifted = build_lift(zigzag(6), good_base(zigzag(6)))
    assert h2sb_decide(lifted, 61)
    assert not h2sb_decide(lifted, 62)


def test_h2sb_decides_a_large_lift_by_the_walk():
    # the base has 256 down-sets, at most 40,320 // 9, so the down-set
    # walk decides and no extension is enumerated
    lifted = build_lift(antichain(8), good_base(antichain(8)))
    assert h2._h2sb_decide(lifted, 40320) == (True, 0)
    assert h2._h2sb_decide(lifted, 40321) == (False, 0)
    assert h2sb_decide(lifted, 40320)
    assert not h2sb_decide(lifted, 40321)


def test_h2sb_matches_brute():
    for n in range(7):
        for p in enumerate_posets(n, max_height=2):
            si = signed_count(p).imbalance
            for k in range(7):
                assert h2sb_decide(p, k) == (si >= k)


def test_count_f_values():
    assert count_f(2) == {"n": 2, "formula": 1, "direct": 1}
    assert count_f(6) == {"n": 6, "formula": 3, "direct": 3}
    assert count_f(7) == {"n": 7, "formula": 3, "direct": 3}


def test_count_f_eight_in_bounds():
    rep = count_f(8)
    assert rep["formula"] == rep["direct"]
    assert 8 < rep["formula"] < 64


def test_count_f_q_values():
    assert count_f_q(6, 2) == 3
    for q in (3, 5, 7):
        assert count_f_q(2, q) == 2  # the two-chain (e=1) and two points (e=2)
    assert count_f_q(4, 3) <= sum(1 for _ in enumerate_posets(4, max_height=2))


def test_odd_e_bounds_tiny():
    rep = odd_e_bounds(1)
    assert rep["odd_e_values"] == [1]
    assert rep["lower"] == rep["upper"] == 1


def test_odd_e_bounds_small():
    rep = odd_e_bounds(2)
    assert rep["lower"] == 4 and rep["upper"] == 6
    assert rep["odd_e_values"] == [5]
    rep = odd_e_bounds(3)
    assert rep["lower"] == 36 and rep["upper"] == 90
    assert rep["odd_e_values"] == [57, 61, 75]


def test_odd_e_bounds_walks_matchings_once_per_class(monkeypatch):
    from posetsi import h2

    calls = 0
    real = h2._forced_pairs

    def counting(q, free):
        nonlocal calls
        calls += 1
        return real(q, free)

    monkeypatch.setattr(h2, "_forced_pairs", counting)
    rep = odd_e_bounds(4)
    assert rep["classes_with_odd_e"] == 13
    assert calls == 13


def test_odd_e_bounds_checks_the_returned_lift(monkeypatch):
    from posetsi import h2

    real = h2.decompose

    def minimal_rel(q):
        dec = real(q)
        return h2.Decomposition(dec.kind, dec.base, good_base(dec.base))

    monkeypatch.setattr(h2, "decompose", minimal_rel)
    with pytest.raises(VerificationError):
        odd_e_bounds(3)


def test_count_f_bases_have_discrete_colourings():
    # the formula route counts good sets, which are classes only while no
    # odd-e base on at most 11 // 2 elements has a nontrivial automorphism
    from posetsi.canon import _refined_colors
    from posetsi.generate import _classes

    for m in range(6):
        for base, e in _classes(m, False):
            if e % 2:
                assert sorted(_refined_colors(base)) == list(range(m))


def test_count_f_raises_when_its_routes_disagree(monkeypatch):
    from posetsi import h2

    real = h2.stats
    monkeypatch.setattr(h2, "stats", lambda p: real(p)._replace(re=real(p).re + 1))
    with pytest.raises(VerificationError, match="formula 6 != direct 3"):
        count_f(6)


def test_odd_e_bounds_raises_on_a_count_out_of_bounds(monkeypatch):
    # e of each lift is the walk's, read through h2's ``count_extensions``
    real = h2.count_extensions
    monkeypatch.setattr(h2, "count_extensions", lambda p: real(p) + 1000)
    with pytest.raises(VerificationError, match=r"odd e=1005 outside \[4, 6\] on 4"):
        odd_e_bounds(2)


def test_odd_e_bounds_raises_on_an_even_lift(monkeypatch):
    # 5 + 1 = 6 lies within [4, 6], so only the parity check can catch it
    real = h2.count_extensions
    monkeypatch.setattr(h2, "count_extensions", lambda p: real(p) + 1)
    with pytest.raises(VerificationError, match="even e=6 on 4 vertices"):
        odd_e_bounds(2)


def test_odd_e_bounds_counts_isomorphic_lifts_once(monkeypatch):
    real = h2.enumerate_good_sets
    monkeypatch.setattr(
        h2, "enumerate_good_sets", lambda p: (r for r in real(p) for _ in range(2))
    )
    assert odd_e_bounds(4)["classes_with_odd_e"] == 13


@pytest.mark.parametrize("n", range(5))
def test_odd_e_lifts_are_the_odd_e_census(n):
    # the lift theorem at 2n <= 8: the lifts of the odd-e bases are the
    # odd-e height-2 classes, read from the census on 2n elements
    from posetsi.generate import _classes

    census = {canonical_form(p): e for p, e in _classes(2 * n, True) if e % 2}
    lifts = {
        canonical_form(build_lift(b, r))
        for b, e in _classes(n, False)
        if e % 2
        for r in enumerate_good_sets(b)
    }
    rep = odd_e_bounds(n)
    assert lifts == set(census)
    assert rep["odd_e_values"] == sorted(set(census.values()))
    assert rep["classes_with_odd_e"] == len(census) == count_f(2 * n)["direct"]


def test_odd_e_bounds_ten_vertices():
    # this code's own regression values, not a published table
    rep = odd_e_bounds(5)
    values = rep["odd_e_values"]
    assert rep["classes_with_odd_e"] == 139
    assert len(values) == 82
    assert (values[0], values[-1]) == (35505, 72585)
    assert (rep["lower"], rep["upper"]) == (14400, 113400)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_f(-1),
        lambda: count_f(12),
        lambda: count_f_q(-1, 2),
        lambda: count_f_q(9, 2),
        lambda: count_f_q(4, 1),
        lambda: odd_e_bounds(-1),
        lambda: odd_e_bounds(7),
        lambda: spectrum(-1),
        lambda: spectrum(9),
        lambda: h2sb_decide(chain(2), -1),
    ],
    ids=[
        "count_f-low", "count_f-high", "count_f_q-low", "count_f_q-high",
        "count_f_q-modulus", "odd_e_bounds-low", "odd_e_bounds-high",
        "spectrum-low", "spectrum-high",
        "h2sb_decide-threshold",
    ],
)
def test_range_guards(call):
    with pytest.raises(ValueError):
        call()


def test_spectrum_small(six_vertex_odd):
    rep = spectrum(6)
    assert 1 in rep["values"] and 2 in rep["values"]
    assert 61 in rep["values"]
    w = rep["witnesses"][61]
    assert is_isomorphic(w, six_vertex_odd[61])
    for value, poset in rep["witnesses"].items():
        assert count_extensions(poset) == value
        assert stats(poset).height <= 2
        assert poset.n <= rep["max_vertices"]
    assert all(v not in rep["values"] for v in rep["gaps"])


def test_five_vertex_divisibility():
    for p in enumerate_posets(5, max_height=2):
        e = count_extensions(p)
        if e % 2 == 1:
            assert e % 5 == 0


def test_empty_lift():
    empty = Poset(0, ())
    assert build_lift(empty, frozenset()).n == 0
    assert signed_count(build_lift(empty, frozenset())).imbalance == 1
