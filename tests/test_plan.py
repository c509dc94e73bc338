import random
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetsi import plan
from posetsi.errors import ResourceLimit
from posetsi.generate import enumerate_posets
from posetsi.h2 import build_lift, good_base
from posetsi.linext import count_extensions, signed_count
from posetsi.poset import (
    Poset,
    antichain,
    chain,
    disjoint_union,
    from_covers,
    grid,
    ordinal_sum,
)
from conftest import brute_signed, labelled_posets


def _agrees_with_the_walk(p):
    """The planner's answers against ``signed_count``, sign included; the
    signed route's e too, which is None just when a part took the
    height-2 inverse. Returns its route."""
    sc = signed_count(p)
    signed, e, route = plan.signed(p)
    assert signed == sc.signed
    assert e == (None if "height-2" in route else sc.total)
    assert plan.e(p)[0] == sc.total
    return route


def test_split_rules_on_every_pair_of_small_classes():
    # the parts land on scattered labels, so each join needs the sign of
    # its relabelling as well as the q = -1 binomial
    rng = random.Random(21)
    classes = [p for n in range(1, 5) for p in enumerate_posets(n)]
    checked = 0
    for a in classes:
        for b in classes:
            for join in (disjoint_union, ordinal_sum):
                p = join(a, b)
                p = p.relabel(rng.sample(range(p.n), p.n))
                assert _agrees_with_the_walk(p).startswith("split")
                checked += 1
    assert checked == 2 * 24 * 24


def test_planner_matches_the_walk_on_every_class():
    rng = random.Random(7)
    routes = set()
    checked = 0
    for n in range(8):
        for p in enumerate_posets(n):
            for q in (p, *(p.relabel(rng.sample(range(n), n)) for _ in "ab")):
                routes |= set(_agrees_with_the_walk(q).split(" + "))
                checked += 1
    assert checked == 3 * 2451  # the classes with n <= 7
    assert routes == {"split", "forest", "height-2", "quotient"}


@st.composite
def planned_posets(draw):
    """(n, relations) of a labelled poset, of its lift, or of its union
    with a second one, under shuffled labels."""
    n, relations = draw(labelled_posets(max_n=5, max_pairs=6))
    kind = draw(st.sampled_from(["plain", "lift", "union"]))
    if kind == "lift" and n <= 4:
        p = from_covers(n, relations)
        pairs = sorted(p.relations())
        extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        q = build_lift(p, good_base(p) | extra)
        n, relations = q.n, list(q.relations())
    elif kind == "union":
        m, more = draw(labelled_posets(max_n=7 - n, max_pairs=4))
        relations = relations + [(a + n, b + n) for a, b in more]
        n += m
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in relations]


@settings(max_examples=60, deadline=None, database=None)
@given(planned_posets())
def test_planner_matches_brute_force(poset):
    n, relations = poset
    p = from_covers(n, relations)
    e, signed = brute_signed(n, relations)
    assert plan.e(p)[0] == e
    got, got_e, route = plan.signed(p)
    assert got == signed
    assert got_e == (None if "height-2" in route else e)


def _deep(n):
    """(P, e(P)): from an antichain of two, alternately put an antichain of
    two above and a point beside, to at least n elements, each round
    multiplying e by 2 and then by the new size. Built from its rows in
    one pass: each antichain of two, at elements s and s + 1, lies above
    all the elements before it, and its point s + 2 above none."""
    starts, size, e = [0], 2, 2
    while size < n:
        starts.append(size)
        size, e = size + 3, 2 * (size + 3) * e
    up, above = [0] * size, 0
    for s in reversed(starts):
        for x in range(s, s + 3 if s else 2):
            up[x] = above
        above |= 0b11 << s
    return Poset(size, tuple(up)), e


def test_deep_splits_need_no_recursion():
    for n in range(2, 24):  # each point doubles the down-sets the walk stores
        p, e = _deep(n)
        q = antichain(2)
        while q.n < n:
            q = disjoint_union(ordinal_sum(q, antichain(2)), chain(1))
        assert p == q and count_extensions(p) == e
    p, e = _deep(2000)  # over 1,300 levels of splits, none a forest
    assert plan.e(p) == (e, "split")


def test_nests_three_to_five_levels_deep():
    # a union of ordinal sums of unions (of ordinal sums ...), each join of
    # the nest so far and a class with a nonzero signed sum, so that the
    # signed sums are zero only where a union's q = -1 binomial is
    rng = random.Random(24)
    leaves = [p for n in range(1, 5) for p in enumerate_posets(n)]
    leaves = [p for p in leaves if signed_count(p).signed]
    nonzero = 0
    for depth in (3, 4, 5):
        for _ in range(60):
            p = rng.choice(leaves)
            for level in reversed(range(depth)):
                pair = [p, rng.choice(leaves)]
                rng.shuffle(pair)
                p = (disjoint_union, ordinal_sum)[level % 2](*pair)
            p = p.relabel(rng.sample(range(p.n), p.n))
            assert _agrees_with_the_walk(p).startswith("split")
            nonzero += plan.signed(p)[0] != 0
    assert 60 <= nonzero < 180


def _signed_nest(k):
    """(N_k, e(N_k) = (2k + 1)!!), with N_0 one point and N_{k+1} =
    (N_k + a) | b: N_k below a new point a, beside a new point b. Built
    from its rows in one pass: the a of round j is 2j - 1 and its b is
    2j, so each element lies below the odd elements above it."""
    n = 2 * k + 1
    odd = sum(1 << x for x in range(1, n, 2))
    up = tuple(odd & ~((2 << x) - 1) for x in range(n))
    return Poset(n, up), prod(range(1, n + 1, 2))


def test_signed_nest():
    # each union's q = -1 binomial [2k + 3 choose 1] is 1, so the signed
    # sum is the labelling's parity alone
    q = chain(1)
    for k in range(7):
        p, e = _signed_nest(k)
        assert p == q
        rev = p.relabel(reversed(range(p.n)))
        for r, sgn in ((p, 1), (rev, (-1) ** k)):
            assert signed_count(r)[:2] == (e, sgn)
            _agrees_with_the_walk(r)
        q = disjoint_union(ordinal_sum(q, chain(1)), chain(1))
    p, e = _signed_nest(501)  # 1,002 levels of splits, each multiplying in its sign
    assert plan.signed(p) == (1, e, "split")
    assert plan.signed(p.relabel(reversed(range(p.n)))) == (-1, e, "split")


def test_routes_of_named_families():
    assert plan.e(chain(0)) == (1, "forest")
    assert plan.signed(antichain(3)) == (0, 6, "split")  # [2 choose 1] at -1 is 0
    # grid:3:4 less its two corners is neither split nor a forest
    assert plan.e(grid(3, 4)) == (462, "split + peel")
    assert plan.signed(grid(3, 4)) == (-2, 462, "split + quotient")
    lift = build_lift(grid(2, 30), good_base(grid(2, 30)))
    assert plan.signed(lift) == (3814986502092304, None, "height-2")  # Catalan(30)
    assert plan.e(grid(2, 30)) == (comb(60, 30) // 31, "split + peel")
    assert plan.e(grid(3, 30))[1] == "split + walk"  # 88 elements, over PEEL_N


def test_peel_matches_the_walk_from_either_end():
    # each class and its dual: where their ends differ in size, one peels
    # its minimal elements and the other its maximal ones
    for n in range(2, 8):
        for p in enumerate_posets(n):
            for q in (p, Poset(n, p.down)):
                assert plan._peel(q, plan.PEEL_STATES) == count_extensions(q)
    # random orders of the benchmark's kind, which fall apart as they peel
    rng = random.Random(30)
    for _ in range(2):
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.1]
        p = from_covers(30, pairs)
        for q in (p, Poset(30, p.down)):
            assert plan._peel(q, plan.PEEL_STATES) == count_extensions(q)


def test_peel_hands_over_to_the_walk(monkeypatch):
    # the peel keeps 26 states on the middle of grid:3:4; the walk stores 33
    monkeypatch.setattr(plan, "PEEL_STATES", 25)
    assert plan.e(grid(3, 4)) == (462, "split + walk")
    monkeypatch.setattr(plan, "PEEL_STATES", 26)
    assert plan.e(grid(3, 4)) == (462, "split + peel")
    # a down-set cap under the peel's states leaves the cap to the walk
    with pytest.raises(ResourceLimit):
        plan.e(grid(3, 4), downset_cap=20)


def test_a_plan_takes_one_parity_at_most(monkeypatch):
    # the relabellings of nested splits compose into one listing, whose
    # parity is taken once, and not at all once the signed sum is None
    calls = 0
    real = plan._parity

    def counting(seq):
        nonlocal calls
        calls += 1
        return real(seq)

    monkeypatch.setattr(plan, "_parity", counting)
    p, e = _signed_nest(50)
    assert plan.signed(p) == (1, e, "split")
    assert calls == 1  # where a parity per split would take 100
    calls = 0
    assert plan.e(grid(3, 4)) == (462, "split + peel")
    assert calls == 0
