import math
import pickle
import random

import pytest

from posetsi import (
    CycleError,
    Poset,
    antichain,
    chain,
    count_extensions,
    disjoint_union,
    enumerate_posets,
    from_covers,
    grid,
    is_isomorphic,
    ordinal_sum,
    stats,
    zigzag,
)
from conftest import CountedRows, brute_label_arrays


def test_from_covers_single_edge():
    p = from_covers(2, [(0, 1)])
    assert p.lt(0, 1) and not p.lt(1, 0)
    assert p.covers() == [(0, 1)]


def test_from_covers_closure():
    p = from_covers(3, [(0, 1), (1, 2)])
    assert p.lt(0, 2)
    assert p.covers() == [(0, 1), (1, 2)]


def test_from_covers_cycle():
    with pytest.raises(CycleError):
        from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_from_covers_bad_input():
    with pytest.raises(ValueError):
        from_covers(2, [(0, 2)])
    with pytest.raises(ValueError):
        from_covers(2, [(1, 1)])


def test_from_covers_accepts_non_cover_pairs():
    # redundant transitive pair: same poset, covers recomputed
    p = from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert p == from_covers(3, [(0, 1), (1, 2)])


def test_roundtrip_through_covers():
    for n in range(6):
        for p in enumerate_posets(n):
            assert from_covers(p.n, p.covers()) == p


def test_rows_match_their_definitions():
    # down is the transpose of up; a cover of x is above x and above no
    # other element above x
    rng = random.Random(11)
    posets = [p for n in range(7) for p in enumerate_posets(n)]
    posets += [
        from_covers(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15])
        for n in (20, 40) for _ in range(10)
    ]
    posets += [chain(50), zigzag(9), grid(3, 4)]
    for p in posets:
        for q in (p, p.relabel(rng.sample(range(p.n), p.n))):
            n, up = q.n, q.up
            for x in range(n):
                assert q.down[x] == sum(1 << i for i in range(n) if up[i] >> x & 1)
                assert q.cover_up[x] == sum(
                    1 << y
                    for y in range(n)
                    if up[x] >> y & 1 and not any(up[x] >> z & 1 and up[z] >> y & 1 for z in range(n))
                )


def test_a_chain_reads_each_row_a_bounded_number_of_times():
    # each row visits only its minimal elements, so a long chain costs
    # a few reads per row, not one per pair
    n = 500
    rows = CountedRows(chain(n).up)
    p = Poset(n, rows)
    assert rows.reads <= 4 * n
    assert p.cover_up == tuple(1 << i + 1 for i in range(n - 1)) + (0,)
    assert p.down == tuple((1 << i) - 1 for i in range(n))


def test_chain_and_antichain():
    assert count_extensions(chain(3)) == 1
    assert count_extensions(chain(7)) == 1
    assert antichain(3).covers() == []
    assert count_extensions(antichain(3)) == 6


def test_zigzag_matches_fence_figure(zigzag6_covers):
    relabeled = from_covers(6, zigzag6_covers)
    assert is_isomorphic(zigzag(6), relabeled)
    assert zigzag(6) == relabeled  # same labeled poset under this indexing


def test_grid_two_by_two_against_brute():
    g = grid(2, 2)
    oracle = brute_label_arrays(4, list(g.relations()))
    assert len(oracle) == 2
    assert count_extensions(g) == 2


def test_ordinal_sum_of_antichains_against_brute():
    p = ordinal_sum(antichain(2), antichain(2))
    oracle = brute_label_arrays(4, list(p.relations()))
    assert len(oracle) == 4
    assert count_extensions(p) == 4


def test_near_chain_with_floater_counts():
    # a chain of m-1 elements plus one incomparable element has m extensions
    for m in range(2, 8):
        p = disjoint_union(chain(m - 1), chain(1))
        assert count_extensions(p) == m


def test_disjoint_union_with_empty_is_identity():
    p = zigzag(4)
    assert disjoint_union(p, Poset(0, ())) == p


def test_sum_product_rules():
    sizes = {}
    for n in range(5):
        sizes[n] = list(enumerate_posets(n))
    for a in range(5):
        for b in range(5):
            if a + b > 7 or a + b == 0:
                continue
            for p in sizes[a]:
                for q in sizes[b]:
                    ep, eq = count_extensions(p), count_extensions(q)
                    assert count_extensions(ordinal_sum(p, q)) == ep * eq
                    assert count_extensions(disjoint_union(p, q)) == math.comb(
                        a + b, a
                    ) * ep * eq


def test_stats_chain():
    assert stats(chain(3)) == (3, 3, 2, 1)


def test_stats_two_chain_plus_point():
    s = stats(disjoint_union(chain(2), chain(1)))
    assert (s.re, s.cr) == (1, 1)
    assert s.components == 2


def test_stats_antichain():
    assert stats(antichain(4)) == (1, 0, 0, 4)


def test_stats_height_examples():
    assert stats(zigzag(6)).height == 2
    assert stats(grid(2, 3)).height == 4
    assert stats(Poset(0, ())).height == 0


def test_relabel_preserves_structure():
    rng = random.Random(7)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            q = p.relabel(perm)
            assert stats(q) == stats(p)
            assert is_isomorphic(p, q)


def test_subposet_induced():
    p = zigzag(5)
    sub = p.subposet([0, 1, 2])
    assert sub.covers() == [(0, 1), (2, 1)]


def test_poset_pickles():
    p = zigzag(6)
    assert pickle.loads(pickle.dumps(p)) == p


def test_poset_hash_and_eq():
    assert zigzag(4) == zigzag(4)
    assert hash(zigzag(4)) == hash(zigzag(4))
    assert zigzag(4) != chain(4)


def test_repr_shows_size_and_covers():
    assert repr(zigzag(4)) == "Poset(4, [(0, 1), (2, 1), (2, 3)])"
    assert repr(Poset(0, ())) == "Poset(0, [])"


def test_zero_size_families():
    for p in (chain(0), antichain(0), zigzag(0), grid(0, 3), grid(2, 0)):
        assert p.n == 0
        assert count_extensions(p) == 1
    assert zigzag(1).n == 1 and zigzag(2) == chain(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poset(-1, ()),
        lambda: from_covers(-1, []),
        lambda: antichain(-1),
        lambda: chain(-1),
        lambda: zigzag(-1),
        lambda: grid(-1, 2),
        lambda: grid(2, -1),
        lambda: grid(-1, -2),  # m * n = 2 would pass a check on the product
    ],
    ids=["Poset", "from_covers", "antichain", "chain", "zigzag", "grid_rows",
         "grid_columns", "grid_both"],
)
def test_negative_size_is_rejected(build):
    with pytest.raises(ValueError, match="must be nonnegative"):
        build()
