import pytest

from posetsi import (
    VerificationError,
    enumerate_posets,
    is_isomorphic,
    poset_class_count,
    stats,
)
from posetsi import generate
from test_canon import brute_classes


def test_known_class_counts_small():
    assert [poset_class_count(n) for n in range(8)] == [
        1, 1, 2, 5, 16, 63, 318, 2045,
    ]


def test_class_count_eight():
    assert poset_class_count(8) == 16999


def test_matches_brute_enumeration():
    for n in range(5):
        assert poset_class_count(n) == len(brute_classes(n))


def test_pairwise_non_isomorphic():
    for n in range(6):
        reps = list(enumerate_posets(n))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_isomorphic(reps[i], reps[j])


def test_height_filter_agrees_with_post_filter():
    for n in range(7):
        pruned = {p for p in enumerate_posets(n, max_height=2)}
        filtered = {
            p.relabel(range(p.n))
            for p in enumerate_posets(n)
            if stats(p).height <= 2
        }
        # same number of classes and a bijection under isomorphism
        assert len(pruned) == len(filtered)
        for p in pruned:
            assert any(is_isomorphic(p, q) for q in filtered)


def test_empty_size():
    assert poset_class_count(0) == 1
    [empty] = enumerate_posets(0)
    assert empty.n == 0


def test_class_counts_table_is_checked(monkeypatch):
    monkeypatch.setattr(generate, "CLASS_COUNTS", (1, 1, 2, 6))
    generate._classes.cache_clear()
    try:
        assert poset_class_count(2) == 2
        with pytest.raises(VerificationError, match="3 elements, expected 6"):
            poset_class_count(3)
        # height-2 generation is not what the table counts
        assert poset_class_count(3, max_height=2) == 4
    finally:
        generate._classes.cache_clear()


def test_class_count_honours_every_height_bound():
    for n in range(7):
        heights = [stats(p).height for p in enumerate_posets(n)]
        for h in range(1, 5):
            want = sum(1 for x in heights if x <= h)
            assert poset_class_count(n, max_height=h) == want
    assert poset_class_count(4, max_height=1) == 1
    assert poset_class_count(4, max_height=3) == 15


def test_height_bounds_share_two_cached_levels():
    generate._classes.cache_clear()
    try:
        for h in (None, 1, 2, 3, 4):
            poset_class_count(5, max_height=h)
        assert generate._classes.cache_info().currsize == 2 * 6
    finally:
        generate._classes.cache_clear()
