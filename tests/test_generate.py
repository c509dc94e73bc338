import random
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import pytest

from posetsi import (
    Poset,
    VerificationError,
    antichain,
    canonical_form,
    chain,
    count_extensions,
    disjoint_union,
    enumerate_posets,
    from_covers,
    is_isomorphic,
    poset_class_count,
    stats,
    zigzag,
)
from posetsi import canon, generate
from test_canon import _reference_colors, brute_classes


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
        pruned = {p for p in enumerate_posets(n, height2=True)}
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


def test_negative_size_is_rejected():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        enumerate_posets(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        poset_class_count(-1, height2=True)


@pytest.fixture
def own_class_cache(monkeypatch):
    """Generation on an empty cache of its own for one test, so that the
    shared cache keeps the census levels that other tests reuse."""
    fresh = lru_cache(maxsize=None)(generate._classes.__wrapped__)
    monkeypatch.setattr(generate, "_classes", fresh)
    return fresh


def test_class_counts_table_is_checked(monkeypatch, own_class_cache):
    monkeypatch.setattr(generate, "CLASS_COUNTS", (1, 1, 2, 6))
    assert poset_class_count(2) == 2
    with pytest.raises(VerificationError, match="3 elements, expected 6"):
        poset_class_count(3)
    # height-2 generation is not what the table counts
    assert poset_class_count(3, height2=True) == 4


def test_height_bounds_share_two_cached_levels(own_class_cache):
    for height2 in (False, True, False):
        poset_class_count(5, height2)
    assert own_class_cache.cache_info().currsize == 2 * 6


def test_height2_class_counts_table_is_checked(monkeypatch, own_class_cache):
    monkeypatch.setattr(generate, "H2_CLASS_COUNTS", (1, 1, 2, 5))
    assert poset_class_count(2, height2=True) == 2
    with pytest.raises(
        VerificationError, match="4 height-2 classes on 3 elements, expected 5"
    ):
        poset_class_count(3, height2=True)
    assert poset_class_count(3) == 5


def all_children(p, height2):
    """p with a new maximal element over each of its down-sets, or with
    ``height2`` over each set of its minimal elements: no pruning."""
    if height2:
        mins = [i for i in range(p.n) if not p.down[i]]
        masks = [
            sum(1 << i for i in s)
            for r in range(len(mins) + 1)
            for s in combinations(mins, r)
        ]
    else:
        masks = [
            m
            for m in range(1 << p.n)
            if all(not p.down[i] & ~m for i in range(p.n) if m >> i & 1)
        ]
    return [p.add_maximal(m) for m in masks]


def reference_forms(nmax, height2):
    """Canonical forms per size, grown from every child of every class
    with one global seen-set per size."""
    level = [Poset(0, ())]
    forms = [{canonical_form(level[0])}]
    for _ in range(nmax):
        seen = {}
        for rep in level:
            for child in all_children(rep, height2):
                seen.setdefault(canonical_form(child), child)
        level = list(seen.values())
        forms.append(set(seen))
    return forms


@pytest.mark.parametrize("height2, nmax", [(False, 7), (True, 8)])
def test_pruned_generation_matches_unpruned_reference(height2, nmax):
    want = reference_forms(nmax, height2)
    for n in range(nmax + 1):
        got = [canonical_form(p) for p, _ in generate._classes(n, height2)]
        assert len(got) == len(set(got))
        assert set(got) == want[n]


def deletion_keys(q):
    """The deletion key of each maximal element x of q, extended by the
    refined colour of x in q."""
    colors = _reference_colors(q)
    keys = {}
    for x in range(q.n):
        if not q.up[x]:
            lower = [y for y in range(q.n) if q.cover_up[y] >> x & 1]
            keys[x] = (
                q.down[x].bit_count(),
                len(lower),
                sorted(q.down[y].bit_count() for y in lower),
                sorted(q.up[y].bit_count() for y in lower),
                colors[x],
            )
    return keys


def census_keys(p):
    """The deletion key of each maximal element x of p as the census reads
    it before the colour: ``_key`` and ``_ups`` of its down-set in p."""
    return {
        x: (*generate._key(p, p.down[x]), generate._ups(p, p.down[x]))
        for x in range(p.n)
        if not p.up[x]
    }


def test_deletion_key_is_invariant_under_relabelling():
    # the census reads the four parts before the colour from the child
    # alone, so isomorphic children give each maximal element one key
    rng = random.Random(40)
    for height2 in (False, True):
        for n in range(7):
            for p in enumerate_posets(n, height2):
                keys = census_keys(p)
                assert keys == {x: k[:4] for x, k in deletion_keys(p).items()}
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    moved = {perm[x]: k for x, k in keys.items()}
                    assert census_keys(p.relabel(perm)) == moved


def keyed_child_forms(p, height2):
    """Forms of the children whose new element has a largest deletion key
    among the child's maximal elements."""
    out = set()
    for q in all_children(p, height2):
        keys = deletion_keys(q)
        if keys[p.n] == max(keys.values()):
            out.add(canonical_form(q))
    return out


def test_pruned_step_is_sound_under_relabelling():
    # the twin rule must lose no class that canonical deletion keeps, on
    # any labelling of the parent
    rng = random.Random(15)
    k33 = from_covers(6, [(i, j) for i in range(3) for j in range(3, 6)])
    parents = [antichain(6), k33, chain(5), zigzag(6)]
    parents += [p for n in range(6) for p in enumerate_posets(n)]
    parents += list(enumerate_posets(6, height2=True))
    for p in parents:
        for height2 in (False, True) if stats(p).height <= 2 else (False,):
            want = keyed_child_forms(p, height2)
            for _ in range(3):
                perm = list(range(p.n))
                rng.shuffle(perm)
                q = p.relabel(perm)
                got = {canonical_form(c) for c, *_ in generate._children(q, height2)}
                assert got == want


def seen_set_classes(nmax, height2):
    """Class lists per size as a seen-set of canonical forms over every
    child that passes the twin and deletion rules keeps them."""
    levels = [[Poset(0, ())]]
    for _ in range(nmax):
        seen, level = set(), []
        for rep in levels[-1]:
            for child, *_ in generate._children(rep, height2):
                form = canonical_form(child)
                if form not in seen:
                    seen.add(form)
                    level.append(child)
        levels.append(level)
    return levels


@pytest.mark.parametrize("height2, nmax", [(False, 7), (True, 8)])
def test_buckets_keep_what_a_seen_set_keeps(height2, nmax):
    want = seen_set_classes(nmax, height2)
    for n in range(nmax + 1):
        got = generate._classes(n, height2)
        assert [p.up for p, _ in got] == [p.up for p in want[n]]


CROWN3 = from_covers(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)])
TWO_FENCES = disjoint_union(zigzag(4), zigzag(4))
# the fence 2 > 0 < 4 > 1 < 3: over {0, 1} the new element is a twin of 4
TOP_FENCE5 = from_covers(5, [(0, 2), (0, 4), (1, 3), (1, 4)])


@pytest.mark.parametrize(
    "parents, height2, shared",
    [
        ([zigzag(5)], False, False),
        ([CROWN3], False, False),
        ([TWO_FENCES], False, False),
        ([TWO_FENCES], True, False),
        ([TOP_FENCE5], False, False),
        (list(enumerate_posets(6)), False, True),
        (list(enumerate_posets(7, height2=True)), True, True),
    ],
    ids=["zigzag5", "crown3", "two-fences", "two-fences-h2", "top-fence5", "level7", "h2-level8"],
)
def test_bucket_collisions_keep_one_child_per_class(parents, height2, shared):
    # isomorphic children share e and the multiset of (|down v|, |up v|),
    # so they share a bucket of the level however their parents differ;
    # from n = 7 on, some bucket also holds two classes
    buckets = {}
    for parent in parents:
        for child, _ in generate._children(parent, height2):
            shape = sorted(
                (child.down[v].bit_count(), child.up[v].bit_count()) for v in range(child.n)
            )
            bucket = (count_extensions(child), *shape)
            buckets.setdefault(bucket, []).append(canonical_form(child))
    assert any(len(set(forms)) < len(forms) for forms in buckets.values())
    assert any(len(set(forms)) > 1 for forms in buckets.values()) == shared
    level = {}
    kept = [canonical_form(c) for p in parents for c, _ in generate._kept(p, height2, level)]
    assert len(kept) == len(set(kept))
    assert set(kept) == {f for forms in buckets.values() for f in forms}


def test_add_maximal_rows_match_the_constructor():
    parents = [(p, False) for n in range(7) for p in enumerate_posets(n)]
    parents += [(p, True) for n in range(9) for p in enumerate_posets(n, height2=True)]
    for p, height2 in parents:
        for child in all_children(p, height2):
            built = Poset(child.n, child.up)
            assert (child.up, child.down, child.cover_up) == (
                built.up, built.down, built.cover_up
            )


def test_census_computes_few_canonical_forms(monkeypatch, own_class_cache):
    # counts the forms computed, not those read back from ``_canon``; while
    # a child tied with its twins was tied, the census computed 668 and 800,
    # while colours did not break ties of the key, 467 and 422, and while
    # alone siblings were bucketed by their parent's colours, 249 and 349,
    # and while tied children went through a seen-set apart from the
    # alone siblings' buckets, 245 and 349
    fresh = []
    form = generate.canonical_form

    def counting(p):
        fresh.append(p._canon is None)
        return form(p)

    monkeypatch.setattr(generate, "canonical_form", counting)
    counts = []
    for n, height2 in ((8, True), (7, False)):
        fresh.clear()
        own_class_cache(n, height2)
        counts.append(sum(fresh))
    assert counts == [164, 270]


def test_census_refines_each_poset_once(monkeypatch, own_class_cache):
    # a child's colours break its key's ties and give its form: one
    # refinement serves both; while parents were refined for their
    # buckets, the census refined 569 and 787 posets, and while every tied
    # child took a form, 466 and 423: a form now falls on some children
    # that no tie refined. While the key had no fourth part, the up-degrees
    # of the lower covers, 473 and 443
    refined = []
    refine = canon._refined_colors

    def recording(p):
        if p._colors is None:
            refined.append(p)
        return refine(p)

    monkeypatch.setattr(canon, "_refined_colors", recording)
    monkeypatch.setattr(generate, "_refined_colors", recording)
    counts = []
    for n, height2 in ((8, True), (7, False)):
        refined.clear()
        own_class_cache(n, height2)
        assert len({id(p) for p in refined}) == len(refined)
        counts.append(len(refined))
    assert counts == [272, 375]


@pytest.mark.parametrize("height2, nmax", [(False, 5), (True, 6)])
def test_kept_never_refines_its_parent(height2, nmax):
    # buckets are keyed by e and row sizes, not by the parent's colours;
    # a fresh copy of each class carries none
    for n in range(nmax + 1):
        for p in enumerate_posets(n, height2):
            parent = Poset(p.n, p.up)
            assert list(generate._kept(parent, height2, {}))
            assert parent._colors is None


# labelled posets on n elements (OEIS A001035), and those of height at
# most 2 (OEIS A001831)
LABELLED = {False: (1, 1, 3, 19, 219, 4231), True: (1, 1, 3, 13, 87, 841, 11643)}


@pytest.mark.parametrize("height2, nmax", [(False, 5), (True, 6)])
def test_automorphism_count_divides_e(height2, nmax):
    # Aut(P) acts freely on linear extensions: an automorphism that fixes
    # one extension fixes every element. A class has n!/|Aut(P)| labelled
    # copies, and these sum to the number of labelled posets
    for n in range(nmax + 1):
        labelled = 0
        for p, e in generate._classes(n, height2):
            rel = set(p.relations())
            aut = sum(
                all((perm[a], perm[b]) in rel for a, b in rel)
                for perm in permutations(range(n))
            )
            assert e % aut == 0
            labelled += factorial(n) // aut
        assert labelled == LABELLED[height2][n]


@pytest.mark.parametrize("height2, nmax", [(False, 7), (True, 9)])
def test_census_values_are_the_walk(height2, nmax):
    for n in range(nmax + 1):
        counted = list(generate._classes(n, height2))
        assert [p for p, _ in counted] == list(
            enumerate_posets(n, height2)
        )
        assert [e for _, e in counted] == [count_extensions(p) for p, _ in counted]
