"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's counting machinery:
they filter raw permutations, so they can sit on the other side of every
equality the tests assert.
"""

import os
from itertools import permutations

import pytest
from hypothesis import strategies as st

from posetsi import from_covers


def brute_label_arrays(n, relations):
    """All label arrays (tuples over 1..n) respecting a < b constraints."""
    out = []
    for labels in permutations(range(1, n + 1)):
        if all(labels[a] < labels[b] for a, b in relations):
            out.append(labels)
    return out


def inversion_sign(labels):
    inv = sum(
        1
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if labels[i] > labels[j]
    )
    return -1 if inv % 2 else 1


def brute_signed(n, relations):
    """(count, signed sum) over all valid label arrays."""
    arrays = brute_label_arrays(n, relations)
    return len(arrays), sum(inversion_sign(a) for a in arrays)


@st.composite
def labelled_posets(draw, max_n=7, max_pairs=8):
    """(n, relations) with n <= max_n: up to max_pairs pairs a < b of a
    random order on the elements, under shuffled labels."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=max_pairs) if pairs else st.just([]))
    return n, [(perm[a], perm[b]) for a, b in picked]


class CountedRows(tuple):
    """A tuple of relation rows that counts how often one is read by
    index, to bound the work of code that reads them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def allow_cpus(monkeypatch, count):
    """Make this process see ``count`` CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


@pytest.fixture
def zigzag6_covers():
    return [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5)]


@pytest.fixture
def swap_figure():
    """Four-cover poset from the label-swap illustrations (one edge fewer
    than the six-element fence)."""
    return from_covers(6, [(0, 1), (2, 1), (2, 3), (4, 5)])


@pytest.fixture
def no_tableau_poset():
    """Hasse diagram has perfect matchings but no domino tableau."""
    return from_covers(6, [(0, 3), (1, 3), (0, 4), (1, 4), (2, 5)])


@pytest.fixture
def eight_cycle():
    """Height-4 poset whose Hasse diagram is an eight-cycle."""
    return from_covers(
        8, [(1, 0), (7, 0), (2, 1), (3, 2), (3, 4), (4, 5), (6, 5), (6, 7)]
    )


@pytest.fixture
def six_vertex_odd():
    """The three height-2 posets on six vertices with odd e: 75, 61, 57."""
    return {
        75: from_covers(6, [(0, 3), (0, 4), (1, 4), (2, 5)]),
        61: from_covers(6, [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5)]),
        57: from_covers(6, [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (0, 5)]),
    }
