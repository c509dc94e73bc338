import sys
import time

import pytest

from posetsi import (
    ResourceLimit,
    antichain,
    build_graph,
    chain,
    enumerate_extensions,
    enumerate_posets,
    grid,
    hamiltonian_path,
    is_connected,
    ruskey_report,
    sign,
    signed_count,
    zigzag,
)
from posetsi import linext, ruskey
from posetsi.ruskey import TranspositionGraph, part_sizes


def pairwise_graph(p, adjacent_only):
    """Reference construction: compare every pair of extensions."""
    verts = list(enumerate_extensions(p))
    edges = []
    adjacency = [[] for _ in verts]
    for i, vi in enumerate(verts):
        for j in range(i + 1, len(verts)):
            diff = [k for k in range(p.n) if vi[k] != verts[j][k]]
            if len(diff) != 2:
                continue
            if adjacent_only and abs(vi[diff[0]] - vi[diff[1]]) != 1:
                continue
            edges.append((i, j))
            adjacency[i].append(j)
            adjacency[j].append(i)
    signs = tuple(sign(p, v) for v in verts)
    return tuple(verts), tuple(edges), signs, tuple(map(tuple, adjacency))


def assert_path(g, path):
    assert sorted(path) == list(range(len(g.vertices)))
    for a, b in zip(path, path[1:]):
        assert b in g.adjacency[a]


def test_two_points():
    g = build_graph(antichain(2))
    assert len(g.vertices) == 2
    assert g.edges == ((0, 1),)


def test_chain_graph():
    for n in range(1, 6):
        g = build_graph(chain(n))
        assert len(g.vertices) == 1
        assert g.edges == ()


def test_fence_six_parts():
    g = build_graph(zigzag(6))
    assert len(g.vertices) == 61
    plus, minus = part_sizes(g)
    assert abs(plus - minus) == 1 == signed_count(zigzag(6)).imbalance


def test_edges_flip_sign_both_modes():
    for adjacent in (False, True):
        for n in range(5):
            for p in enumerate_posets(n):
                g = build_graph(p, adjacent_only=adjacent)
                for a, b in g.edges:
                    assert g.signs[a] != g.signs[b]


def test_adjacent_edges_subset_of_any():
    p = zigzag(4)
    any_mode = set(build_graph(p).edges)
    adjacent = set(build_graph(p, adjacent_only=True).edges)
    assert adjacent <= any_mode


def test_part_gap_equals_imbalance():
    for n in range(6):
        for p in enumerate_posets(n):
            g = build_graph(p)
            plus, minus = part_sizes(g)
            assert abs(plus - minus) == signed_count(p).imbalance


def test_adjacent_mode_connected_small():
    for n in range(6):
        for p in enumerate_posets(n):
            assert is_connected(build_graph(p, adjacent_only=True))


def test_antichain_three_adjacent_graph_connected():
    g = build_graph(antichain(3), adjacent_only=True)
    assert len(g.vertices) == 6
    assert is_connected(g)


def test_hamiltonian_path_trivial_and_blocked(eight_cycle):
    assert hamiltonian_path(build_graph(chain(4))) == [0]
    # imbalance two forces a bipartite gap of two: no path exists
    g = build_graph(eight_cycle)
    assert hamiltonian_path(g) is None


def hand_graph(signs, edges):
    """A TranspositionGraph with the given signs and edges, and stand-in
    vertex labels."""
    adjacency = [[] for _ in signs]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return TranspositionGraph(
        tuple((i,) for i in range(len(signs))),
        tuple(edges),
        tuple(signs),
        False,
        tuple(tuple(sorted(row)) for row in adjacency),
    )


def test_hamiltonian_path_none_when_disconnected():
    # two disjoint edges: equal parts, but no path; no node is entered
    g = hand_graph((1, -1, 1, -1), [(0, 1), (2, 3)])
    assert hamiltonian_path(g, cap=0) is None


def test_hamiltonian_path_none_after_exhausted_search():
    # a 3+3 bipartite graph with four leaves: connected, equal parts, and
    # no path, since a path has only two ends
    g = hand_graph((1, 1, 1, -1, -1, -1), [(0, 3), (0, 4), (0, 5), (1, 3), (2, 3)])
    assert is_connected(g)
    assert hamiltonian_path(g) is None
    with pytest.raises(ResourceLimit):
        hamiltonian_path(g, cap=1)


def test_empty_hand_built_graph():
    g = TranspositionGraph((), (), (), False, ())
    assert is_connected(g)
    assert hamiltonian_path(g) == []


def _reference_hamiltonian_path(g, cap):
    """The search that entered vertices through a nested function, with
    an outer loop over start vertices and a path list beside its stack."""
    nv = len(g.vertices)
    if nv == 0:
        return []
    plus, minus = part_sizes(g)
    if abs(plus - minus) > 1:
        return None
    if not is_connected(g):
        return None
    adjacency = g.adjacency
    degree = [len(a) for a in adjacency]
    visited = [False] * nv
    path = []
    stack = []
    nodes = 0

    def enter(v):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise ResourceLimit(
                f"Hamiltonian path search visited {nodes} nodes, over its "
                f"budget of {cap}; raise it with --path-cap"
            )
        path.append(v)
        visited[v] = True
        unvisited = [w for w in adjacency[v] if not visited[w]]
        for w in unvisited:
            degree[w] -= 1
        forced = [w for w in unvisited if degree[w] == 0]
        if len(forced) > 1:
            choices = []
        elif forced:
            choices = forced
        else:
            choices = sorted(unvisited, key=degree.__getitem__)
        stack.append((unvisited, iter(choices)))

    for s in sorted(range(nv), key=degree.__getitem__):
        enter(s)
        while stack:
            if len(path) == nv:
                return path
            unvisited, choices = stack[-1]
            w = next(choices, None)
            if w is None:
                stack.pop()
                for u in unvisited:
                    degree[u] += 1
                visited[path.pop()] = False
            else:
                enter(w)
    return None


def _path_or_limit(search, g, cap):
    try:
        return search(g, cap)
    except ResourceLimit as exc:
        return str(exc)


def test_hamiltonian_path_matches_the_reference_search():
    cases = [(n, cap) for n in range(6) for cap in (1, 7, 50, 510, 10**4)]
    cases.append((6, 3000))
    for n, cap in cases:
        for p in enumerate_posets(n):
            for adjacent in (False, True):
                g = build_graph(p, adjacent_only=adjacent)
                want = _path_or_limit(_reference_hamiltonian_path, g, cap)
                assert _path_or_limit(hamiltonian_path, g, cap) == want


def test_found_paths_are_valid():
    for p in (antichain(3), zigzag(4), zigzag(5)):
        g = build_graph(p)
        path = hamiltonian_path(g)
        assert path is not None
        assert sorted(path) == list(range(len(g.vertices)))
        adjacency = {frozenset(e) for e in g.edges}
        for a, b in zip(path, path[1:]):
            assert frozenset((a, b)) in adjacency
    for adjacent in (False, True):
        for n in range(6):
            for p in enumerate_posets(n):
                g = build_graph(p, adjacent_only=adjacent)
                path = hamiltonian_path(g)
                if path is not None:
                    assert_path(g, path)


def test_graph_matches_pairwise_construction():
    for adjacent in (False, True):
        for n in range(7):
            for p in enumerate_posets(n):
                g = build_graph(p, adjacent_only=adjacent)
                got = (g.vertices, g.edges, g.signs, g.adjacency)
                assert got == pairwise_graph(p, adjacent)


def test_long_path_needs_no_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("recursion limit changed")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = build_graph(zigzag(9))
    path = hamiltonian_path(g, cap=10**4)
    assert len(path) == len(g.vertices) == 7936
    assert_path(g, path)


def test_graph_does_not_revalidate_extensions(monkeypatch):
    calls = 0
    real = linext._validate

    def counting(p, labels):
        nonlocal calls
        calls += 1
        real(p, labels)

    monkeypatch.setattr(linext, "_validate", counting)
    g = build_graph(grid(3, 3))
    assert len(g.vertices) == 42
    assert calls == 0


def test_graph_cap():
    message = "transposition graph exceeded its cap of 100 vertices: .*--graph-cap"
    with pytest.raises(ResourceLimit, match=message):
        build_graph(antichain(6), cap=100)
    with pytest.raises(ResourceLimit):
        hamiltonian_path(build_graph(antichain(5)), cap=10)


def test_path_cap_bounds_search_nodes():
    # zigzag(8) has 1,385 vertices and no path is found within 10**6 nodes
    g = build_graph(zigzag(8))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit) as exc:
        hamiltonian_path(g, cap=10**4)
    assert time.perf_counter() - start < 10
    msg = str(exc.value)
    assert "visited 10001 nodes" in msg and "budget of 10000" in msg
    assert "--path-cap" in msg
    # a path with no backtracking enters each vertex once
    g = build_graph(zigzag(6))
    assert len(hamiltonian_path(g, cap=len(g.vertices))) == len(g.vertices)
    with pytest.raises(ResourceLimit):
        hamiltonian_path(g, cap=len(g.vertices) - 1)


def test_report_examples(eight_cycle):
    rep = ruskey_report(antichain(2))
    assert rep["si"] == 0 and rep["path_found"] and rep["consistent_with_conjecture"]
    rep = ruskey_report(eight_cycle)
    assert rep["si"] == 2 and not rep["path_found"]
    assert rep["consistent_with_conjecture"]
    assert rep["bipartite_by_sign"]


def test_report_tests_connectivity_once(monkeypatch):
    # the path search tests it, and a path found shows it
    calls = []

    def counted(g):
        calls.append(g)
        return is_connected(g)

    monkeypatch.setattr(ruskey, "is_connected", counted)
    rep = ruskey_report(zigzag(6))
    assert rep["connected"] and rep["path_found"]
    assert len(calls) == 1


def test_report_modes_stated():
    assert ruskey_report(chain(2))["mode"] == "any-transposition"
    g = build_graph(chain(2), adjacent_only=True)
    assert ruskey._graph_report(chain(2), g, None)["mode"] == "adjacent"


def test_conjecture_sweep_tiny():
    for n in range(5):
        for p in enumerate_posets(n):
            rep = ruskey_report(p)
            assert rep["consistent_with_conjecture"]
            if rep["path_found"]:
                assert rep["si"] <= 1
