"""Transposition graphs on linear extensions and the Hamiltonian-path
necessary condition for sign imbalance at most 1.

Vertices are the linear extensions; two extensions are adjacent when they
differ by swapping the labels of two elements. The default mode allows
any label swap; adjacent mode requires the two labels to be consecutive
integers. Every edge joins extensions of opposite sign, so the graph is
bipartite by sign and the part sizes differ by exactly the imbalance.
"""

from typing import NamedTuple

from .errors import ResourceLimit
from .linext import _parity, enumerate_extensions
from .poset import Poset

__all__ = [
    "TranspositionGraph",
    "build_graph",
    "is_connected",
    "hamiltonian_path",
    "ruskey_report",
    "GRAPH_CAP",
    "HAMPATH_CAP",
]

GRAPH_CAP = 10**4
# Search nodes, the vertices entered on every branch. Each class with
# n <= 5 needs at most 510 in either mode, and one path through a graph
# of GRAPH_CAP vertices needs GRAPH_CAP. 10**5 nodes take 0.2 to 0.4 s
# (Python 3.11, one core of a 2-vCPU x86 host).
HAMPATH_CAP = 10**5


class TranspositionGraph(NamedTuple):
    vertices: tuple[tuple[int, ...], ...]  # label arrays, lexicographic
    edges: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]
    adjacent_only: bool
    adjacency: tuple[tuple[int, ...], ...]  # neighbours of each vertex, sorted


def build_graph(
    p: Poset, adjacent_only: bool = False, cap: int = GRAPH_CAP
) -> TranspositionGraph:
    """Graph on all extensions. Each vertex's neighbours come from swapping
    the labels of each incomparable pair of elements and looking the
    result up; two label arrays differ in exactly two positions iff one is
    the other with those labels swapped. Past ``cap`` vertices it raises
    ResourceLimit."""
    try:
        verts = tuple(enumerate_extensions(p, cap=cap))
    except ResourceLimit as exc:
        raise ResourceLimit(
            f"transposition graph exceeded its cap of {cap} vertices: linear "
            f"extension {cap + 1} was found; raise it with --graph-cap"
        ) from exc
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(a, b) for b in range(p.n) for a in range(b) if not p.comparable(a, b)]
    adjacency = []
    for v in verts:
        row = []
        for a, b in pairs:
            if adjacent_only and abs(v[a] - v[b]) != 1:
                continue
            w = list(v)
            w[a], w[b] = v[b], v[a]
            j = index.get(tuple(w))
            if j is not None:
                row.append(j)
        adjacency.append(tuple(sorted(row)))
    edges = tuple((i, j) for i, row in enumerate(adjacency) for j in row if i < j)
    return TranspositionGraph(
        verts,
        edges,
        tuple(_parity(v) for v in verts),
        adjacent_only,
        tuple(adjacency),
    )


def is_connected(g: TranspositionGraph) -> bool:
    if not g.vertices:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def part_sizes(g: TranspositionGraph) -> tuple[int, int]:
    plus = sum(1 for s in g.signs if s > 0)
    return plus, len(g.signs) - plus


def hamiltonian_path(
    g: TranspositionGraph, cap: int = HAMPATH_CAP
) -> list[int] | None:
    """A Hamiltonian path as vertex indices, or None after an exhaustive
    search. A bipartite part-size gap of 2 or more rules a path out
    immediately. The backtracking runs in one loop over an explicit
    stack: each frame holds a path vertex, its unvisited neighbours and
    its untried choices, low-degree continuations first, and the first
    frame's choices are the start vertices. The path is read off the
    frames once it holds every vertex. Each vertex entered, on any
    branch, is one search node; past ``cap`` nodes the search raises
    ResourceLimit."""
    plus, minus = part_sizes(g)
    if abs(plus - minus) > 1 or not is_connected(g):
        return None
    adjacency = g.adjacency
    nv = len(adjacency)
    degree = [len(a) for a in adjacency]
    visited = [False] * nv
    # the first frame holds no vertex, and its choices are the starts
    stack = [(None, [], iter(sorted(range(nv), key=degree.__getitem__)))]
    nodes = 0
    while stack:
        if len(stack) > nv:
            return [v for v, _, _ in stack[1:]]
        v, unvisited, choices = stack[-1]
        w = next(choices, None)
        if w is None:
            stack.pop()
            for u in unvisited:
                degree[u] += 1
            if stack:
                visited[v] = False
            continue
        nodes += 1
        if nodes > cap:
            raise ResourceLimit(
                f"Hamiltonian path search visited {nodes} nodes, over its "
                f"budget of {cap}; raise it with --path-cap"
            )
        visited[w] = True
        unvisited = [u for u in adjacency[w] if not visited[u]]
        for u in unvisited:
            degree[u] -= 1
        # a neighbor left with no other unvisited neighbor must come next,
        # and two such neighbors end the branch
        nexts = [u for u in unvisited if degree[u] == 0]
        if len(nexts) > 1:
            nexts = []
        elif not nexts:
            nexts = sorted(unvisited, key=degree.__getitem__)
        stack.append((w, unvisited, iter(nexts)))
    return None


def ruskey_report(p: Poset) -> dict:
    """Sign imbalance, path existence, and conjecture consistency on the
    any-transposition graph, with the default caps ``GRAPH_CAP`` on the
    graph and ``HAMPATH_CAP`` on the path search.

    Consistency means: not (si <= 1 and no path found), search being
    exhaustive. An inconsistency would contradict an open conjecture and
    almost certainly indicates a bug, so callers should treat it loudly.
    """
    return _graph_report(p, build_graph(p), HAMPATH_CAP)


def _graph_report(p: Poset, g: TranspositionGraph, path_cap: int | None) -> dict:
    """``ruskey_report`` on the already built transposition graph g of p;
    with ``path_cap`` None it reports the graph facts and searches no
    path."""
    plus, minus = part_sizes(g)
    si = abs(plus - minus)
    path = None if path_cap is None else hamiltonian_path(g, path_cap)
    report = {
        "n": p.n,
        "extensions": len(g.vertices),
        "si": si,
        "mode": "adjacent" if g.adjacent_only else "any-transposition",
        # a Hamiltonian path visits every vertex
        "connected": path is not None or is_connected(g),
        "bipartite_by_sign": all(g.signs[a] != g.signs[b] for a, b in g.edges),
    }
    if path_cap is not None:
        report["path_found"] = path is not None
        report["consistent_with_conjecture"] = not (si <= 1 and path is None)
        if path is not None:
            report["path"] = path
    return report
