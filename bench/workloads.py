"""Workloads of the posetsi benchmark: query lists, seeded inputs and the
expected answer of every query.

A query is one CLI invocation (``posetsi <args> --json``) or one library
call, run in a fresh interpreter by ``query.py``. Expected answers come
from closed forms, from published values, or from the small exact routines
below, which share no code with the package under test. The package is
used here only to write the seeded poset files (``textio.write_poset``)
and for the prime list of its acceptance suite.
"""

import json
import math
import os
import random
from typing import Callable, NamedTuple

# Seeded inputs are drawn until their size lands in a band, so that the
# seed changes the shape of an input but not the work it takes.
RANDOM_POSET = {"n": 30, "edge_prob": 0.1, "ideals": (45_000, 50_000)}
LIFT_BASE = {"n": 10, "edge_prob": 0.1, "extensions": (250_000, 320_000)}
SMOKE_RANDOM_POSET = {"n": 12, "edge_prob": 0.3, "ideals": (30, 80)}
SMOKE_LIFT_BASE = {"n": 5, "edge_prob": 0.2, "extensions": (8, 60)}
MAX_DRAWS = 10_000

# published or closed-form values the checks compare against
GRID_SI = {(5, 6): 286, (4, 4): 0, (2, 3): 1, (2, 5): 2}
CLASS_COUNTS = {5: 63, 7: 2045}  # OEIS A000112
F_COUNTS = {5: 1, 8: 13}
ODD_E = {  # bounds --n: (classes with odd e, the odd e values)
    2: (1, [5]),
    4: (13, [1145, 1181, 1217, 1281, 1289, 1385, 1439, 1511, 1613]),
}
SPECTRUM = {5: (18, 102), 8: (310, 40010)}  # max-n: (values, gaps)
TABLEAUX = {(4, 6): 281, (2, 4): 5}  # domino tableaux of the grid


class Query(NamedTuple):
    """One timed query.

    ``kind`` is ``cli`` (``args`` go to ``posetsi``) or ``classes``
    (``enumerate_posets(int(args[0]))``). ``check`` maps the query's
    standard output to None when the answer is right, else to a reason.
    ``order`` is the poset whose down-set lattice the DP walks, as
    (n, down masks), for the per-layer down-set counts; ``primes`` is the
    number of primes an Euler sweep tests.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[str], str | None]
    order: tuple[int, list[int]] | None = None
    primes: int = 0


# --- exact routines independent of the package ------------------------


def closure(n: int, pairs) -> list[int]:
    """Strict down-set masks of the transitive closure of pairs u < v."""
    down = [0] * n
    for u, v in pairs:
        down[v] |= 1 << u
    changed = True
    while changed:
        changed = False
        for v in range(n):
            new = down[v]
            for u in range(n):
                if down[v] >> u & 1:
                    new |= down[u]
            if new != down[v]:
                down[v] = new
                changed = True
    return down


def extensions(n: int, down: list[int]) -> int:
    """Linear extension count, by a DP over the down-set lattice."""
    layer = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, count in layer.items():
            for x in range(n):
                bit = 1 << x
                if not mask & bit and not down[x] & ~mask:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        layer = nxt
    return layer[(1 << n) - 1]


def ideal_sizes(n: int, down: list[int]) -> list[int]:
    """Number of down-sets of each size, without walking the lattice.

    The down-sets of an order Q either omit an element x, and are then the
    down-sets of Q minus the up-set of x, or contain x, and are then the
    down-set of x joined to a down-set of Q minus the down-set of x.
    Branching on the element with the most comparabilities keeps the
    memoised subproblems few.
    """
    up = [0] * n
    for v in range(n):
        for u in range(n):
            if down[v] >> u & 1:
                up[u] |= 1 << v
    memo = {0: [1]}

    def sizes(mask: int) -> list[int]:
        if mask in memo:
            return memo[mask]
        x = max(
            (y for y in range(n) if mask >> y & 1),
            key=lambda y: ((up[y] | down[y]) & mask).bit_count(),
        )
        without = sizes(mask & ~(up[x] | 1 << x))
        below = down[x] | 1 << x
        shift = (below & mask).bit_count()
        rest = sizes(mask & ~below)
        out = [0] * (shift + len(rest))
        for k, c in enumerate(without):
            out[k] += c
        for k, c in enumerate(rest):
            out[k + shift] += c
        memo[mask] = out
        return out

    return sizes((1 << n) - 1)


def euler_number(n: int) -> int:
    """E_n, the number of linear extensions of the n-element zigzag."""
    row = [1]
    for _ in range(n):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
    return row[-1]


def grid_extensions(m: int, n: int) -> int:
    """Standard Young tableaux of the m x n rectangle (hook length)."""
    hooks = 1
    for i in range(m):
        for j in range(n):
            hooks *= (m - i - 1) + (n - j - 1) + 1
    return math.factorial(m * n) // hooks


def zigzag_down(n: int) -> list[int]:
    return closure(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])


def prime_count(bound: int) -> int:
    return sum(1 for q in range(2, bound + 1) if all(q % d for d in range(2, math.isqrt(q) + 1)))


def read_cover_text(text: str) -> tuple[int, list[int]]:
    """(n, down masks) of a poset in the package's 'n / e u v' text format."""
    n = 0
    pairs = []
    for line in text.splitlines():
        tok = line.split()
        if tok and tok[0] == "n":
            n = int(tok[1])
        elif tok and tok[0] == "e":
            pairs.append((int(tok[1]), int(tok[2])))
    return n, closure(n, pairs)


# --- seeded inputs -----------------------------------------------------


def _random_pairs(rng: random.Random, n: int, prob: float) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]


def _write_poset(path: str, n: int, pairs) -> None:
    from posetsi.poset import from_covers
    from posetsi.textio import write_poset

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_poset(from_covers(n, pairs)))


def draw_random_poset(seed: int, spec: dict) -> tuple[int, list, list[int], int]:
    """A random order on spec['n'] elements whose down-set count lies in
    spec['ideals']: returns (draws, pairs, down masks, down-sets)."""
    rng = random.Random(f"large_dp/{seed}")
    lo, hi = spec["ideals"]
    for draw in range(1, MAX_DRAWS + 1):
        pairs = _random_pairs(rng, spec["n"], spec["edge_prob"])
        down = closure(spec["n"], pairs)
        ideals = sum(ideal_sizes(spec["n"], down))
        if lo <= ideals <= hi:
            return draw, pairs, down, ideals
    raise RuntimeError(f"no random poset in the band after {MAX_DRAWS} draws")


def draw_lift(seed: int, spec: dict) -> tuple[int, list, int]:
    """Base B on spec['n'] elements with e(B) in spec['extensions'] and a
    random good set R (diagonal, covers, and each other relation with
    probability 1/2). Returns (draws, lift pairs, e(B)); the lift puts
    bottom x below top n + y for each (x, y) in R, so si(lift) = e(B)."""
    rng = random.Random(f"structure/{seed}")
    n = spec["n"]
    lo, hi = spec["extensions"]
    for draw in range(1, MAX_DRAWS + 1):
        down = closure(n, _random_pairs(rng, n, spec["edge_prob"]))
        e = extensions(n, down)
        if lo <= e <= hi:
            break
    else:
        raise RuntimeError(f"no lift base in the band after {MAX_DRAWS} draws")
    rel = [(x, x) for x in range(n)]
    for y in range(n):
        for x in range(n):
            if down[y] >> x & 1:
                cover = not any(down[y] >> w & 1 and down[w] >> x & 1 for w in range(n))
                if cover or rng.random() < 0.5:
                    rel.append((x, y))
    return draw, [(x, n + y) for x, y in rel], e


# --- answer checks -------------------------------------------------------


def _payload(out: str):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _expect(**want) -> Callable[[str], str | None]:
    """Check that the JSON payload has these fields; a callable value is a
    predicate on the field."""

    def check(out: str) -> str | None:
        got = _payload(out)
        if not isinstance(got, dict):
            return f"no JSON object in output {out[-200:]!r}"
        for key, value in want.items():
            ok = value(got.get(key)) if callable(value) else got.get(key) == value
            if not ok:
                return f"{key} = {str(got.get(key))[:200]}, expected {value.__doc__ if callable(value) else value}"
        return None

    return check


def _count(e: int):
    return _expect(e=str(e))


def _si(e: int, si: int):
    return _expect(e=str(e), si=str(si), si_quotient=str(si))


def _domino(m: int, n: int, si: int):
    def consistent(tabs):
        """the quotient sum over the listed tableaux"""
        total = sum(t["sign"] * int(t["adapted_count"]) for t in tabs)
        return len(tabs) == TABLEAUX[(m, n)] and abs(total) == si

    return _expect(si=str(si), tableaux=consistent)


def _ruskey(n: int, hampath: bool):
    want = {"extensions": euler_number(n), "si": 1 - n % 2,
            "bipartite_by_sign": True, "connected": True}
    if not hampath:
        return _expect(**want)

    def check(out: str) -> str | None:
        got = _payload(out) or {}
        if got.get("consistent_with_conjecture") is not True:
            return "inconsistent with the conjecture"
        if got.get("path_found") and len(set(got.get("path", []))) != want["extensions"]:
            return "path does not visit every extension"
        return _expect(**want)(out)

    return check


def _decompose(e_base: int):
    def base_e(text):
        """a base with e(B) extensions"""
        return isinstance(text, str) and extensions(*read_cover_text(text)) == e_base

    return _expect(kind="lift", base=base_e)


def _classes(n: int):
    def check(out: str) -> str | None:
        got = out.strip()
        return None if got == str(CLASS_COUNTS[n]) else f"{got[:80]} classes, expected {CLASS_COUNTS[n]}"

    return check


def _primes(bound: int):
    from posetsi.acceptance import NEVER_DIVIDING_600

    want = [q for q in NEVER_DIVIDING_600 if q <= bound]

    def check(out: str) -> str | None:
        return None if _payload(out) == want else f"primes {out.strip()[:200]}, expected {want}"

    return check


def _bounds(n: int):
    classes, values = ODD_E[n]
    return _expect(classes_with_odd_e=classes, odd_e_values=values,
                   lower=math.factorial(n) ** 2,
                   upper=math.factorial(n) * math.prod(range(1, 2 * n, 2)))


def _spectrum(max_n: int):
    nvalues, ngaps = SPECTRUM[max_n]

    def sized(k):
        def pred(xs):
            return isinstance(xs, list) and len(xs) == k
        pred.__doc__ = f"{k} entries"
        return pred

    return _expect(values=sized(nvalues), gaps=sized(ngaps),
                   max_vertices=max_n)


def _cli(name: str, check, order=None, primes: int = 0) -> Query:
    return Query(name, "cli", tuple(name.split()) + ("--json",), check, order, primes)


# --- the workloads -------------------------------------------------------


def large_dp(seed: int, workdir: str, smoke: bool) -> tuple[list[Query], dict]:
    """One big exact DP per query; the seeded poset is often disconnected."""
    spec = SMOKE_RANDOM_POSET if smoke else RANDOM_POSET
    draws, pairs, down, ideals = draw_random_poset(seed, spec)
    e = extensions(spec["n"], down)
    path = os.path.join(workdir, "random.poset")
    _write_poset(path, spec["n"], pairs)
    zz_count, zz_si, anti = (12, 8, 6) if smoke else (25, 24, 15)
    rnd = (spec["n"], down)
    queries = [
        _cli(f"count zigzag:{zz_count}", _count(euler_number(zz_count)),
             (zz_count, zigzag_down(zz_count))),
        _cli(f"si zigzag:{zz_si}", _si(euler_number(zz_si), 1 - zz_si % 2),
             (zz_si, zigzag_down(zz_si))),
        _cli(f"count antichain:{anti}", _count(math.factorial(anti)), (anti, [0] * anti)),
        Query("count random", "cli", ("count", path, "--json"), _count(e), rnd),
        Query("si random", "cli", ("si", path, "--json"), _expect(e=str(e)), rnd),
    ]
    return queries, {"random_poset": dict(spec, draws=draws, ideals_drawn=ideals)}


def sweep(seed: int, workdir: str, smoke: bool) -> tuple[list[Query], dict]:
    """Exhaustive sweeps from a cold cache; no random input."""
    f, bounds, spec, bound, classes = (5, 2, 5, 60, 5) if smoke else (8, 4, 8, 400, 7)
    queries = [
        _cli(f"f --n {f}", _expect(formula=F_COUNTS[f], direct=F_COUNTS[f])),
        _cli(f"bounds --n {bounds}", _bounds(bounds)),
        _cli(f"spectrum --max-n {spec}", _spectrum(spec)),
        _cli(f"euler --primes --bound {bound}", _primes(bound), primes=prime_count(bound)),
        Query(f"enumerate_posets({classes})", "classes", (str(classes),), _classes(classes)),
    ]
    return queries, {}


def structure(seed: int, workdir: str, smoke: bool) -> tuple[list[Query], dict]:
    """Tableaux, quotients, transposition graphs and the height-2 decider."""
    spec = SMOKE_LIFT_BASE if smoke else LIFT_BASE
    draws, pairs, e_base = draw_lift(seed, spec)
    path = os.path.join(workdir, "lift.poset")
    _write_poset(path, 2 * spec["n"], pairs)
    g1, dom, g2 = ((2, 3), (2, 4), (2, 5)) if smoke else ((5, 6), (4, 6), (4, 4))
    zz, zz_path = (5, 5) if smoke else (8, 7)
    queries = [
        _cli(f"si grid:{g1[0]}:{g1[1]}", _si(grid_extensions(*g1), GRID_SI[g1])),
        _cli(f"domino grid:{dom[0]}:{dom[1]}", _domino(*dom, 0)),
        _cli(f"ruskey zigzag:{zz}", _ruskey(zz, False)),
        _cli(f"ruskey zigzag:{zz_path} --adjacent --hampath", _ruskey(zz_path, True)),
        _cli(f"si grid:{g2[0]}:{g2[1]}", _expect(e=str(grid_extensions(*g2)), si=str(GRID_SI[g2]),
                                                 si_brute=str(GRID_SI[g2]))),
        Query("si lift", "cli", ("si", path, "--json"), _expect(si=str(e_base))),
        Query("h2sb lift", "cli", ("h2sb", path, "--k", str(e_base), "--json"),
              _expect(at_least=True)),
        Query("decompose lift", "cli", ("decompose", path, "--json"), _decompose(e_base)),
    ]
    return queries, {"lift_base": dict(spec, draws=draws, e_base=e_base)}


WORKLOADS = {"large_dp": large_dp, "sweep": sweep, "structure": structure}
