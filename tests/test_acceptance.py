"""Acceptance gate: one test per criterion, at the stated scales.

Criterion 13 is split: its Euler-table and prime-list parts and the
congruence for odd moduli pass; the congruence for modulus 2 is asserted
as specified and expected to fail, because the Euler numbers alternate in
parity from the third term on. That failure is recorded via strict xfail
rather than weakened away.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from posetsi import acceptance, domino, h2, linext, ruskey
from posetsi.errors import ResourceLimit
from posetsi.euler import check_congruence
from posetsi.generate import enumerate_posets
from conftest import allow_cpus

NUMBERED = {
    1: acceptance.criterion_1,
    2: acceptance.criterion_2,
    3: acceptance.criterion_3,
    4: acceptance.criterion_4,
    5: acceptance.criterion_5,
    6: acceptance.criterion_6,
    7: acceptance.criterion_7,
    8: acceptance.criterion_8,
    9: acceptance.criterion_9,
    10: acceptance.criterion_10,
    11: acceptance.criterion_11,
    12: acceptance.criterion_12,
    14: acceptance.criterion_14,
}


@pytest.mark.parametrize("number", sorted(NUMBERED))
def test_criterion(number):
    result = NUMBERED[number]()
    assert result.ok, f"criterion {number}: {result.details}"


def test_criterion_13_table_primes_and_odd_moduli():
    result = acceptance.criterion_13()
    # everything except the modulus-2 congruence must pass, which the
    # criterion reports through its known-defect flag
    assert result.known_defect, result.details
    assert not result.ok


def test_criterion_9_fails_on_a_decision_past_its_k(monkeypatch):
    decide = h2._h2sb_decide
    calls = []

    def overshooting(q, k):
        calls.append(k)
        decided, pulled = decide(q, k)
        return decided, k + 1 if len(calls) == 1 else pulled

    monkeypatch.setattr(h2, "_h2sb_decide", overshooting)
    result = acceptance.criterion_9()
    assert len(calls) == 7392
    assert not result.ok
    assert result.details == [
        "7392 (poset, k) decisions, 0 disagreements",
        "decided by the down-set walk with no extension pulled: 69",
        "calls enumerating more than their k: 1",
    ]


@pytest.mark.parametrize(
    "number, census, first", [(6, "count_f", 6), (7, "odd_e_bounds", 2)], ids=["6", "7"]
)
def test_census_criteria_fail_with_the_error_text(monkeypatch, number, census, first):
    def raising(n):
        raise ResourceLimit(f"census of {n} over its cap")

    passing = NUMBERED[number]()
    monkeypatch.setattr(h2, census, raising)
    result = NUMBERED[number]()
    assert not result.ok
    assert result.details == [f"census of {first} over its cap"]
    # verify-all names a criterion one way, whether it passes or fails
    assert result.title == passing.title


C11_GRAPHS = "406 graphs built; disconnected: 0, bipartition mismatches: 0"

# case -> (criterion, module, route, the route made wrong from the real
# one, the details the criterion then reports)
WRONG_ROUTES = {
    # phi sends both 2-element label arrays to (2, 1): no involution
    "4-order-two": (
        4, acceptance, "phi",
        lambda real: lambda p, lab: (2, 1) if p.n == 2 else real(p, lab),
        ["406 classes checked, 2 violations"],
    ),
    # phi fixes the 2-element antichain's extensions, adapted to no tableau
    "4-fixed-points": (
        4, acceptance, "phi",
        lambda real: lambda p, lab: lab if p.n == 2 else real(p, lab),
        ["406 classes checked, 1 violations"],
    ),
    # the 2-element antichain's swap keeps its sign
    "4-sign-reversing": (
        4, acceptance, "sign",
        lambda real: lambda p, lab: 1 if p.n == 2 else real(p, lab),
        ["406 classes checked, 1 violations"],
    ),
    # on n = 3 the singleton sits on a pair's bottom, so no extension is
    # adapted; the chain, the V and the 2+1 each have a fixed point
    "4-singleton-label": (
        4, domino, "enumerate_tableaux",
        lambda real: lambda p: [
            t._replace(singleton=t.pairs[0][0]) if p.n == 3 else t for t in real(p)
        ],
        ["406 classes checked, 3 violations"],
    ),
    "5-lift-si": (
        5, acceptance, "_classes",
        lambda real: lambda n, height2: ((p, e + 1) for p, e in real(n, height2)),
        ["43 (P, R) pairs checked, 43 mismatches"],
    ),
    "5-decompose-kind": (
        5, h2, "decompose",
        lambda real: lambda q: real(q)._replace(kind="sign_balanced"),
        ["43 (P, R) pairs checked, 43 mismatches"],
    ),
    # the base relation set loses the non-cover relations of 18 of the
    # 43 good sets, and with them the round trip
    "5-round-trip": (
        5, h2, "decompose",
        lambda real: lambda q: real(q)._replace(rel=h2.good_base(real(q).base)),
        ["43 (P, R) pairs checked, 18 mismatches"],
    ),
    # the one odd-e class has e = 25
    "8": (
        8, acceptance, "_classes",
        lambda real: lambda n, height2: ((p, e + 2) for p, e in real(n, height2)),
        ["odd-e classes: 1, violations: [27]"],
    ),
    # the two-below criterion claims the one-element chain (si = 1)
    "10-criteria": (
        10, linext, "ruskey_criterion",
        lambda real: lambda p: real(p) or p.n == 1,
        [
            "two-below criterion hits: 427, chain-parity hits: 383, violations: 1",
            "grid parity violations: []",
        ],
    ),
    "10-grids": (
        10, acceptance, "grid",
        lambda real: lambda m, n: real(m, n + ((m, n) == (2, 2))),
        [
            "two-below criterion hits: 426, chain-parity hits: 383, violations: 0",
            "grid parity violations: [(2, 2)]",
        ],
    ),
    # a path claimed on every graph: the 5 classes with si > 1
    "11-path-past-the-gap": (
        11, ruskey, "hamiltonian_path",
        lambda real: lambda g, cap: list(range(len(g.vertices))),
        [C11_GRAPHS, "path sweep: 0 conjecture inconsistencies, 5 paths with si > 1"],
    ),
    # no path on any graph: the other 83 of the 88 classes with n <= 5
    "11-no-path": (
        11, ruskey, "hamiltonian_path",
        lambda real: lambda g, cap: None,
        [C11_GRAPHS, "path sweep: 83 conjecture inconsistencies, 0 paths with si > 1"],
    ),
    "12": (
        12, domino, "exists_q_adapted",
        lambda real: lambda p, q: real(p, q) and p.n != 1,
        ["2451 classes checked, 1 violations"],
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_ROUTES))
def test_criteria_fail_on_a_wrong_route(monkeypatch, case):
    number, module, route, wrong, details = WRONG_ROUTES[case]
    monkeypatch.setattr(module, route, wrong(getattr(module, route)))
    result = NUMBERED[number]()
    assert result.ok is False
    assert result.details == details


@pytest.mark.xfail(
    strict=True,
    reason="E_n = E_2 * E_{n-1} (mod 2) is false for every n >= 3: the "
    "Euler numbers alternate in parity from E_3 on, so this stated check "
    "cannot pass; kept faithful rather than weakened",
)
def test_criterion_13_congruence_modulus_two():
    assert all(check_congruence(n, 2) for n in range(3, 31))


@pytest.fixture
def pools(monkeypatch):
    """(worker count, submitted functions) of each process pool that the
    acceptance suite builds."""
    built = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context=None):
            self.tasks = []
            built.append((max_workers, self.tasks))
            super().__init__(max_workers, mp_context)

        def submit(self, fn, /, *args, **kwargs):
            self.tasks.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", Recording)
    return built


def only_small_classes(monkeypatch):
    """Let the class sweeps see the classes with n <= 5 only."""
    monkeypatch.setattr(
        acceptance,
        "enumerate_posets",
        lambda n: enumerate_posets(n) if n <= 5 else iter(()),
    )


def test_criterion_3_neither_validates_nor_enumerates_labels(monkeypatch):
    # the brute route reads its count and signed sum from the streamed
    # element orders alone; the classes with n <= 5 keep the test short
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1

    for mod in (linext, domino, acceptance):
        for name in ("_validate", "enumerate_extensions"):
            monkeypatch.setattr(mod, name, counting, raising=False)
    only_small_classes(monkeypatch)
    result = acceptance.criterion_3()
    assert result.details == ["88 classes checked, 0 mismatches"]
    assert calls == 0


def test_class_sweeps_build_no_pool(monkeypatch, pools):
    # each criterion checks its classes in the calling process, on any
    # number of CPUs, so no Poset is pickled
    allow_cpus(monkeypatch, 2)
    only_small_classes(monkeypatch)
    for criterion in (
        acceptance.criterion_3,
        acceptance.criterion_4,
        acceptance.criterion_11,
        acceptance.criterion_12,
    ):
        result = criterion()
        assert result.ok, result.details
    assert pools == []


def test_run_all_builds_one_pool(monkeypatch, pools):
    # on more than one CPU, run_all runs whole criteria in one pool and
    # returns their results in CRITERIA order
    criteria = [
        acceptance.criterion_1,
        acceptance.criterion_2,
        acceptance.criterion_12,
        acceptance.criterion_14,
    ]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    allow_cpus(monkeypatch, 2)
    pooled = acceptance.run_all()
    allow_cpus(monkeypatch, 1)
    in_process = acceptance.run_all()
    assert pools == [(2, criteria)]
    assert pooled == in_process
    assert [r.number for r in pooled] == [1, 2, 12, 14]
    assert all(r.ok for r in pooled), pooled
    # no more workers than criteria
    monkeypatch.setattr(acceptance, "CRITERIA", criteria[-1:])
    allow_cpus(monkeypatch, 2)
    assert acceptance.run_all() == [acceptance.criterion_14()]
    assert pools[1:] == [(1, criteria[-1:])]
