"""Acceptance gate: one test per criterion, at the stated scales.

Criterion 13 is split: its Euler-table and prime-list parts and the
congruence for odd moduli pass; the congruence for modulus 2 is asserted
as specified and expected to fail, because the Euler numbers alternate in
parity from the third term on. That failure is recorded via strict xfail
rather than weakened away.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from posetsi import acceptance, domino, linext
from posetsi.euler import check_congruence
from posetsi.generate import enumerate_posets

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


@pytest.mark.xfail(
    strict=True,
    reason="E_n = E_2 * E_{n-1} (mod 2) is false for every n >= 3: the "
    "Euler numbers alternate in parity from E_3 on, so this stated check "
    "cannot pass; kept faithful rather than weakened",
)
def test_criterion_13_congruence_modulus_two():
    assert all(check_congruence(n, 2) for n in range(3, 31))


def allow_cpus(monkeypatch, count):
    """Make the acceptance suite see ``count`` CPUs for this process."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def test_criterion_3_neither_validates_nor_enumerates_labels(monkeypatch):
    # the brute route reads its count and signed sum from the streamed
    # element orders alone; the classes with n <= 5 keep the test short.
    # One CPU keeps the sweep in this process, where the calls are counted.
    allow_cpus(monkeypatch, 1)
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1

    for mod in (linext, domino, acceptance):
        for name in ("_validate", "enumerate_extensions"):
            monkeypatch.setattr(mod, name, counting, raising=False)
    monkeypatch.setattr(
        acceptance,
        "enumerate_posets",
        lambda n: enumerate_posets(n) if n <= 5 else iter(()),
    )
    result = acceptance.criterion_3()
    assert result.details == ["88 classes checked, 0 mismatches"]
    assert calls == 0


def test_criterion_12_process_pool_matches_in_process(monkeypatch):
    # on more than one CPU the sweep runs in a process pool, which pickles
    # every Poset it sends to a worker
    pools = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", Recording)
    allow_cpus(monkeypatch, 2)
    pooled = acceptance.criterion_12()
    allow_cpus(monkeypatch, 1)
    in_process = acceptance.criterion_12()
    assert pools == [2]
    assert pooled == in_process
    assert pooled.ok, pooled.details
