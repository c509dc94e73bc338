"""Acceptance suite: every desk-scale numerical claim as a pass/fail check.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify-all`` subcommand runs them in order and exits nonzero if any
fails. Every criterion is one sequential check in the process that calls
it. Only ``run_all`` starts processes, and each of them runs whole
criteria. Criterion 2 builds its eight-cycle exactly as drawn in its
figure.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple, Sequence

from . import domino, h2, linext, ruskey
from .canon import is_isomorphic
from .errors import PosetsiError
from .euler import congruence_failures, euler_numbers, primes_never_dividing
from .generate import _classes, enumerate_posets
from .linext import (
    count_extensions,
    enumerate_extensions,
    forest_count,
    phi,
    sign,
    signed_count,
)
from .poset import Poset, from_covers, grid, zigzag

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


class CriterionResult(NamedTuple):
    number: int
    title: str
    ok: bool
    details: Sequence[str] = ()
    known_defect: bool = False

    @property
    def status(self) -> str:
        if self.ok:
            return "PASS"
        return "FAIL (known spec defect)" if self.known_defect else "FAIL"


def criterion_1() -> CriterionResult:
    sc = signed_count(zigzag(6))
    ok = sc.total == 61 and sc.imbalance == 1
    return CriterionResult(
        1,
        "six-element fence: e = 61 and si = 1",
        ok,
        [f"e = {sc.total} (want 61), si = {sc.imbalance} (want 1)"],
    )


def criterion_2() -> CriterionResult:
    # Hasse diagram is an eight-cycle with exactly two matchings
    p = from_covers(
        8, [(1, 0), (7, 0), (2, 1), (3, 2), (3, 4), (4, 5), (6, 5), (6, 7)]
    )
    tabs = domino.enumerate_tableaux(p)
    details = [f"tableaux found: {len(tabs)} (want 2)"]
    ok = len(tabs) == 2
    if ok:
        counts = sorted(
            count_extensions(domino.quotient(p, t)) for t in tabs
        )
        signs = sorted(domino.tableau_sign(p, t) for t in tabs)
        signed_q = domino.si_via_quotients(p)
        signed_dp = signed_count(p).signed
        details += [
            f"quotient extension counts: {counts} (want [2, 4])",
            f"tableau signs: {signs} (want [-1, 1])",
            f"si: quotient route {abs(signed_q)}, signed DP {abs(signed_dp)} "
            "(want 2, with one sign)",
        ]
        ok = counts == [2, 4] and signs == [-1, 1] and signed_q == signed_dp
        ok = ok and abs(signed_q) == 2
    return CriterionResult(
        2, "eight-cycle: two tableaux, quotient counts {4, 2}, si = 2", ok, details
    )


def criterion_3() -> CriterionResult:
    classes = [p for n in range(8) for p in enumerate_posets(n)]
    bad = 0
    for p in classes:
        sc, brute = signed_count(p), linext._enumerated_signed(p)
        bad += brute != (sc.total, sc.signed) or sc.signed != domino.si_via_quotients(p)
    return CriterionResult(
        3,
        "oracle equivalence on all classes with n <= 7: "
        "brute = signed DP = quotient route",
        bad == 0,
        [f"{len(classes)} classes checked, {bad} mismatches"],
    )


def _c4_worker(p: Poset) -> bool:
    tabs = domino.enumerate_tableaux(p)
    for lab in enumerate_extensions(p):
        image = phi(p, lab)
        if phi(p, image) != lab:
            return False
        fixed = image == lab
        if fixed != any(_is_adapted_to(p, lab, t) for t in tabs):
            return False
        if not fixed and sign(p, image) != -sign(p, lab):
            return False
    return True


def _is_adapted_to(p: Poset, labels, t) -> bool:
    for bot, top in t.pairs:
        if labels[top] != labels[bot] + 1 or labels[bot] % 2 == 0:
            return False
    if t.singleton is not None and labels[t.singleton] != p.n:
        return False
    return True


def criterion_4() -> CriterionResult:
    classes = [p for n in range(7) for p in enumerate_posets(n)]
    bad = sum(not _c4_worker(p) for p in classes)
    return CriterionResult(
        4,
        "involution suite on all classes with n <= 6: order two, "
        "sign-reversing, fixed points = adapted extensions",
        bad == 0,
        [f"{len(classes)} classes checked, {bad} violations"],
    )


def criterion_5() -> CriterionResult:
    checked = 0
    bad = 0
    for n in range(5):
        for p, e in _classes(n, False):
            for rel in h2.enumerate_good_sets(p):
                lifted = h2.build_lift(p, rel)
                checked += 1
                if signed_count(lifted).imbalance != e:
                    bad += 1
                    continue
                dec = h2.decompose(lifted)
                if dec.kind != "lift" or not is_isomorphic(dec.base, p):
                    bad += 1
                    continue
                if not is_isomorphic(h2.build_lift(dec.base, dec.rel), lifted):
                    bad += 1
    return CriterionResult(
        5,
        "main lemma: si(lift(P, R)) = e(P) for all |P| <= 4 and good R, "
        "with decompose round-trip",
        bad == 0,
        [f"{checked} (P, R) pairs checked, {bad} mismatches"],
    )


def criterion_6() -> CriterionResult:
    title = "odd-count census: f(6) = f(7) = 3, f(8) within strict bounds"
    try:
        f6 = h2.count_f(6)
        f7 = h2.count_f(7)
        f8 = h2.count_f(8)
    except PosetsiError as exc:
        return CriterionResult(6, title, False, [str(exc)])
    details = [
        f"f(6) = {f6['formula']}/{f6['direct']} (want 3/3)",
        f"f(7) = {f7['formula']}/{f7['direct']} (want 3/3)",
        f"f(8) = {f8['formula']}/{f8['direct']} (want agreement, 8 < f(8) < 64)",
    ]
    ok = (
        f6["formula"] == f6["direct"] == 3
        and f7["formula"] == f7["direct"] == 3
        and f8["formula"] == f8["direct"]
        and 8 < f8["formula"] < 64
    )
    return CriterionResult(6, title, ok, details)


def criterion_7() -> CriterionResult:
    title = (
        "factorial bounds on odd extension counts; six-vertex odd set is "
        "{57, 61, 75}"
    )
    try:
        r2 = h2.odd_e_bounds(2)
        r3 = h2.odd_e_bounds(3)
    except PosetsiError as exc:
        return CriterionResult(7, title, False, [str(exc)])
    details = [
        f"4 vertices: odd e values {r2['odd_e_values']} within "
        f"[{r2['lower']}, {r2['upper']}]",
        f"6 vertices: odd e values {r3['odd_e_values']} within "
        f"[{r3['lower']}, {r3['upper']}] (want exactly [57, 61, 75])",
    ]
    return CriterionResult(7, title, r3["odd_e_values"] == [57, 61, 75], details)


def criterion_8() -> CriterionResult:
    bad = []
    total = 0
    for _, e in _classes(5, True):
        if e % 2 == 1:
            total += 1
            if e % 5 != 0:
                bad.append(e)
    return CriterionResult(
        8,
        "every five-vertex height-2 class with odd e has e divisible by 5",
        not bad,
        [f"odd-e classes: {total}, violations: {bad}"],
    )


def criterion_9() -> CriterionResult:
    bad = 0
    overshoot = 0
    checked = 0
    walked = 0
    for n in range(9):
        for p in enumerate_posets(n, height2=True):
            si = signed_count(p).imbalance
            for k in sorted({*range(9), si, si + 1, 20 * si}):
                checked += 1
                decided, pulled = h2._h2sb_decide(p, k)
                bad += decided != (si >= k)
                overshoot += pulled > k
                # si > 0 makes q a lift whose base has e >= 1
                # extensions, so no pull means the walk decided
                walked += si > 0 and k > 0 and pulled == 0
    return CriterionResult(
        9,
        "height-2 decider matches the signed DP's si >= k for n <= 8 and k "
        "in 0..8, si, si + 1 and 20 si, enumerating at most k quotient extensions",
        bad == 0 and overshoot == 0,
        [
            f"{checked} (poset, k) decisions, {bad} disagreements",
            f"decided by the down-set walk with no extension pulled: {walked}",
            f"calls enumerating more than their k: {overshoot}",
        ],
    )


def criterion_10() -> CriterionResult:
    bad = 0
    hits_r = hits_s = 0
    for n in range(8):
        for p in enumerate_posets(n):
            r, s = linext.ruskey_criterion(p), linext.stanley_criterion(p)
            if not (r or s):
                continue
            hits_r += r
            hits_s += s
            if signed_count(p).imbalance != 0:
                bad += 1
    grid_bad = []
    for m in range(2, 5):
        for n in range(2, 5):
            balanced = signed_count(grid(m, n)).imbalance == 0
            if balanced != (m % 2 == n % 2):
                grid_bad.append((m, n))
    return CriterionResult(
        10,
        "classical balance criteria imply si = 0 (n <= 7); grid balance "
        "iff equal side parity (2..4)",
        bad == 0 and not grid_bad,
        [
            f"two-below criterion hits: {hits_r}, chain-parity hits: {hits_s}, "
            f"violations: {bad}",
            f"grid parity violations: {grid_bad}",
        ],
    )


def criterion_11() -> CriterionResult:
    classes6 = [p for n in range(7) for p in enumerate_posets(n)]
    disconnected = badparts = 0
    for p in classes6:
        rep = ruskey._graph_report(p, ruskey.build_graph(p, adjacent_only=True), None)
        si = signed_count(p).imbalance
        disconnected += not rep["connected"]
        badparts += not rep["bipartite_by_sign"] or rep["si"] != si
    inconsistent = 0
    path_si_violations = 0
    for n in range(6):
        for p in enumerate_posets(n):
            rep = ruskey.ruskey_report(p)
            if rep["path_found"] and rep["si"] > 1:
                path_si_violations += 1
            if not rep["consistent_with_conjecture"]:
                inconsistent += 1
    return CriterionResult(
        11,
        "graph properties: adjacent-mode connectivity (n <= 6), sign "
        "bipartition gap = si, path sweep consistent (n <= 5)",
        disconnected == 0
        and badparts == 0
        and inconsistent == 0
        and path_si_violations == 0,
        [
            f"{len(classes6)} graphs built; disconnected: {disconnected}, "
            f"bipartition mismatches: {badparts}",
            f"path sweep: {inconsistent} conjecture inconsistencies, "
            f"{path_si_violations} paths with si > 1",
        ],
    )


def criterion_12() -> CriterionResult:
    classes = [c for n in range(8) for c in _classes(n, False)]
    bad = sum(
        not all(e % q == 0 or domino.exists_q_adapted(p, q) for q in (2, 3, 5))
        for p, e in classes
    )
    return CriterionResult(
        12,
        "block-adapted extensions exist whenever q does not divide e "
        "(n <= 7, q in {2, 3, 5})",
        bad == 0,
        [f"{len(classes)} classes checked, {bad} violations"],
    )


# the prime list up to 600 obtained from the Euler table itself
NEVER_DIVIDING_600 = [
    3, 7, 11, 23, 83, 107, 163, 167, 179, 191, 199, 211, 227, 239,
    367, 383, 443, 479, 487, 503, 599,
]


def criterion_13() -> CriterionResult:
    details = []
    table = euler_numbers(500)
    table_ok = all(
        table[n - 1] == count_extensions(zigzag(n)) for n in range(1, 13)
    )
    details.append(f"table vs fence counts (n <= 12): {'PASS' if table_ok else 'FAIL'}")

    forest_ok = all(
        table[n - 1] == forest_count(zigzag(n)).total
        for n in [*range(1, 101), 500]
    )
    details.append(
        f"table vs forest-route fence counts (n <= 100 and n = 500): "
        f"{'PASS' if forest_ok else 'FAIL'}"
    )

    odd_ok = not any(congruence_failures(30, q) for q in (3, 5, 7, 11))
    details.append(
        f"congruence for q in {{3, 5, 7, 11}}, n <= 30: "
        f"{'PASS' if odd_ok else 'FAIL'}"
    )

    q2_failures = congruence_failures(30, 2)
    q2_ok = not q2_failures
    details.append(
        f"congruence for q = 2, n <= 30: "
        f"{'PASS' if q2_ok else f'FAIL at every n in {q2_failures[0]}..30'} "
        "(Euler parities alternate from n = 3 on, so "
        "E_n = E_2 * E_(n-1) mod 2 is arithmetically impossible; "
        "kept as stated and expected to fail)"
    )

    primes = primes_never_dividing(600)
    primes_ok = primes == NEVER_DIVIDING_600
    details.append(
        f"never-dividing primes up to 600: {'PASS' if primes_ok else 'FAIL'} "
        f"({len(primes)} primes, ending {primes[-1] if primes else None})"
    )
    return CriterionResult(
        13,
        "Euler suite: table identity, congruence grid, never-dividing primes",
        table_ok and forest_ok and odd_ok and q2_ok and primes_ok,
        details,
        known_defect=table_ok and forest_ok and odd_ok and primes_ok and not q2_ok,
    )


def criterion_14() -> CriterionResult:
    return CriterionResult(
        14,
        "declared not desk-reproducible",
        True,
        [
            "asymptotic census growth rates, the logarithmic-size witness "
            "construction, and the full 13-digit non-realizability "
            "computation are out of desk scale; criteria 6-8 cover their "
            "bounded analogues",
        ],
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
]


def run_all() -> list[CriterionResult]:
    """Every criterion's result, in ``CRITERIA`` order: each criterion
    runs whole in one process pool when this process may run on more than
    one CPU, and the criteria run here in turn otherwise."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus <= 1:
        return [c() for c in CRITERIA]
    # spawned workers import the package afresh and inherit no threads
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(cpus, len(CRITERIA)), spawn) as pool:
        futures = [pool.submit(c) for c in CRITERIA]
        return [f.result() for f in futures]
