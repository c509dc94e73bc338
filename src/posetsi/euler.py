"""Euler zigzag numbers and divisibility phenomena of fence posets.

E_n counts the linear extensions of the n-element zigzag poset (OEIS
A000111 shifted to start at E_1 = 1). The table is computed by the
boustrophedon recurrence with exact integers, each row as the prefix
sums of the last one reversed. The prime sweep streams the table once,
modulo the product of the primes still under test, and drops each prime
as soon as it divides a term or leaves its window: the primes that
divide E_n are those of gcd(E_n, modulus). A modular variant backs the
congruence check, one table per modulus. Both reduce a row only once
its last, largest entry is ``_SLACK_BITS`` bits past the modulus, and
the sweep also whenever its modulus shrinks. For
odd primes q and n > q the congruence E_n = E_q * E_{n-(q-1)} (mod q)
reduces divisibility questions to the first q values; a guard window up
to 3q is checked as well because the congruence fails for q = 2 (Euler
parities alternate from n = 3 on).
"""

import math
from itertools import accumulate

from .errors import ResourceLimit

__all__ = [
    "euler_numbers",
    "euler_numbers_mod",
    "check_congruence",
    "congruence_failures",
    "primes_never_dividing",
]


# a row is reduced once its largest entry is this many bits past the
# modulus: entries stay a few limbs above it, and most rows skip the
# reduction, which makes a call per entry, while the row step runs in C
_SLACK_BITS = 256


def _boustrophedon(nmax: int, mod: int | None = None):
    """Yield E_1..E_nmax, keeping one row of the zigzag triangle;
    optionally reduced mod q."""
    row = [1]
    for _ in range(nmax):
        row = list(accumulate(reversed(row), initial=0))
        if mod is not None and row[-1] >> _SLACK_BITS >= mod:
            row = list(map(mod.__rmod__, row))
        yield row[-1] if mod is None else row[-1] % mod


def euler_numbers(nmax: int) -> list[int]:
    """Exact [E_1, ..., E_nmax]; E_1 = E_2 = 1, E_3 = 2, E_6 = 61, ..."""
    if nmax < 1:
        raise ValueError("need at least one term")
    return list(_boustrophedon(nmax))


def euler_numbers_mod(nmax: int, q: int) -> list[int]:
    if nmax < 1 or q < 2:
        raise ValueError("need nmax >= 1 and modulus >= 2")
    return list(_boustrophedon(nmax, q))


def check_congruence(n: int, q: int) -> bool:
    """Does E_n = E_q * E_{n-(q-1)} hold mod q? Requires n > q >= 2."""
    if n <= q:
        raise ValueError("the congruence is stated for n > q")
    return n not in congruence_failures(n, q)


def congruence_failures(max_n: int, q: int) -> list[int]:
    """The n in q+1..max_n where the congruence fails mod q, from one
    table of E_1..E_max_n mod q (none is built when max_n <= q)."""
    if q < 2:
        raise ValueError("need modulus >= 2")
    if max_n <= q:
        return []
    em = euler_numbers_mod(max_n, q)
    return [
        n for n in range(q + 1, max_n + 1) if em[n - 1] != em[q - 1] * em[n - q] % q
    ]


def _primes_upto(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(bound + 1) if sieve[i]]


def primes_never_dividing(bound: int) -> list[int]:
    """Primes q <= bound with q dividing no E_n at all.

    For odd primes, q never dividing E_1..E_q is sufficient via the
    congruence; the window is still extended to 3q as a guard, which is
    what correctly rejects q = 2 (E_3 = 2). One pass over E_1, E_2, ...
    keeps the zigzag row modulo the product of the primes still under
    test, those not yet dropped with 3q >= n; each residue mod q is exact
    because q divides that modulus. The modulus is squarefree, so
    gcd(E_n, modulus) is the product of the primes under test that
    divide E_n, and they leave the test. At n = 3q a prime q still
    under test passes and leaves; it is the smallest under test, as each
    smaller prime has left by its own window. The row is reduced
    whenever the modulus shrinks, and otherwise only once its last entry
    is ``_SLACK_BITS`` bits past the modulus; the pass ends once no
    prime is left.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > 10**4:
        raise ResourceLimit("documented practical bound is 10^4")
    testing, passed = _primes_upto(bound), []
    mod, row, n = math.prod(testing), [1], 0
    while testing:
        n += 1
        row = list(accumulate(reversed(row), initial=0))
        drop = math.gcd(row[-1], mod)
        if 3 * testing[0] == n and drop % testing[0]:
            passed.append(testing[0])
            drop *= testing[0]
        if drop > 1:
            mod //= drop
            testing = [q for q in testing if drop % q]
        if drop > 1 or row[-1] >> _SLACK_BITS >= mod:
            row = list(map(mod.__rmod__, row))
    return passed
