import pytest

from posetsi import (
    ResourceLimit,
    check_congruence,
    congruence_failures,
    count_extensions,
    euler_numbers,
    euler_numbers_mod,
    primes_never_dividing,
    zigzag,
)

PAPER_PRIMES_600 = [
    3, 7, 11, 23, 83, 107, 163, 167, 179, 191, 199, 211, 227, 239,
    367, 383, 443, 479, 487, 503, 599,
]


def test_first_values():
    assert euler_numbers(6) == [1, 1, 2, 5, 16, 61]


def test_matches_fence_counts():
    table = euler_numbers(12)
    for n in range(1, 13):
        assert table[n - 1] == count_extensions(zigzag(n))


def test_mod_table_consistent():
    table = euler_numbers(30)
    for q in (2, 3, 5, 7, 11, 13):
        assert euler_numbers_mod(30, q) == [x % q for x in table]


def test_congruence_direct_instance():
    # q=3, n=4: E_4 = 5 = 2 mod 3 and E_3 * E_2 = 2
    assert check_congruence(4, 3)


def test_congruence_odd_primes():
    for q in (3, 5, 7, 11):
        for n in range(q + 1, 31):
            assert check_congruence(n, q)


def test_congruence_fails_for_two():
    # parity of the Euler numbers alternates from n = 3 on, so the shift
    # identity cannot hold mod 2; this records the arithmetic fact
    assert not any(check_congruence(n, 2) for n in range(3, 31))


def test_congruence_failures_match_the_exact_table():
    for q in (2, 3, 5, 7, 11, 13):
        for max_n in (0, 1, 3, 4, 12, 30, 60):
            table = euler_numbers(max(max_n, 1))
            want = [
                n
                for n in range(q + 1, max_n + 1)
                if table[n - 1] % q != table[q - 1] * table[n - q] % q
            ]
            assert congruence_failures(max_n, q) == want
            held = [check_congruence(n, q) for n in range(q + 1, max_n + 1)]
            assert [n for n, ok in enumerate(held, q + 1) if not ok] == want


def test_congruence_failures_build_one_table(monkeypatch):
    from posetsi import euler

    built = []
    table = euler.euler_numbers_mod

    def counting(n, q):
        built.append(n)
        return table(n, q)

    monkeypatch.setattr(euler, "euler_numbers_mod", counting)
    assert congruence_failures(12, 2) == list(range(3, 13))
    assert built == [12]
    assert congruence_failures(5, 5) == []
    assert built == [12]  # no table when no n lies above q


def test_tables_need_a_term_and_a_modulus():
    with pytest.raises(ValueError, match="at least one term"):
        euler_numbers(0)
    for nmax, q in ((0, 3), (-1, 5), (3, 1), (3, 0)):
        with pytest.raises(ValueError, match="nmax >= 1 and modulus >= 2"):
            euler_numbers_mod(nmax, q)
    for max_n, q in ((1, 1), (0, 0), (5, 1), (-1, 0)):
        with pytest.raises(ValueError, match="modulus >= 2"):
            congruence_failures(max_n, q)


def test_congruence_domain():
    with pytest.raises(ValueError):
        check_congruence(3, 3)


def test_prime_euler_residues_are_units():
    for q in (3, 5, 7, 11, 13):
        r = euler_numbers_mod(q, q)[q - 1]
        assert r in (1, q - 1)


def test_never_dividing_list():
    assert primes_never_dividing(600) == PAPER_PRIMES_600
    assert primes_never_dividing(250) == PAPER_PRIMES_600[:14]


def test_never_dividing_tiny_bounds():
    assert primes_never_dividing(0) == []
    assert primes_never_dividing(1) == []
    assert primes_never_dividing(2) == []  # E_3 = 2
    assert primes_never_dividing(3) == [3]


def test_never_dividing_matches_per_prime_tables():
    # reference: one modular table of length 3q per prime q. Each bound
    # q adds q to the modulus of the bound q - 1 (which tests the same
    # primes as the prime before q, or none), and so shifts the rows where
    # the modulus shrinks and the row is reduced
    primes = [q for q in range(2, 201) if all(q % d for d in range(2, q))]
    want = [q for q in primes if 0 not in euler_numbers_mod(3 * q, q)]
    assert primes_never_dividing(200) == want
    for bound in [1] + primes:
        assert primes_never_dividing(bound) == [q for q in want if q <= bound]


def test_known_divisible_primes_excluded():
    out = primes_never_dividing(30)
    assert 2 not in out  # E_3 = 2
    assert 5 not in out  # E_4 = 5
    assert 13 not in out
    assert out == [3, 7, 11, 23]


def test_bound_guard():
    with pytest.raises(ResourceLimit):
        primes_never_dividing(10**5)


def test_never_dividing_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        primes_never_dividing(-1)
