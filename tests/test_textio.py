import pytest

from posetsi import (
    FormatError,
    chain,
    enumerate_posets,
    enumerate_tableaux,
    grid,
    zigzag,
)
from posetsi.textio import (
    parse_family,
    read_poset,
    read_relation_pairs,
    write_poset,
    write_tableau,
)


def test_read_basic():
    p = read_poset("# comment\nn 6\ne 0 1\ne 2 1\ne 2 3\n")
    assert p.n == 6
    assert p.lt(0, 1) and p.lt(2, 3)


def test_roundtrip():
    for n in range(6):
        for p in enumerate_posets(n):
            assert read_poset(write_poset(p)) == p


def test_writer_emits_sorted_covers():
    text = write_poset(zigzag(4))
    assert text == "n 4\ne 0 1\ne 2 1\ne 2 3\n"


def test_read_applies_closure():
    p = read_poset("n 3\ne 0 1\ne 1 2\n")
    assert p.lt(0, 2)


def test_format_errors():
    with pytest.raises(FormatError):
        read_poset("e 0 1\nn 3\n")  # edge before n
    with pytest.raises(FormatError):
        read_poset("n 3\nn 4\n")  # duplicate n
    for count in ("x", "²", "-1", "1_0", "+3"):
        with pytest.raises(FormatError):
            read_poset(f"n {count}\n")
    with pytest.raises(FormatError):
        read_poset("n 3\ne 0 +1\n")
    with pytest.raises(FormatError):
        read_poset("n 3\ne 0\n")
    with pytest.raises(FormatError):
        read_poset("n 3\nz 0 1\n")
    with pytest.raises(FormatError):
        read_poset("")
    with pytest.raises(FormatError):
        read_poset("n 2\ne 0 5\n")  # out of range


def test_relation_pairs():
    assert read_relation_pairs("# c\n0 2\n1 3\n") == [(0, 2), (1, 3)]
    with pytest.raises(FormatError):
        read_relation_pairs("0 1 2\n")


def test_tableau_roundtrip():
    p = zigzag(6)
    [t] = enumerate_tableaux(p)
    assert write_tableau(t) == "pair 0 1\npair 2 3\npair 4 5\n"


def test_tableau_with_singleton():
    from posetsi import disjoint_union

    p = disjoint_union(chain(2), chain(1))
    [t] = enumerate_tableaux(p)
    text = write_tableau(t)
    assert "single 2" in text


def test_parse_family():
    assert parse_family("chain:4") == chain(4)
    assert parse_family("zigzag:6") == zigzag(6)
    assert parse_family("grid:2:3") == grid(2, 3)
    assert parse_family("antichain:3").n == 3
    for bad in ("chain", "chain:x", "chain:-1", "grid:2", "mystery:3", "antichain:1_0"):
        with pytest.raises(FormatError):
            parse_family(bad)
