import argparse
import json
import math

import pytest

from posetsi.cli import build_parser, main
from posetsi.errors import PosetsiError, ResourceLimit, VerificationError
from posetsi.h2 import build_lift, good_base
from posetsi.poset import chain, disjoint_union
from posetsi.textio import parse_family, read_poset, write_poset
from conftest import allow_cpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "zigzag:6")
    assert code == 0
    assert out.strip() == "e = 61"


def test_si_reports_all_routes(capsys):
    code, out, _ = run(capsys, "si", "zigzag:6", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep == {
        "e": "61",
        "signed": "1",
        "si": "1",
        "si_brute": "1",
        "si_quotient": "1",
        "route": "forest",
    }


def test_si_skips_brute_over_cap(capsys):
    code, out, _ = run(capsys, "si", "antichain:10", "--json")  # e = 10! > 10^6
    assert code == 0
    rep = json.loads(out)
    assert rep["si_brute"] is None
    assert rep["e"] == "3628800"


def test_si_brute_route_uses_enum_cap(capsys, monkeypatch, tmp_path):
    # brute force runs just when e, or n! while e is uncounted, is at most
    # ENUM_CAP, and enumerates under that cap, not the function's default
    from posetsi import cli, linext

    lift = tmp_path / "lift.poset"  # 6 elements, e = 57 left uncounted
    lift.write_text(write_poset(build_lift(chain(3), good_base(chain(3)) | {(0, 2)})))
    monkeypatch.setattr(linext._enumerated_signed, "__defaults__", (1,))
    for spec, bound, brute in (("antichain:3", 6, "0"), (str(lift), 720, "1")):
        for cap, want in ((bound, brute), (bound - 1, None)):
            monkeypatch.setattr(cli, "ENUM_CAP", cap)
            code, out, _ = run(capsys, "si", spec, "--json")
            assert code == 0
            assert json.loads(out)["si_brute"] == want


def test_si_brute_route_does_not_revalidate(capsys, monkeypatch):
    from posetsi import cli, linext

    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(linext, "_validate", counting)
    for mod in (linext, cli):
        monkeypatch.setattr(mod, "enumerate_extensions", counting, raising=False)
    code, out, _ = run(capsys, "si", "grid:3:3", "--json")
    assert code == 0
    assert json.loads(out)["si_brute"] == "0"
    assert calls == 0


def test_si_compares_brute_count(capsys, monkeypatch):
    from posetsi import cli, linext

    def two_short(p, cap):
        # one extension of each sign dropped: two fewer, the same signed sum
        count, signed = linext._enumerated_signed(p, cap)
        return count - 2, signed

    monkeypatch.setattr(cli, "_enumerated_signed", two_short)
    code, out, _ = run(capsys, "si", "zigzag:6", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["e"] == "61"
    assert rep["si"] == rep["si_brute"] == rep["si_quotient"] == "1"


def test_count_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("n 3\ne 0 1\n"))
    code, out, _ = run(capsys, "count", "-")
    assert code == 0
    assert out.strip() == "e = 3"


def test_count_from_file(capsys, tmp_path):
    f = tmp_path / "p.poset"
    f.write_text("n 4\ne 0 1\ne 1 2\ne 1 3\n")
    code, out, _ = run(capsys, "count", str(f))
    assert code == 0
    assert out.strip() == "e = 2"


def test_domino(capsys):
    code, out, _ = run(capsys, "domino", "zigzag:6", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["tableaux"]) == 1
    assert rep["si"] == "1"


def test_domino_counts_each_quotient_once(capsys, monkeypatch):
    from posetsi import cli, domino, linext

    calls = 0

    def counting(p, downset_cap=linext.DOWNSET_CAP):
        nonlocal calls
        calls += 1
        return linext.count_extensions(p, downset_cap)

    monkeypatch.setattr(cli, "count_extensions", counting)
    monkeypatch.setattr(domino, "count_extensions", counting)
    code, out, _ = run(capsys, "domino", "grid:4:6", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["tableaux"]) == 281
    assert calls == 281
    for item in rep["tableaux"]:
        assert item["quotient_e"] == item["adapted_count"]


def test_height_guard_message(capsys):
    for argv in (("h2sb", "chain:3", "--k", "1"), ("decompose", "chain:3")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.strip() == "error: requires height at most 2, got height 3"


def test_lift_and_decompose_round_trip(capsys, tmp_path):
    base = tmp_path / "base.poset"
    base.write_text("n 3\ne 0 1\ne 1 2\n")
    code, out, _ = run(capsys, "lift", str(base))
    assert code == 0
    lifted = tmp_path / "lifted.poset"
    lifted.write_text(out)
    code, out, _ = run(capsys, "decompose", str(lifted), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "lift"


def test_decompose_lift_plus_isolated(capsys, tmp_path):
    # the lift of a two-chain, plus the isolated element 4
    padded = tmp_path / "padded.poset"
    padded.write_text("n 5\ne 0 2\ne 0 3\ne 1 3\n")
    code, out, _ = run(capsys, "decompose", str(padded))
    assert code == 0
    assert out.splitlines() == [
        "kind: lift_plus_isolated",
        "base poset:",
        "  n 2",
        "  e 0 1",
        "rel: (0,0) (0,1) (1,1)",
        "isolated vertex: 4",
    ]
    code, out, _ = run(capsys, "decompose", str(padded), "--json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "lift_plus_isolated",
        "base": "n 2\ne 0 1\n",
        "rel": [[0, 0], [0, 1], [1, 1]],
        "isolated": 4,
    }


def test_lift_with_relation_file(capsys, tmp_path):
    base = tmp_path / "base.poset"
    base.write_text("n 3\ne 0 1\ne 1 2\n")
    rel = tmp_path / "extra.rel"
    rel.write_text("0 2\n")
    code, out, _ = run(capsys, "lift", str(base), "--rel", str(rel))
    assert code == 0
    assert out.count("e ") == 6  # diagonal (3) + covers (2) + extra (1)


def test_lift_json(capsys):
    code, text, _ = run(capsys, "lift", "chain:3")
    assert code == 0
    assert text == write_poset(build_lift(chain(3), good_base(chain(3))))
    code, out, _ = run(capsys, "lift", "chain:3", "--json")
    assert code == 0
    assert json.loads(out) == {"poset": text}


@pytest.mark.parametrize("pair", ["5 7", "-3 2"])
def test_lift_rejects_pairs_outside_the_base(capsys, tmp_path, pair):
    rel = tmp_path / "extra.rel"
    rel.write_text(pair + "\n")
    code, out, err = run(capsys, "lift", "chain:3", "--rel", str(rel))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: pair ({pair.replace(' ', ', ')}) is outside 0..2")


def test_lift_names_the_smallest_bad_pair(capsys, tmp_path):
    rel = tmp_path / "extra.rel"
    for pairs in ("1 0\n5 3\n", "5 3\n1 0\n"):
        rel.write_text(pairs)
        code, out, err = run(capsys, "lift", "chain:6", "--rel", str(rel))
        assert code == 2
        assert err.startswith("error: pair (1, 0) leaves the order")


def test_h2sb(capsys):
    code, out, _ = run(capsys, "h2sb", "antichain:4", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"k": 1, "at_least": False}


def test_f(capsys):
    code, out, _ = run(capsys, "f", "--n", "6", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 6, "formula": 3, "direct": 3}


def test_f_q(capsys):
    code, out, _ = run(capsys, "f", "--n", "6", "--q", "2", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["odd_e_values"] == [57, 61, 75]


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "--max-n", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert 1 in rep["values"] and 2 in rep["values"]
    assert rep["witnesses"]["1"].startswith("n 0")  # smallest witness wins
    assert rep["witnesses"]["2"].startswith("n 2")


def test_ruskey(capsys):
    code, out, _ = run(capsys, "ruskey", "zigzag:4", "--hampath", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["si"] == 1 and rep["path_found"]


def test_ruskey_exits_1_when_the_report_breaks_the_conjecture(capsys, monkeypatch):
    from posetsi import ruskey

    real = ruskey._graph_report

    def no_path(p, g, path_cap):
        rep = real(p, g, path_cap)
        return {**rep, "path_found": False, "consistent_with_conjecture": False}

    monkeypatch.setattr(ruskey, "_graph_report", no_path)
    code, out, _ = run(capsys, "ruskey", "zigzag:4", "--hampath", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["si"] == 1 and rep["consistent_with_conjecture"] is False


def test_ruskey_dump_graph(capsys):
    code, out, _ = run(capsys, "ruskey", "antichain:2", "--dump-graph")
    assert code == 0
    assert "vertices:" in out and "edges:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("ruskey", "grid:3:3", "--dump-graph", "--json"),
        ("ruskey", "zigzag:5", "--adjacent", "--dump-graph", "--hampath"),
    ],
)
def test_ruskey_dump_graph_builds_once(capsys, monkeypatch, argv):
    from posetsi import ruskey

    calls = 0
    real = ruskey.build_graph

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ruskey, "build_graph", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert calls == 1
    g = real(parse_family(argv[1]), adjacent_only="--adjacent" in argv)
    if "--json" in argv:
        rep = json.loads(out)
        assert rep["vertices"] == [list(v) for v in g.vertices]
        assert rep["edges"] == [list(e) for e in g.edges]
    else:
        # 9 report lines (path included), then the two dump headers
        assert out.count("\n") == 9 + 2 + len(g.vertices) + len(g.edges)


def test_euler_table(capsys):
    code, out, _ = run(capsys, "euler", "--max-n", "6")
    assert code == 0
    assert [int(x) for x in out.split()] == [1, 1, 2, 5, 16, 61]


def test_euler_table_json(capsys):
    code, out, _ = run(capsys, "euler", "--max-n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"max_n": 4, "values": ["1", "1", "2", "5"]}


def test_euler_table_needs_a_term(capsys):
    code, out, err = run(capsys, "euler", "--max-n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: need at least one term\n"


def test_euler_primes(capsys):
    code, out, _ = run(capsys, "euler", "--primes", "--bound", "250")
    assert code == 0
    assert json.loads(out) == [
        3, 7, 11, 23, 83, 107, 163, 167, 179, 191, 199, 211, 227, 239,
    ]


def test_euler_congruence_default(capsys):
    code, out, _ = run(capsys, "euler", "--congruence", "--max-n", "20")
    assert code == 0
    assert "all hold" in out


def test_euler_congruence_two_fails(capsys):
    code, out, _ = run(capsys, "euler", "--congruence", "--q", "2", "--max-n", "10")
    assert code == 1
    assert "failures" in out


@pytest.mark.parametrize(
    "argv", [("--q", "1", "--max-n", "1"), ("--q", "0", "--max-n", "0", "--json")]
)
def test_euler_congruence_needs_a_modulus(capsys, argv):
    code, out, err = run(capsys, "euler", "--congruence", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: need modulus >= 2\n"


# argv -> the error naming the flag that its mode does not read, or the
# check it could not run; a new mode-specific flag adds its rows here
FLAGS_NOT_READ = {
    "euler --primes --congruence": "--primes and --congruence are exclusive",
    "euler --primes --congruence --json": "--primes and --congruence are exclusive",
    "euler --q 3 --max-n 5": "--q needs --congruence",
    "euler --primes --q 7 --json": "--q needs --congruence",
    "euler --bound 30 --max-n 3": "--bound needs --primes",
    "euler --congruence --bound 5 --max-n 20": "--bound needs --primes",
    "euler --primes --bound 30 --max-n 5": "--primes and --max-n are exclusive",
    # the congruence mod q is stated for n > q only
    "euler --congruence --max-n 2 --q 3": "--max-n 2 leaves no n > q = 3 to check",
    "euler --congruence --max-n 10 --json": "--max-n 10 leaves no n > q = 11 to check",
    "ruskey chain:3 --path-cap 5 --json": "--path-cap needs --hampath",
}


@pytest.mark.parametrize("argv", list(FLAGS_NOT_READ))
def test_flags_the_mode_does_not_read(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {FLAGS_NOT_READ[argv]}\n")


def test_exit_code_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("e 0 1\n")
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2
    assert err
    code, _, _ = run(capsys, "count", "mystery:4")
    assert code == 2
    code, _, _ = run(capsys, "count", str(tmp_path / "missing.poset"))
    assert code == 2
    for text in ("n x", "n ²", "n -1", "n 1_0", "n +3", "n 3\ne 0 +1"):
        bad.write_text(text + "\n", encoding="utf-8")
        code, _, err = run(capsys, "count", str(bad))
        assert code == 2
        assert err.startswith(f"error: line {len(text.splitlines())}:")
    code, out, err = run(capsys, "count", "antichain:1_0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad family arguments")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "chain:3", "--downset-cap", "1_0"),
        ("count", "chain:3", "--downset-cap", "\u0663"),
        ("count", "chain:3", "--downset-cap", "-1"),
        ("si", "chain:3", "--downset-cap", "+5"),
        ("ruskey", "chain:3", "--graph-cap", "-1"),
        ("ruskey", "chain:3", "--path-cap", "1e3"),
        ("h2sb", "antichain:2", "--k", "+1"),
        ("f", "--n", "-1"),
        ("f", "--n", "4", "--q", "\u00b2"),
        ("bounds", "--n", " 2"),
        ("spectrum", "--max-n", "1_0"),
        ("euler", "--max-n", "-5"),
        ("euler", "--congruence", "--q", "3", "--q", "-3"),
        ("euler", "--primes", "--bound", "0x10"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_integer_flags_take_plain_nonnegative_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: not a nonnegative plain integer" in err


def test_answers_past_the_default_digit_limit(capsys):
    # 1700! has 4,755 digits; Python converts at most 4,300 by default
    code, out, err = run(capsys, "count", "antichain:1700", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"e": str(math.factorial(1700))}


def test_overlong_integer_tokens_rejected(capsys, tmp_path):
    # input keeps the default limit of 4,300 digits
    long = "1" * 4301
    bad = tmp_path / "long.poset"
    bad.write_text(f"n {long}\n")
    code, out, err = run(capsys, "count", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: non-integer element")
    code, out, err = run(capsys, "count", f"chain:{long}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad family arguments")
    with pytest.raises(SystemExit) as exc:
        main(["euler", "--max-n", long])
    assert exc.value.code == 2
    assert "not a nonnegative plain integer" in capsys.readouterr().err
    code, out, _ = run(capsys, "count", "chain:" + "0" * 4299 + "3")
    assert (code, out) == (0, "e = 1\n")


def test_exit_code_cycle(capsys, tmp_path):
    bad = tmp_path / "cyc.poset"
    bad.write_text("n 2\ne 0 1\ne 1 0\n")
    code, _, _ = run(capsys, "count", str(bad))
    assert code == 2


def test_exit_code_resource(capsys):
    # grid(5, 6) is no Hasse forest; its walk stores 462 down-sets
    code, _, err = run(capsys, "count", "grid:5:6", "--downset-cap", "100")
    assert code == 3
    assert "cap" in err


def test_forest_route_stores_no_downset(capsys):
    code, out, _ = run(capsys, "count", "antichain:24", "--downset-cap", "100")
    assert code == 0
    assert out.strip() == "e = 620448401733239439360000"  # 24!


def test_fences_past_the_walk(capsys):
    from posetsi import euler_numbers

    e46 = str(euler_numbers(46)[-1])
    code, out, _ = run(capsys, "count", "zigzag:46")
    assert code == 0
    assert out.strip() == f"e = {e46}"
    code, out, _ = run(capsys, "si", "zigzag:46", "--json")
    assert code == 0
    assert json.loads(out) == {
        "e": e46,
        "signed": "1",
        "si": "1",
        "si_brute": None,
        "si_quotient": "1",
        "route": "forest",
    }


def test_si_names_its_route(capsys):
    code, out, _ = run(capsys, "si", "zigzag:6")
    assert code == 0
    assert "si (forest) = 1" in out.splitlines()
    # grid:2:3 is its two corners in an ordinal sum with an N, a fence
    code, out, _ = run(capsys, "si", "grid:2:3")
    assert code == 0
    assert "si (split + forest) = 1" in out.splitlines()


def test_domino_matching_cap(capsys, monkeypatch, tmp_path, eight_cycle):
    from posetsi import domino
    from posetsi.textio import write_poset

    monkeypatch.setattr(domino, "MATCHING_CAP", 1)
    path = tmp_path / "cycle.poset"
    path.write_text(write_poset(eight_cycle))
    code, _, err = run(capsys, "domino", str(path))
    assert code == 3
    assert "matching count exceeded cap 1" in err


def test_si_past_the_matching_cap(capsys):
    # grid:6:8 has more than MATCHING_CAP cover matchings
    code, out, _ = run(capsys, "si", "grid:6:8", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["si"] == rep["si_quotient"] == "0"


def test_ruskey_path_cap(capsys):
    code, _, err = run(capsys, "ruskey", "zigzag:8", "--hampath", "--path-cap", "1000")
    assert code == 3
    assert "budget of 1000" in err and "--path-cap" in err
    code, out, _ = run(capsys, "ruskey", "zigzag:4", "--hampath", "--path-cap", "5")
    assert code == 0
    assert "path_found: True" in out


def test_ruskey_graph_cap(capsys):
    code, _, err = run(capsys, "ruskey", "zigzag:9", "--graph-cap", "10")
    assert code == 3
    assert "transposition graph exceeded its cap of 10 vertices" in err
    assert "--graph-cap" in err


@pytest.mark.parametrize("family", ["chain:0", "chain:1"])
def test_ruskey_graph_cap_zero_refuses_the_one_extension(capsys, family):
    code, _, err = run(capsys, "ruskey", family, "--graph-cap", "0")
    assert code == 3
    assert "transposition graph exceeded its cap of 0 vertices" in err


def test_option_inventory():
    # every flag of every subcommand; a new flag belongs in this table
    want = {
        "count": ["--downset-cap", "--json"],
        "si": ["--downset-cap", "--json"],
        "domino": ["--json"],
        "lift": ["--json", "--rel"],
        "decompose": ["--json"],
        "h2sb": ["--json", "--k"],
        "f": ["--json", "--n", "--q"],
        "bounds": ["--json", "--n"],
        "spectrum": ["--json", "--max-n"],
        "ruskey": [
            "--adjacent", "--dump-graph", "--graph-cap", "--hampath", "--json",
            "--path-cap",
        ],
        "euler": [
            "--bound", "--congruence", "--json", "--max-n", "--primes", "--q",
        ],
        "verify-all": ["--json"],
    }

    def options(parser):
        [commands] = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return {
            name: sorted(
                s
                for action in sub._actions
                for s in action.option_strings
                if s not in ("-h", "--help")
            )
            for name, sub in commands.choices.items()
        }

    assert options(build_parser()) == want
    # a query's parser holds its own subcommand alone, with the same flags
    # and the full usage line, which its errors print
    usage = build_parser().format_usage()
    for name in want:
        assert options(build_parser(name)) == {name: want[name]}
        assert build_parser(name).format_usage() == usage
    assert options(build_parser("mystery")) == want


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = (
        "count si domino lift decompose h2sb f bounds spectrum ruskey euler "
        "verify-all"
    ).split()
    assert "{" + ",".join(names) + "}" in "".join(out.split())
    # one line per subcommand, indented by four spaces, with its help
    listed = [
        line.split()[0] for line in out.splitlines()
        if line.startswith("    ") and line[4] != " "
    ]
    assert listed == names


def test_caps_only_on_count_and_si(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["domino", "grid:2:2", "--downset-cap", "5"])
    assert exc.value.code == 2
    assert "--downset-cap" in capsys.readouterr().err


def test_exit_code_recursion(capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    # grid:3:30 less its corners is neither split nor a forest, and over
    # the peel's size: it takes the walk
    monkeypatch.setattr("posetsi.plan.count_extensions", too_deep)
    code, _, err = run(capsys, "count", "grid:3:30")
    assert code == 3
    assert "RecursionError" in err


def _random_lift():
    """The lift over the good base of a random order on 16 elements, each
    pair i < j related with probability 0.12; it is no Hasse forest."""
    import random

    from posetsi.poset import from_covers

    rng = random.Random(3)
    pairs = [(i, j) for i in range(16) for j in range(i + 1, 16) if rng.random() < 0.12]
    base = from_covers(16, pairs)
    return build_lift(base, good_base(base))


def test_si_on_lifts_in_bounded_memory(capsys, tmp_path):
    # the signed walk on each lift runs out of time or of memory
    import resource
    import subprocess
    import sys
    from math import comb
    from pathlib import Path

    import posetsi

    def one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code, out, _ = run(capsys, "lift", "grid:2:30")
    assert code == 0
    grid_lift = tmp_path / "grid.poset"
    grid_lift.write_text(out)
    random_lift = tmp_path / "random.poset"
    random_lift.write_text(write_poset(_random_lift()))
    # three copies side by side: the quotient walk on the whole union
    # stores the product of the copies' down-sets, so si_quotient is taken
    # part by part; each 120-element part joins by a q = -1 binomial
    g = read_poset(out)
    union = tmp_path / "union.poset"
    union.write_text(write_poset(disjoint_union(disjoint_union(g, g), g)))
    union_si = comb(120, 60) * comb(180, 60) * 3814986502092304**3
    src = str(Path(posetsi.__file__).parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from posetsi.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    for path, si in (
        (grid_lift, 3814986502092304), (random_lift, 2636088000), (union, union_si)
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, src, "si", str(path), "--json"],
            capture_output=True, text=True, timeout=30, preexec_fn=one_gib,
        )
        assert done.returncode == 0, done.stderr
        rep = json.loads(done.stdout)
        assert rep["si"] == rep["si_quotient"] == str(si)
        assert rep["e"] is None and "height-2" in rep["route"]


def test_si_skips_the_quotient_check_past_enum_cap(capsys, monkeypatch, tmp_path):
    # the lift of a 40-element fence has a Hasse tree, so the planner
    # answers by forest_count; the quotient walk that checks it would grow
    # with the fence's F_42 down-sets, and stops at the lower of the caps
    from posetsi import cli
    from posetsi.euler import euler_numbers

    code, out, _ = run(capsys, "lift", "zigzag:40")
    assert code == 0
    path = tmp_path / "lift.poset"
    path.write_text(out)
    code, out, _ = run(capsys, "si", str(path), "--downset-cap", "100000", "--json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["si"], rep["route"]) == (str(euler_numbers(40)[-1]), "forest")
    assert rep["si_quotient"] is None
    monkeypatch.setattr(cli, "ENUM_CAP", 100000)
    code, out, _ = run(capsys, "si", str(path))
    assert code == 0
    assert "si (quotient route) = skipped: over enumeration cap\n" in out


def test_si_enumerates_small_lifts(capsys, tmp_path):
    code, out, _ = run(capsys, "si", "grid:3:4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["signed"], rep["si"], rep["si_quotient"]) == ("-2", "2", "2")
    assert rep["e"] == "462" and rep["route"] == "split + quotient"
    # a lift of chain(3) whose Hasse diagram has a cycle: the height-2
    # inverse leaves e uncounted, and with 6! under the enumeration cap
    # brute force counts it
    path = tmp_path / "lift.poset"
    path.write_text(write_poset(build_lift(chain(3), good_base(chain(3)) | {(0, 2)})))
    code, out, _ = run(capsys, "si", str(path), "--json")
    assert code == 0
    rep = json.loads(out)
    assert (rep["e"], rep["si"], rep["si_brute"]) == ("57", "1", "1")
    assert rep["route"] == "height-2"
    # a lift of chain(5) with a cycle: 10! is over the enumeration cap
    path.write_text(write_poset(build_lift(chain(5), good_base(chain(5)) | {(0, 2)})))
    code, out, _ = run(capsys, "si", str(path))
    assert code == 0
    assert "(height-2)" in out
    assert "e = not counted\n" in out
    assert "si (brute force) = skipped: e not counted\n" in out


def test_si_compares_signed_sums(capsys, monkeypatch):
    # the quotient route's absolute value agrees; its sign does not
    from posetsi import domino

    real = domino.si_via_quotients
    monkeypatch.setattr(domino, "si_via_quotients", lambda p, downset_cap: -real(p))
    code, out, _ = run(capsys, "si", "zigzag:6", "--json")
    assert code == 1
    rep = json.loads(out.splitlines()[0])
    assert rep["si"] == rep["si_quotient"] == "1"


def test_si_long_chain(capsys):
    # the brute-force route enumerates the one extension depth first
    code, out, _ = run(capsys, "si", "chain:1200")
    assert code == 0
    assert "si (brute force) = 1" in out


@pytest.mark.parametrize(
    "error",
    sorted([PosetsiError, *PosetsiError.__subclasses__()], key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_exit_code_of_each_error(capsys, monkeypatch, error):
    from posetsi import cli

    def failing(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_count", failing)
    code, out, err = run(capsys, "count", "chain:3")
    # the module docstring: 1 verification failure, 2 malformed input,
    # 3 resource cap exceeded
    assert code == {VerificationError: 1, ResourceLimit: 3}.get(error, 2)
    assert out == ""
    assert "boom" in err


def test_exit_code_memory(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("posetsi.plan.count_extensions", exhausted)
    code, _, err = run(capsys, "count", "grid:3:30")
    assert code == 3
    assert "MemoryError" in err


HUGE = "100000000000000000000"


@pytest.mark.parametrize("family", ["chain", "zigzag", "antichain"])
def test_exit_code_for_a_family_too_large_to_index(capsys, family):
    # chain and zigzag build 1 << n, antichain n rows: each overflows
    code, out, err = run(capsys, "count", f"{family}:{HUGE}")
    assert code == 3
    assert out == ""
    assert err.startswith("out of resources: OverflowError")


def test_exit_code_for_a_file_too_large_to_index(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f"n {HUGE}\n"))
    code, out, err = run(capsys, "count", "-")
    assert code == 3
    assert out == ""
    assert err.startswith("out of resources: OverflowError")


def test_verify_all_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_verify_all_text_output(capsys, monkeypatch):
    # one CPU keeps run_all in this process, where the stand-in criteria live
    from posetsi import acceptance

    allow_cpus(monkeypatch, 1)
    defect = acceptance.CriterionResult(
        13, "stated check", False, ["cannot hold"], known_defect=True
    )
    failure = acceptance.CriterionResult(7, "broken check", False)
    monkeypatch.setattr(
        acceptance,
        "CRITERIA",
        [acceptance.criterion_1, lambda: defect, lambda: failure],
    )
    code, out, _ = run(capsys, "verify-all")
    assert code == 1
    assert out.splitlines() == [
        " 1 PASS                     six-element fence: e = 61 and si = 1",
        "     e = 61 (want 61), si = 1 (want 1)",
        "13 FAIL (known spec defect) stated check",
        "     cannot hold",
        " 7 FAIL                     broken check",
    ]
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_14])
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert out.startswith("14 PASS ")


def test_verify_all_reports_known_defect(capsys):
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == 1  # the q = 2 congruence criterion cannot pass
    results = json.loads(out)
    assert len(results) == 14
    assert list(results[0]) == ["number", "title", "ok", "details", "known_defect"]
    by_number = {r["number"]: r for r in results}
    failing = [r for r in results if not r["ok"]]
    assert [r["number"] for r in failing] == [13]
    assert by_number[13]["known_defect"]
    for r in results:
        if r["number"] != 13:
            assert r["ok"], r
