"""Command-line interface: every operation as a subcommand.

Posets are given as named families (chain:n, antichain:n, zigzag:n,
grid:m:n), as files in the line-oriented text format, or as '-' for
standard input. Exit codes: 0 success, 1 verification failure, 2
malformed input, 3 resource cap exceeded or out of resources: memory,
recursion depth, or a size past what Python can index (``OverflowError``).

``count`` and ``si`` take the cheapest sound route, by ``plan``. ``si``
names it and checks it against the quotient route, run part by part on
the planner's split, and brute force. Both checks stop at the
enumeration cap ``ENUM_CAP`` and report "skipped" past it; a cap hit by
the planner's own walks exits 3.

A query imports only the modules its subcommand runs: this module loads
``errors``, ``linext``, ``poset`` and ``textio``, and each handler
imports the rest it needs (``plan``, ``domino``, ``h2``, ``ruskey``,
``euler``, ``acceptance``) when it runs. So ``count`` loads no
``domino``, ``h2``, ``canon`` or ``generate``, and only the census
subcommands load the last two. The ``ruskey`` caps read their defaults
from ``ruskey.GRAPH_CAP`` and ``ruskey.HAMPATH_CAP`` in the handler, and
``--path-cap`` needs ``--hampath``. Likewise a query builds only its own
subcommand's parser, from the table ``_COMMANDS``; ``-h``, no arguments
or an unknown command build them all, so help and error texts stay
those of the full parser.

``euler`` has three modes, and each reads its own flags: the table reads
``--max-n`` (30 by default), ``--primes`` reads ``--bound`` (600 by
default), and ``--congruence`` reads ``--max-n`` and ``--q``. The
congruence mod q is stated for n > q, so it needs every modulus below
``--max-n``, which is checked before any table is built; a repeated
``--q`` is checked once, in the order first given. A flag that the
chosen mode does not read exits 2 and names the flag.
"""

import argparse
import json
import math
import sys

from .errors import PosetsiError, ResourceLimit, VerificationError
from .linext import DOWNSET_CAP, ENUM_CAP, _enumerated_signed, count_extensions
from .poset import Poset
from .textio import (
    _int,
    parse_family,
    read_poset,
    read_relation_pairs,
    write_poset,
    write_tableau,
)


def _load_poset(spec: str) -> Poset:
    if ":" in spec:
        return parse_family(spec)
    if spec == "-":
        return read_poset(sys.stdin.read())
    with open(spec, "r", encoding="utf-8") as fh:
        return read_poset(fh.read())


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_count(args) -> int:
    from . import plan

    p = _load_poset(args.poset)
    e, _ = plan.e(p, args.downset_cap)
    _emit(args, {"e": str(e)}, [f"e = {e}"])
    return 0


def _cmd_si(args) -> int:
    from . import domino, plan

    p, cap = _load_poset(args.poset), args.downset_cap
    signed, e, route = plan.signed(p, cap)
    count = brute = None
    # e is None after the height-2 inverse, whose walk for e runs out of
    # memory on lifts; there n! bounds e
    if (math.factorial(p.n) if e is None else e) <= ENUM_CAP:
        count, brute = _enumerated_signed(p, cap=ENUM_CAP)
        e = count if e is None else e
    # the quotient route part by part, since a split's signed factors
    # need only part sizes and labels; the planner's answer already is it
    # when every part that did not split took the quotient walk. Like the
    # brute check, it stops at ENUM_CAP, and past it is skipped
    if set(route.split(" + ")) <= {"split", "quotient"}:
        quot = signed
    else:
        quot_cap = min(cap, ENUM_CAP)
        try:
            _, quot, _ = plan._plan(
                p, lambda q: (None, domino.si_via_quotients(q, quot_cap), "quotient")
            )
        except ResourceLimit:
            quot = None
    payload = {
        "e": None if e is None else str(e),
        "signed": str(signed),
        "si": str(abs(signed)),
        "si_brute": None if brute is None else str(abs(brute)),
        "si_quotient": None if quot is None else str(abs(quot)),
        "route": route,
    }
    over = "skipped: over enumeration cap"
    skipped = "skipped: e not counted" if e is None else over
    lines = [
        f"e = {'not counted' if e is None else e}",
        f"signed sum = {signed}",
        f"si ({route}) = {abs(signed)}",
        f"si (brute force) = {skipped if brute is None else abs(brute)}",
        f"si (quotient route) = {over if quot is None else abs(quot)}",
    ]
    if quot not in (None, signed) or (brute is not None and (count, brute) != (e, signed)):
        _emit(args, payload, lines + ["MISMATCH between routes"])
        return 1
    _emit(args, payload, lines)
    return 0


def _cmd_domino(args) -> int:
    from . import domino

    p = _load_poset(args.poset)
    tabs = list(domino._tableaux(p))
    items = []
    total = 0
    lines = [f"tableaux: {len(tabs)}"]
    for i, (t, q) in enumerate(tabs):
        sgn, adapted = domino._term(t, q)
        total += sgn * adapted
        quotient_e = adapted if t.singleton is None else count_extensions(q)
        if args.json:
            items.append({
                "pairs": [list(pr) for pr in t.pairs],
                "singleton": t.singleton,
                "sign": sgn,
                "quotient_e": str(quotient_e),
                "adapted_count": str(adapted),
                "quotient": write_poset(q),
            })
        else:
            lines.append(f"tableau {i}:")
            lines += ["  " + ln for ln in write_tableau(t).splitlines()]
            lines.append(f"  sign {sgn}  quotient e {quotient_e}  adapted {adapted}")
    si = abs(total)
    lines.append(f"si (quotient route) = {si}")
    _emit(args, {"tableaux": items, "si": str(si)}, lines)
    return 0


def _cmd_lift(args) -> int:
    from . import h2

    p = _load_poset(args.poset)
    rel = h2.good_base(p)
    if args.rel:
        with open(args.rel, "r", encoding="utf-8") as fh:
            rel = rel | frozenset(read_relation_pairs(fh.read()))
    text = write_poset(h2.build_lift(p, rel))
    _emit(args, {"poset": text}, text.splitlines())
    return 0


def _cmd_decompose(args) -> int:
    from . import h2

    p = _load_poset(args.poset)
    dec = h2.decompose(p)
    payload: dict = {"kind": dec.kind}
    lines = [f"kind: {dec.kind}"]
    if dec.base is not None:
        payload["base"] = base = write_poset(dec.base)
        payload["rel"] = sorted(map(list, dec.rel))
        lines.append("base poset:")
        lines += ["  " + ln for ln in base.splitlines()]
        lines.append(
            "rel: " + " ".join(f"({a},{b})" for a, b in sorted(dec.rel))
        )
    if dec.isolated is not None:
        payload["isolated"] = dec.isolated
        lines.append(f"isolated vertex: {dec.isolated}")
    _emit(args, payload, lines)
    return 0


def _cmd_h2sb(args) -> int:
    from . import h2

    p = _load_poset(args.poset)
    verdict = h2.h2sb_decide(p, args.k)
    _emit(
        args,
        {"k": args.k, "at_least": verdict},
        [f"si >= {args.k}: {'yes' if verdict else 'no'}"],
    )
    return 0


def _cmd_f(args) -> int:
    from . import h2

    if args.q is not None:
        count = h2.count_f_q(args.n, args.q)
        _emit(
            args,
            {"n": args.n, "q": args.q, "count": count},
            [f"height-2 classes on {args.n} vertices with e not divisible "
             f"by {args.q}: {count}"],
        )
        return 0
    rep = h2.count_f(args.n)
    _emit(
        args,
        rep,
        [f"formula: {rep['formula']}", f"direct: {rep['direct']}"],
    )
    return 0


def _cmd_bounds(args) -> int:
    from . import h2

    rep = h2.odd_e_bounds(args.n)
    lines = [
        f"vertices: {rep['vertices']}",
        f"bounds: [{rep['lower']}, {rep['upper']}]",
        f"odd e values: {rep['odd_e_values']}",
        f"classes with odd e: {rep['classes_with_odd_e']}",
    ]
    _emit(args, rep, lines)
    return 0


def _cmd_spectrum(args) -> int:
    from . import h2

    rep = h2.spectrum(args.max_n)
    if args.json:
        rep["witnesses"] = {
            str(v): write_poset(p) for v, p in rep["witnesses"].items()
        }
        print(json.dumps(rep, sort_keys=True))
        return 0
    print(f"achievable e values (height <= 2, at most {args.max_n} vertices):")
    print(" ".join(map(str, rep["values"])))
    print(f"gaps below max: {rep['gaps']}")
    return 0


def _cmd_ruskey(args) -> int:
    from . import ruskey

    if args.path_cap is not None and not args.hampath:
        raise ValueError("--path-cap needs --hampath")
    p = _load_poset(args.poset)
    graph_cap = ruskey.GRAPH_CAP if args.graph_cap is None else args.graph_cap
    path_cap = ruskey.HAMPATH_CAP if args.path_cap is None else args.path_cap
    g = ruskey.build_graph(p, args.adjacent, graph_cap)
    rep = ruskey._graph_report(p, g, path_cap if args.hampath else None)
    lines = [f"{k}: {v}" for k, v in rep.items() if k != "path"]
    if "path" in rep:
        lines.append("path: " + " ".join(map(str, rep["path"])))
    if args.dump_graph and args.json:
        rep["vertices"] = [list(v) for v in g.vertices]
        rep["edges"] = [list(e) for e in g.edges]
    elif args.dump_graph:
        lines.append("vertices:")
        lines += [f"  {i} " + " ".join(map(str, v)) for i, v in enumerate(g.vertices)]
        lines.append("edges:")
        lines += [f"  {a} {b}" for a, b in g.edges]
    _emit(args, rep, lines)
    if rep.get("consistent_with_conjecture") is False:
        return 1
    return 0


def _cmd_euler(args) -> int:
    from .euler import congruence_failures, euler_numbers, primes_never_dividing

    if args.primes and args.congruence:
        raise ValueError("--primes and --congruence are exclusive")
    if args.q is not None and not args.congruence:
        raise ValueError("--q needs --congruence")
    if args.bound is not None and not args.primes:
        raise ValueError("--bound needs --primes")
    if args.max_n is not None and args.primes:
        raise ValueError("--primes and --max-n are exclusive")
    if args.primes:
        out = primes_never_dividing(600 if args.bound is None else args.bound)
        print(json.dumps(out))
        return 0
    max_n = 30 if args.max_n is None else args.max_n
    if args.congruence:
        qs = list(dict.fromkeys(args.q or [3, 5, 7, 11]))
        if min(qs) < 2:
            raise ValueError("need modulus >= 2")
        if max(qs) >= max_n:
            raise ValueError(f"--max-n {max_n} leaves no n > q = {max(qs)} to check")
        failures = [(n, q) for q in qs for n in congruence_failures(max_n, q)]
        payload = {
            "max_n": max_n,
            "q": qs,
            "failures": [list(f) for f in failures],
        }
        _emit(
            args,
            payload,
            [
                f"congruence checked for q in {qs}, n <= {max_n}: "
                + ("all hold" if not failures else f"failures: {failures}")
            ],
        )
        return 1 if failures else 0
    values = [str(value) for value in euler_numbers(max_n)]
    _emit(args, {"max_n": max_n, "values": values}, values)
    return 0


def _cmd_verify_all(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    if args.json:
        print(json.dumps([r._asdict() for r in results]))
    else:
        for r in results:
            print(f"{r.number:>2} {r.status:<24} {r.title}")
            for d in r.details:
                print(f"     {d}")
    return 0 if all(r.ok for r in results) else 1


def _nonnegative(token: str) -> int:
    """An integer flag's value: plain ASCII digits, as in poset files."""
    try:
        value = _int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"not a nonnegative plain integer: {token!r}"
        )
    return value


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


_POSET = _opt(
    "poset",
    help="named family (chain:n, antichain:n, zigzag:n, grid:m:n), "
    "a poset file, or '-' for stdin",
)


def _downset_cap(bounds: str) -> tuple:
    return _opt(
        "--downset-cap", type=_nonnegative, default=DOWNSET_CAP,
        help="exit 3 once a down-set walk would store more than this "
        "many distinct down-sets (order ideals, the empty one included); "
        + bounds,
    )


# name, help, then the arguments after --json; the handler of a
# command is _cmd_<name>, looked up when the parser is built
_COMMANDS = (
    ("count", "number of linear extensions", _POSET,
     _downset_cap("it bounds only the walk, on each part that is no Hasse forest")),
    ("si", "sign imbalance by several routes", _POSET,
     _downset_cap(
         "it bounds each walk: the quotient route's, over the down-sets of "
         "even size that dominoes reach, and the walk that counts e"
     )),
    ("domino", "list domino tableaux", _POSET),
    ("lift", "two-level lift of a poset", _POSET,
     _opt("--rel", help="file of extra relation pairs 'u v'")),
    ("decompose", "invert the lift", _POSET),
    ("h2sb", "decide si >= k for height-2 posets", _POSET,
     _opt("--k", type=_nonnegative, required=True)),
    ("f", "height-2 census counts",
     _opt("--n", type=_nonnegative, required=True),
     _opt("--q", type=_nonnegative)),
    ("bounds", "odd-e bounds on 2n vertices",
     _opt("--n", type=_nonnegative, required=True, help="half the vertex count")),
    ("spectrum", "achievable extension counts",
     _opt("--max-n", type=_nonnegative, required=True)),
    ("ruskey", "transposition graph report", _POSET,
     _opt("--adjacent", action="store_true",
          help="adjacent-transposition edges only"),
     _opt("--hampath", action="store_true",
          help="search for a Hamiltonian path"),
     _opt("--dump-graph", action="store_true",
          help="print the vertex table and edge list"),
     _opt("--graph-cap", type=_nonnegative,
          help="exit 3 once the transposition graph would have more than "
          "this many vertices (linear extensions)"),
     _opt("--path-cap", type=_nonnegative,
          help="exit 3 once the Hamiltonian path search has entered more "
          "than this many search nodes (vertices, counted on every branch)")),
    ("euler", "zigzag number table and primes",
     _opt("--max-n", type=_nonnegative),
     _opt("--congruence", action="store_true"),
     _opt("--q", type=_nonnegative, action="append",
          help="modulus for --congruence (repeatable)"),
     _opt("--primes", action="store_true"),
     _opt("--bound", type=_nonnegative)),
    ("verify-all", "run the acceptance suite"),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, a
    parser that holds only its subparser. That one's usage line still
    lists every subcommand, so its error texts are the full parser's."""
    ap = argparse.ArgumentParser(
        prog="posetsi",
        description="sign imbalance of finite posets: exact counts, "
        "tableaux, height-2 lifts, transposition graphs",
    )
    names = [name for name, *_ in _COMMANDS]
    one = command in names
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(names) + "}" if one else None,
    )
    for name, help_, *args in _COMMANDS:
        if name == command or not one:
            s = sub.add_parser(name, help=help_)
            s.add_argument("--json", action="store_true", help="machine output")
            for flags, kwargs in args:
                s.add_argument(*flags, **kwargs)
            s.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
    return ap


def main(argv: list[str] | None = None) -> int:
    # exact answers may run past 4,300 digits; textio._int bounds input
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, OverflowError, RecursionError) as exc:
        print(f"out of resources: {type(exc).__name__} {exc}", file=sys.stderr)
        return 3
    except (PosetsiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
