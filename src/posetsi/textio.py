"""Line-oriented text formats: posets, relations, and tableaux (written
only; a tableau is never read back).

Poset files look like::

    # optional comments
    n 6
    e 0 1
    e 2 1

``n`` must precede the ``e u v`` lines; each ``e`` asserts u < v and the
transitive closure is applied on read. Writers emit cover relations only,
sorted lexicographically.
"""

from .errors import FormatError
from .poset import Poset, from_covers

__all__ = [
    "read_poset",
    "write_poset",
    "read_relation_pairs",
    "write_tableau",
    "parse_family",
]


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _int(token: str) -> int:
    """A plain decimal integer: ASCII digits with an optional leading
    '-'. Python's ``int`` would also take '+3', '1_0' and other digits.
    The CLI lifts Python's limit on integer string conversion for its
    answers, so this keeps that limit of 4,300 digits on input."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()) or len(digits) > 4300:
        raise ValueError(f"not a plain integer: {token!r}")
    return int(token)


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    try:
        return [_int(x) for x in tokens]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: non-integer element") from exc


def read_poset(text: str) -> Poset:
    n = None
    pairs = []
    for lineno, tok in _content_lines(text):
        if tok[0] == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate n line")
            count = _ints(lineno, tok[1:])
            if len(count) != 1 or count[0] < 0:
                raise FormatError(f"line {lineno}: expected 'n <count>'")
            n = count[0]
        elif tok[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: 'e' before 'n'")
            if len(tok) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            pairs.append(tuple(_ints(lineno, tok[1:])))
        else:
            raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
    if n is None:
        raise FormatError("missing 'n <count>' line")
    try:
        return from_covers(n, pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_poset(p: Poset) -> str:
    lines = [f"n {p.n}"]
    lines += [f"e {u} {v}" for u, v in p.covers()]
    return "\n".join(lines) + "\n"


def read_relation_pairs(text: str) -> list[tuple[int, int]]:
    """Pairs 'u v' one per line (used for good-set extras)."""
    pairs = []
    for lineno, tok in _content_lines(text):
        if len(tok) != 2:
            raise FormatError(f"line {lineno}: expected '<u> <v>'")
        pairs.append(tuple(_ints(lineno, tok)))
    return pairs


def write_tableau(t) -> str:
    """A ``domino.DominoTableau`` as 'pair b t' lines, then 'single x'."""
    lines = [f"pair {b} {tp}" for b, tp in t.pairs]
    if t.singleton is not None:
        lines.append(f"single {t.singleton}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_family(spec: str) -> Poset:
    """Named families: chain:n, antichain:n, zigzag:n, grid:m:n."""
    from . import poset as families

    parts = spec.split(":")
    name = parts[0]
    try:
        args = [_int(x) for x in parts[1:]]
    except ValueError as exc:
        raise FormatError(f"bad family arguments in {spec!r}") from exc
    if any(a < 0 for a in args):
        raise FormatError(f"family sizes must be nonnegative: {spec!r}")
    if name == "chain" and len(args) == 1:
        return families.chain(args[0])
    if name == "antichain" and len(args) == 1:
        return families.antichain(args[0])
    if name == "zigzag" and len(args) == 1:
        return families.zigzag(args[0])
    if name == "grid" and len(args) == 2:
        return families.grid(args[0], args[1])
    raise FormatError(f"unknown family spec {spec!r}")
