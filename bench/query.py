"""Run one benchmark query in this interpreter, as the ``posetsi`` console
script would.

    python3 bench/query.py [--trace] cli ARGS...   # posetsi ARGS...
    python3 bench/query.py [--trace] classes N     # enumerate_posets(N)

With ``--trace`` the query runs under ``spans.trace``, which prints one
JSON object with the query's output and its span totals instead.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from posetsi.cli import main

        return main(args)
    if kind == "classes":
        import posetsi

        print(sum(1 for _ in posetsi.enumerate_posets(int(args[0]))))
        return 0
    raise SystemExit(f"unknown query kind {kind!r}")


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["--trace"]:
        import spans

        sys.exit(spans.trace(run, argv[1], argv[2:]))
    sys.exit(run(argv[0], argv[1:]))
