"""Spans around every call that crosses into a posetsi module.

``trace`` wraps each public function of each module (the names in its
``__all__``, or every name without a leading underscore when it has no
``__all__``) wherever a module binds it, and each private function where
another module imports it. A call into a wrapped function is a span, and
so is each resume of a generator it returns, so lazy work is charged to
the module that does it. A span's self time is its duration minus the
time of the spans it encloses. Spans are summed per function in memory
and written out once, as JSON on standard output, when the query ends.
"""

import contextlib
import functools
import importlib
import io
import json
import operator
import pkgutil
import sys
from time import perf_counter
from types import FunctionType, GeneratorType

# not benchmarked: the acceptance suite and the exception types
SKIP = {"posetsi.acceptance", "posetsi.errors"}

# work done by one call, from its result and arguments
ITEMS = {
    "linext.enumerate_extensions": lambda result, args, kwargs: operator.length_hint(result),
    "linext.at_least_k": lambda result, args, kwargs: (args[1:] or [kwargs.get("k", 0)])[0] if result else 0,
    "domino.enumerate_tableaux": lambda result, args, kwargs: len(result),
    "ruskey.build_graph": lambda result, args, kwargs: len(result.edges),
}


class Tracer:
    def __init__(self):
        # start and enclosed span time of each open span; floats only, so
        # tracing adds no work for the garbage collector
        self.starts: list[float] = []
        self.enclosed: list[float] = []
        # function -> [spans, inclusive s, self s, items]; a recursive
        # call adds to the inclusive time only at its outermost level
        self.totals: dict[str, list] = {}

    def wrap(self, fn: FunctionType, key: str):
        count = ITEMS.get(key)
        total = self.totals.setdefault(key, [0, 0.0, 0.0, 0])
        starts, enclosed = self.starts, self.enclosed
        depth = 0

        def close(items: int) -> None:
            nonlocal depth
            took = perf_counter() - starts.pop()
            inner = enclosed.pop()
            if enclosed:
                enclosed[-1] += took
            depth -= 1
            total[0] += 1
            total[2] += took - inner
            total[3] += items
            if not depth:
                total[1] += took

        def resumed(gen):
            nonlocal depth
            while True:
                depth += 1
                enclosed.append(0.0)
                starts.append(perf_counter())
                try:
                    item = next(gen)
                except StopIteration:
                    close(0)
                    return
                except BaseException:
                    close(0)
                    raise
                close(1)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            depth += 1
            enclosed.append(0.0)
            starts.append(perf_counter())
            items = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    items = count(result, args, kwargs)
            finally:
                close(items)
            return resumed(result) if type(result) is GeneratorType else result

        return wrapper


def install(tracer: Tracer):
    """Wrap the functions described above; returns a function that undoes it."""
    import posetsi

    modules = [
        importlib.import_module(f"posetsi.{info.name}")
        for info in pkgutil.iter_modules(posetsi.__path__)
    ]
    modules = [m for m in modules if m.__name__ not in SKIP]
    wrapped: dict[FunctionType, tuple] = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        public = getattr(mod, "__all__", None)
        for name, obj in vars(mod).items():
            if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                is_public = name in public if public is not None else not name.startswith("_")
                if is_public or name.startswith("_"):
                    wrapped[obj] = (tracer.wrap(obj, f"{layer}.{name}"), is_public)
    undo = []
    for mod in [posetsi] + modules:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in wrapped:
                wrapper, is_public = wrapped[obj]
                if is_public or obj.__module__ != mod.__name__:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, obj))

    def restore() -> None:
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    return restore


def _canon_rate(n: int) -> dict:
    """Canonical forms per second on fresh copies of the n-element classes,
    which carry no cached form."""
    from posetsi.canon import canonical_form
    from posetsi.generate import enumerate_posets
    from posetsi.poset import Poset

    copies = [Poset(p.n, p.up) for p in enumerate_posets(n)]
    start = perf_counter()
    for p in copies:
        canonical_form(p)
    return {"canon_forms": len(copies), "canon_s": perf_counter() - start}


def trace(run, kind: str, args: list[str]) -> int:
    """Run one query with spans on; print its output, exit code, elapsed
    time (imports excluded) and span totals as one JSON object."""
    tracer = Tracer()
    restore = install(tracer)
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = run(kind, args)
        except SystemExit as exc:
            rc = exc.code
    elapsed = perf_counter() - start
    restore()
    result = {
        "rc": rc or 0,
        "stdout": out.getvalue(),
        "elapsed_s": elapsed,
        "spans": {key: total for key, total in tracer.totals.items() if total[0]},
        "extra": _canon_rate(int(args[0])) if kind == "classes" else {},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
