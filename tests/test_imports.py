import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import posetsi


def _siblings(tree: ast.AST) -> set[str]:
    """Package modules a module imports, at top level or in a function,
    by relative or absolute import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(
                filter(None, ["posetsi" if node.level == 1 else "", node.module])
            )
            # 'from posetsi import x' may name a module x
            names = [f"{base}.{a.name}" for a in node.names] + [base]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out |= {name.split(".")[1] for name in names if name.startswith("posetsi.")}
    return out


def test_module_import_graph():
    # every import between the package's modules; a new one belongs here
    want = {
        # loads each module by name, on first use of one of its names
        "__init__": set(),
        "acceptance": {
            "canon", "domino", "errors", "euler", "generate", "h2", "linext",
            "poset", "ruskey",
        },
        "canon": {"poset"},
        "cli": {
            "acceptance", "domino", "errors", "euler", "h2", "linext", "plan",
            "poset", "ruskey", "textio",
        },
        "domino": {"errors", "linext", "poset"},
        "errors": set(),
        "euler": {"errors"},
        "generate": {"canon", "errors", "linext", "poset"},
        "h2": {"canon", "errors", "generate", "linext", "poset"},
        "linext": {"errors", "poset"},
        "plan": {"domino", "h2", "linext", "poset"},
        "poset": {"errors"},
        "ruskey": {"errors", "linext", "poset"},
        "textio": {"errors", "poset"},
    }
    src = Path(posetsi.__file__).parent
    got = {
        path.stem: _siblings(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert got == want


def _module_names(tree: ast.AST) -> set[str]:
    """Names that a module's imports, anywhere in it, bind to modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "posetsi"
            )
            for a in node.names:
                try:
                    importlib.import_module(f"{base}.{a.name}")
                except ImportError:
                    continue
                out.add(a.asname or a.name)
    return out


def _module_attribute_writes(tree: ast.AST) -> list[str]:
    """Stores to and deletions of an attribute of a module object, by
    any statement or by setattr and delattr, as 'line: source'."""
    modules = _module_names(tree)

    def on_module(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in modules

    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and on_module(node.value)
        or isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("setattr", "delattr")
        and on_module(node.args[0])
    ]


def test_no_module_assigns_an_attribute_of_a_module():
    # work is counted by return values, never by patching a module
    src = Path(posetsi.__file__).parent
    got = {
        path.stem: _module_attribute_writes(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert {stem: hits for stem, hits in got.items() if hits} == {}


def _loaded(code: str, names: set[str]) -> list[str]:
    """Which of ``names`` are in sys.modules after ``code`` runs in a fresh
    interpreter, started with -S: the host's site hooks may import
    modules themselves."""
    src = str(Path(posetsi.__file__).parents[1])
    out = subprocess.run(
        [
            sys.executable, "-S", "-c",
            f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
            f"print(sorted({set(names)!r} & set(sys.modules)))",
            src,
        ],
        capture_output=True, text=True, check=True,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _query(*argv: str) -> str:
    return f"from posetsi.cli import main; main({list(argv)!r})"


def test_cli_query_imports_no_dataclasses_or_inspect():
    assert _loaded(_query("count", "chain:1", "--json"), {"dataclasses", "inspect"}) == []


def test_cli_query_loads_only_the_modules_it_runs():
    census = {"posetsi.canon", "posetsi.generate"}
    others = {"posetsi.euler", "posetsi.ruskey", "posetsi.acceptance"}
    walks = {"posetsi.domino", "posetsi.h2"}
    assert _loaded(_query("count", "chain:1"), census | others | walks) == []
    # the peel route
    assert _loaded(_query("count", "grid:3:4"), census | others | walks) == []
    assert _loaded(_query("si", "zigzag:4"), census | others) == []


def test_package_import_loads_no_module():
    modules = {f"posetsi.{path.stem}" for path in Path(posetsi.__file__).parent.glob("*.py")}
    assert _loaded("import posetsi", modules - {"posetsi.__init__"}) == []


def test_every_public_name_resolves():
    for name in posetsi.__all__:
        assert getattr(posetsi, name).__module__.startswith("posetsi.")
    assert set(posetsi.__all__) <= set(dir(posetsi))
    namespace: dict = {}
    exec("from posetsi import *", namespace)
    assert set(posetsi.__all__) <= set(namespace)


def test_module_and_package_tables_of_public_names_agree():
    # a name deleted from one table must go from the other; constants
    # are public in their module but not exported by the package, and a
    # module without __all__ exports its names without a leading _
    for module, names in posetsi._MODULES.items():
        space = vars(importlib.import_module(f"posetsi.{module}"))
        public = space.get("__all__") or [n for n in space if not n.startswith("_")]
        assert {name for name in public if not name.isupper()} == set(names.split())
