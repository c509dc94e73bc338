import ast
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
        "__init__": {
            "canon", "domino", "errors", "euler", "generate", "h2", "linext",
            "poset", "ruskey",
        },
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


def test_cli_query_imports_no_dataclasses_or_inspect():
    # -S: the host's site hooks may import either module themselves
    src = str(Path(posetsi.__file__).parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from posetsi.cli import main; "
        "main(['count', 'chain:1', '--json']); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
