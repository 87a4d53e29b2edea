"""No module in the package or the test suite imports a name it never uses.

A stdlib-`ast` stand-in for a linter's unused-import rule (F401): every name an
import statement binds must be read somewhere in the same module. An import
kept on purpose, for another module to reach through this one, says so with
`# noqa: F401` on the statement.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "freqvfx").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(stmt):
    """The local names an import statement binds."""
    for alias in stmt.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(stmt, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for stmt in ast.walk(tree):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        found += [f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}"
                  for name in _bound_names(stmt) if name not in used]
    return found


def test_no_unused_imports():
    assert {"moe.py", "test_imports.py"} <= {p.name for p in SOURCES}
    found = [line for path in SOURCES for line in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)
