"""No module in the package, the test suite or `tools/` imports a name it never
uses.

A stdlib-`ast` stand-in for a linter's unused-import rule (F401): every name an
import statement binds must be read somewhere in the same module. The one
exception is a name that `bench/spans.py` wraps in that very module (its
`TARGETS`), for the traced benchmark run to swap: such an import says so with
`# noqa: F401` on the statement, and the mark covers only those names, so it
cannot hide another unused import and stops covering a name once the benchmark
drops its target.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freqvfx"
SOURCES = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "tools")
           for path in sorted(folder.glob("*.py"))]
SPANS = ROOT / "bench" / "spans.py"


def _bound_names(stmt):
    """The local names an import statement binds."""
    for alias in stmt.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(stmt, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def traced_names() -> dict[str, set[str]]:
    """Module -> the names `bench/spans.py` wraps there, read from its `TARGETS`
    literal without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    out: dict[str, set[str]] = {}
    for owner, attr, _, _ in targets:
        out.setdefault(owner, set()).add(attr)
    return out


def unused_names(source: str, traced: set[str]) -> list[tuple[int, str]]:
    """(line, name) of every import binding the source never reads, except the
    `traced` names on a statement marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for stmt in ast.walk(tree):
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        marked = any("# noqa: F401" in line
                     for line in lines[stmt.lineno - 1:stmt.end_lineno])
        found += [(stmt.lineno, name) for name in _bound_names(stmt)
                  if name not in used and not (marked and name in traced)]
    return found


def test_no_unused_imports():
    assert {"moe.py", "test_imports.py", "rounding_probe.py"} <= {p.name for p in SOURCES}
    traced = traced_names()
    found = []
    for path in SOURCES:
        module = f"freqvfx.{path.stem}" if path.parent == PACKAGE else None
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in
                  unused_names(path.read_text(encoding="utf-8"), traced.get(module, set()))]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_noqa_covers_only_traced_names():
    source = "from .moe import route, split_rank_budget  # noqa: F401\n"
    assert unused_names(source, {"route"}) == [(1, "split_rank_budget")]
    assert unused_names(source.replace("  # noqa: F401", ""), {"route"}) == [
        (1, "route"), (1, "split_rank_budget")]
