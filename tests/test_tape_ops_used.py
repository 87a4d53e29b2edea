"""`freqvfx.tensor` holds the tape and the ops the package records, no others.

A stdlib-`ast` check: every public function that `tensor.py` defines at module
level must be referenced by another module of `src/freqvfx`, as an attribute
of a name that module binds to `freqvfx.tensor` (`fx.linear`) or as a name it
imports from there (`from .tensor import frozen`). The one other way to reach
an op is an operator of `Tensor` (`a + b` calls `add`), so a function that one
of `Tensor`'s dunder methods calls counts as referenced. An op that only the
test suite records is defined there, on `fx.record`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freqvfx"
TENSOR = PACKAGE / "tensor.py"


def public_functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def operator_targets(tree: ast.Module) -> set[str]:
    """The functions that `Tensor`'s dunder methods call."""
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "Tensor")
    return {call.func.id for method in cls.body if isinstance(method, ast.FunctionDef)
            and method.name.startswith("__") for call in ast.walk(method)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def _is_tensor_module(module: str | None, level: int) -> bool:
    return (level == 1 and module == "tensor") or module == "freqvfx.tensor"


def referenced_names(tree: ast.Module) -> set[str]:
    """The names a module reads from `freqvfx.tensor`."""
    aliases, names = set(), set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if _is_tensor_module(stmt.module, stmt.level):
                    names.add(alias.name)
                elif alias.name == "tensor" and (stmt.level == 1 or stmt.module == "freqvfx"):
                    aliases.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.Import):
            aliases |= {alias.asname for alias in stmt.names
                        if alias.name == "freqvfx.tensor" and alias.asname}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return names


def unreferenced(tensor_source: str, other_sources: list[str]) -> set[str]:
    tree = ast.parse(tensor_source)
    used = operator_targets(tree)
    for source in other_sources:
        used |= referenced_names(ast.parse(source))
    return public_functions(tree) - used


def test_every_public_tensor_function_has_a_caller_in_the_package():
    others = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
              if path != TENSOR]
    assert len(others) > 10
    missing = unreferenced(TENSOR.read_text(encoding="utf-8"), others)
    assert not missing, f"tensor.py defines ops no other module uses: {sorted(missing)}"


def test_the_rule_reads_aliases_imports_and_operators():
    tensor = ("class Tensor:\n"
              "    def __add__(self, other):\n"
              "        return add(self, other)\n"
              "def add(a, b): pass\n"
              "def linear(h, w): pass\n"
              "def frozen(x): pass\n"
              "def swap_last2(a): pass\n"
              "def _private(a): pass\n")
    users = ["from . import tensor as fx\nfx.linear(h, w)\n",
             "from .tensor import frozen\n",
             "import numpy as np\nnp.swap_last2(a)\n"]  # another module's attribute
    assert unreferenced(tensor, users) == {"swap_last2"}
    assert unreferenced(tensor, users[:1]) == {"frozen", "swap_last2"}
