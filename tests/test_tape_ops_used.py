"""`src/freqvfx` holds what the package runs: every public function has a caller.

A stdlib-`ast` check over every module of the package, with no allow-list. A
public function defined at module level must be read by the package: by
another module, as an attribute of a name that module binds to its module
(`fx.record`) or as a name it imports from there (`from .tensor import
frozen`), or by its own module under its name (`is_live` calls
`active_tape`, `cli`'s parser dispatches to `cmd_gen`). A public method must
be read as an attribute by some module of the package. So `tensor.py` holds
the tape, no op: the generic ops that only the test suite's reference chains
record, and a helper that only tests call, are defined under `tests/`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freqvfx"


def _public(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The public module-level functions and the public methods of a module."""
    functions = {node.name for node in tree.body if _public(node)}
    methods = {item.name for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if _public(item)}
    return functions, methods


def _binds(stmt, module: str) -> tuple[set[str], set[str]]:
    """(aliases of `freqvfx.<module>`, names imported from it) bound by one import."""
    aliases, names = set(), set()
    if isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            if stmt.module in (module, f"freqvfx.{module}") and stmt.level in (0, 1):
                names.add(alias.name)
            elif alias.name == module and (stmt.level == 1 or stmt.module == "freqvfx"):
                aliases.add(alias.asname or alias.name)
    elif isinstance(stmt, ast.Import):
        aliases |= {alias.asname for alias in stmt.names
                    if alias.name == f"freqvfx.{module}" and alias.asname}
    return aliases, names


def referenced_names(tree: ast.Module, module: str) -> set[str]:
    """The names a module reads from `freqvfx.<module>`."""
    aliases, names = set(), set()
    for stmt in ast.walk(tree):
        bound = _binds(stmt, module)
        aliases |= bound[0]
        names |= bound[1]
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return names


def own_names(tree: ast.Module) -> set[str]:
    """The names a module reads by themselves."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def attributes(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unreferenced(sources: dict[str, str]) -> set[str]:
    """`module.name` of each public function or method no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read_attrs = set().union(*(attributes(tree) for tree in trees.values()))
    missing = set()
    for module, tree in trees.items():
        functions, methods = definitions(tree)
        used = own_names(tree)
        for other, other_tree in trees.items():
            if other != module:
                used |= referenced_names(other_tree, module)
        missing |= {f"{module}.{name}" for name in functions - used}
        missing |= {f"{module}.{name}" for name in methods - read_attrs}
    return missing


def test_every_public_function_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    missing = unreferenced(sources)
    assert not missing, f"src/freqvfx defines functions no module uses: {sorted(missing)}"


def test_the_rule_reads_aliases_imports_and_operators():
    tensor = ("class Tensor:\n"
              "    def __add__(self, other):\n"
              "        return add(self, other)\n"
              "    def detach(self): pass\n"
              "def add(a, b): pass\n"
              "def record(op): pass\n"
              "def frozen(x): pass\n"
              "def swap_last2(a): pass\n"
              "def _private(a): pass\n")
    users = {"denoiser": "from . import tensor as fx\nfx.record('patch_embed')\n",
             "moe": "from .tensor import frozen\nx.detach()\n",
             "spectral": "import numpy as np\nnp.swap_last2(a)\n"}  # another module's attribute
    assert unreferenced({"tensor": tensor, **users}) == {"tensor.swap_last2"}
    assert unreferenced({"tensor": tensor, "denoiser": users["denoiser"]}) == {
        "tensor.frozen", "tensor.swap_last2", "tensor.detach"}
    # a bare name in another module that never imported it reads nothing there
    assert unreferenced({"tensor": tensor, "moe": users["moe"], "train": "record(1)\n"}) == {
        "tensor.record", "tensor.swap_last2"}
