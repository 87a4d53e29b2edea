"""`src/freqvfx` holds what the package runs, and `tests/oracles.py` what the
tests read: every public function and class has a reader.

A stdlib-`ast` check, with no allow-list. A public function or class defined
at module level in the package must be read by the package: by another
module, as an attribute of a name that module binds to its module
(`fx.record`) or as a name it imports from there (`from .tensor import
frozen`), or by its own module under its name (`is_live` calls
`active_tape`, `cli`'s parser dispatches to `cmd_gen`). A public method must
be read as an attribute by some module of the package. So `tensor.py` holds
the tape, no op: the generic ops that only the test suite's reference chains
record, and a helper that only tests call, are defined under `tests/`. The
same rule holds `tests/oracles.py` to the files under `tests/` and `tools/`,
which read it as `import oracles` or `from oracles import ...`, so a
reference whose checks are gone goes with them.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "freqvfx"


def _public(node, kinds=ast.FunctionDef) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The public module-level functions and classes, and the public methods, of
    a module."""
    functions = {node.name for node in tree.body if _public(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {item.name for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if _public(item)}
    return functions, methods


def _binds(stmt, module: str) -> tuple[set[str], set[str]]:
    """(aliases of `freqvfx.<module>` or of a top-level `<module>`, names imported
    from either) bound by one import."""
    aliases, names = set(), set()
    if isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            if stmt.module in (module, f"freqvfx.{module}") and stmt.level in (0, 1):
                names.add(alias.name)
            elif alias.name == module and (stmt.level == 1 or stmt.module == "freqvfx"):
                aliases.add(alias.asname or alias.name)
    elif isinstance(stmt, ast.Import):
        aliases |= {alias.asname or alias.name for alias in stmt.names if alias.name == module}
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


def unreferenced(sources: dict[str, str], checked=None) -> set[str]:
    """`module.name` of each public function, class or method of the `checked`
    modules (every module by default) that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read_attrs = set().union(*(attributes(tree) for tree in trees.values()))
    missing = set()
    for module in checked or trees:
        tree = trees[module]
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
    assert not missing, f"src/freqvfx defines what no module uses: {sorted(missing)}"


def test_every_public_oracle_has_a_reader_in_tests_or_tools():
    readers = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted([*TESTS.glob("*.py"), *(ROOT / "tools").glob("*.py")])
               if path.name != "oracles.py"}
    assert len(readers) > 20
    oracles = (TESTS / "oracles.py").read_text(encoding="utf-8")
    missing = unreferenced({"oracles": oracles, **readers}, ["oracles"])
    assert not missing, f"tests/oracles.py defines what no test or tool reads: {sorted(missing)}"


def test_the_rule_reads_aliases_imports_and_operators():
    tensor = ("class Tensor:\n"
              "    def __add__(self, other):\n"
              "        return add(self, other)\n"
              "    def detach(self): pass\n"
              "def add(a, b): pass\n"
              "def record(op): return Tensor(op)\n"
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


def test_the_rule_reads_a_top_level_module_and_its_classes():
    oracles = ("def add(a, b): pass\n"
               "def chain(a): return add(a, a)\n"
               "def unused(a): pass\n"
               "class Ref:\n"
               "    def step(self): pass\n"
               "class Spare: pass\n")
    readers = {"tests/test_a.py": "import oracles\noracles.chain(1)\n",
               "tests/test_b.py": "from oracles import Ref\nRef().step()\n",
               "tools/probe.py": "import oracles as o\nfrom freqvfx import unused\n"}
    assert unreferenced({"oracles": oracles, **readers}, ["oracles"]) == {
        "oracles.unused", "oracles.Spare"}
    # an alias reads as the module, and the readers' own definitions are not checked
    readers["tools/probe.py"] = "import oracles as o\no.unused(o.Spare)\ndef main(): pass\n"
    assert unreferenced({"oracles": oracles, **readers}, ["oracles"]) == set()
    del readers["tests/test_b.py"]
    assert unreferenced({"oracles": oracles, **readers}, ["oracles"]) == {
        "oracles.Ref", "oracles.step"}
