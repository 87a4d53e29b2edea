"""The number of settable values in `src/freqvfx`, pinned.

A settable value is a default a caller can override without editing the package:
a defaulted parameter (positional or keyword-only) of a public function or
method, `__init__` included, defined at module or class level, plus a dataclass
field with a default that is an `__init__` parameter (`field(init=False)` is
not). The config dataclasses in `config.py` hold the defaults of every size and
setting, so the builders and stage functions take those values and default none.
A change that removes settable values lowers the pin and says so in CHANGES.md;
none may raise it silently.

`python tests/test_settable_values.py OTHER_SRC` prints the count of this tree's
`src` and of OTHER_SRC, then each `<module>.<name>` that one tree holds more
often than the other, once per value, under the tree that holds it.
"""

import ast
import os
import re
import sys
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SETTABLE_VALUES = 50


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _init_field(value: ast.expr) -> bool:
    """False for `field(..., init=False)`."""
    return not (isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def settable_values(tree: ast.Module) -> list[str]:
    """One `name` per settable value in the module, in source order."""
    found = []

    def visit(body, owner: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "__init__" or not node.name.startswith("_"):
                    args = node.args
                    n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                    found.extend([owner + node.name] * n)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    found.extend(owner + node.name + "." + st.target.id for st in node.body
                                 if isinstance(st, ast.AnnAssign) and st.value is not None
                                 and _init_field(st.value))
                visit(node.body, owner + node.name + ".")

    visit(tree.body, "")
    return found


def _modules(src: str) -> dict[str, ast.Module]:
    pkg = os.path.join(src, "freqvfx")
    return {name: ast.parse(open(os.path.join(pkg, name), encoding="utf-8").read())
            for name in sorted(os.listdir(pkg)) if name.endswith(".py")}


def names(src: str = SRC) -> list[str]:
    """`<module>.<name>` of each settable value under `src`, module by module."""
    return [f"{module[:-3]}.{name}" for module, tree in _modules(src).items()
            for name in settable_values(tree)]


def only_in(ours: list[str], theirs: list[str]) -> list[str]:
    """The names `ours` holds more often than `theirs`, once per extra value."""
    return sorted((Counter(ours) - Counter(theirs)).elements())


def test_settable_value_count_is_pinned():
    rule = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "def _private(a=1): pass\n"
        "def outer():\n"
        "    def inner(a=1): pass\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(init=False)\n"
        "    def __init__(self, e=3): pass\n"
        "    def method(self, g=4): pass\n"
        "    def _hidden(self, h=5): pass\n")
    assert settable_values(rule) == ["f", "f", "C.y", "C.z", "C.__init__", "C.method"]
    assert len(names()) == SETTABLE_VALUES


def test_only_in_lists_each_value_one_tree_lacks():
    old = settable_values(ast.parse("def f(a=1, b=2): pass\n"
                                    "def g(c=3): pass\n"
                                    "def h(d=4): pass\n"))
    new = settable_values(ast.parse("def f(a, b=2): pass\n"
                                    "def h(d=4, e=5): pass\n"
                                    "def k(x=6): pass\n"))
    assert only_in(old, new) == ["f", "g"]
    assert only_in(new, old) == ["h", "k"]
    assert only_in(old, old) == []


def test_no_default_constants_beside_the_configs():
    """The model's sizes and routing settings are defaulted in `config.py` only."""
    modules = _modules(SRC)
    for name in ("denoiser.py", "moe.py"):
        constants = [t.id for node in modules[name].body if isinstance(node, ast.Assign)
                     for t in node.targets
                     if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z0-9_]*_DEFAULT", t.id)]
        assert constants == [], name


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/test_settable_values.py OTHER_SRC", file=sys.stderr)
        return 2
    other = os.path.abspath(argv[0])
    found = {src: names(src) for src in (SRC, other)}
    for src in (SRC, other):
        print(f"{len(found[src]):5d}  {src}")
    for src, rest in ((SRC, other), (other, SRC)):
        print(f"only in {src}:")
        for name in only_in(found[src], found[rest]):
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
