"""Every function, class and method of ``src/hcmsim`` has a reader there.

Members that only tests read belong in ``tests/``, next to the tests that
read them. A name counts as read when code in ``src/hcmsim`` loads it as a
name or as an attribute anywhere; the check goes by bare name, so it can
miss a dead member that shares its name with a live one, but never flags
a live one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hcmsim"

# members read only from outside src/: perfbench's tracer reads BlockSystem.roots
READ_OUTSIDE_SRC = {"BlockSystem.roots"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of every class, function and method,
    nested ones included; dunder methods are called by Python itself."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    if not _is_dunder(item.name):
                        yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, node.name


def _reads(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def unread_members(src: Path = SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    return [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in read and qualified not in READ_OUTSIDE_SRC
    ]


def test_every_src_member_has_a_reader_in_src():
    assert unread_members() == []


def test_the_scan_flags_a_member_without_a_reader(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        return helper()\n"
        "    def unused(self):\n        pass\n"
        "def helper():\n    def inner():\n        pass\n    return inner\n"
        "def dead():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import C\nC()\n")
    assert unread_members(tmp_path) == ["a.py: C.unused", "a.py: dead"]
