"""The layout of the package source: every name it defines is read by
the package itself, and no line is longer than 79 characters.

A helper that only the tests call belongs in tests/oracles.py, not in
src/thetachar; this scan finds one by its name.  A definition counts as
read when the package loads that name, as a bare name or as an
attribute (x.name); imports, assignments and strings do not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "thetachar"
MAX_LINE = 79


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, where) of each module-level function, class and assigned
    name, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, "%s.%s" % (node.name, item.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id


def _reads(tree):
    """The names the module loads, bare or as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            yield node.attr


def unused_names(src=SRC):
    """'module:name' of each definition in src that nothing in src
    reads."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    return ["%s:%s" % (module, where)
            for module, tree in trees.items()
            for name, where in _definitions(tree)
            if not _dunder(name) and name not in read]


def long_lines(src=SRC):
    """'file:line (length)' of each source line over MAX_LINE."""
    return ["%s:%d (%d)" % (path.name, n, len(line))
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]


def test_every_definition_is_read_by_the_package():
    assert unused_names() == []


def test_no_line_is_longer_than_79():
    assert long_lines() == []


def test_the_scan_sees_an_unused_name_and_a_long_line(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "X = 1\n"
        "Y = X\n"
        "class C:\n"
        "    def used(self):\n"
        "        return self.used\n"
        "    def unused(self):\n"
        "        return 'Y helper os'\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "def helper():\n"
        "    return C\n"
        "#" + "=" * MAX_LINE + "\n")
    assert unused_names(tmp_path) == ["a:Y", "a:C.unused", "a:helper"]
    assert long_lines(tmp_path) == ["a.py:13 (80)"]
