"""Every top-level function, class and module-level constant of the package is
used by the program.

A name counts as used when a module of src/vflsim or benchmarks refers to it
outside its own definition: as a name, an attribute, an imported name, or a
string equal to the name (the benchmark tracer looks functions up by name).
Tests do not count, so a helper or constant that only tests use belongs under
tests/.  Private names count as much as public ones: a leftover private
helper or constant is code that no run reaches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vflsim"
ENTRY_POINTS = {"cli.main"}  # the console script declared in pyproject.toml


def _names_in(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _defined(node):
    """The names a top-level statement defines: a function, a class, or the plain
    names assigned by a module-level assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def unused_names():
    """`module.name` of each top-level def, class or constant of the package that
    nothing else refers to."""
    statements = []  # (path, top-level statement, names it refers to) over all program files
    for directory in (PACKAGE, ROOT / "benchmarks"):
        for path in sorted(directory.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                statements.append((path, node, _names_in(node)))
    unused = []
    for path, node, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in _defined(node):
            qualified = f"{path.stem}.{name}"
            if (name.startswith("__") and name.endswith("__")) or qualified in ENTRY_POINTS:
                continue
            if not any(name in names for _, other, names in statements if other is not node):
                unused.append(qualified)
    return unused


def test_every_top_level_name_is_used_by_the_program():
    unused = unused_names()
    assert not unused, "no program code refers to " + ", ".join(unused)
