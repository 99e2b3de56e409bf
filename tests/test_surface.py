"""Every public top-level function and class of the package is used by the program.

A name counts as used when a module of src/vflsim or benchmarks refers to it
outside its own definition: as a name, an attribute, an imported name, or a
string equal to the name (the benchmark tracer looks functions up by name).
Tests do not count, so a helper that only tests call belongs under tests/.
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


def unused_public_names():
    """`module.name` of each public top-level def or class that nothing else refers to."""
    statements = []  # (path, top-level statement, names it refers to) over all program files
    for directory in (PACKAGE, ROOT / "benchmarks"):
        for path in sorted(directory.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                statements.append((path, node, _names_in(node)))
    unused = []
    for path, node, _ in statements:
        if path.parent != PACKAGE or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        qualified = f"{path.stem}.{node.name}"
        if node.name.startswith("_") or qualified in ENTRY_POINTS:
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            unused.append(qualified)
    return unused


def test_every_public_name_is_used_by_the_program():
    unused = unused_public_names()
    assert not unused, "no program code refers to " + ", ".join(unused)
