"""Every function and class that `src/dl2` defines is used by the program:
code in `src/`, `demos/` or `perfbench/` refers to it.  Code that only the
tests call belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept for work planned in ROADMAP.md, which will call them from src/
ALLOWED = {
    "embed_code": "item 3: the very regular torus elements as group classes",
    "restrict": "item 7: SL2 candidates restricted from GL2",
    "tensor_linear": "item 7: the twists by alpha o det",
}


def _used_names() -> set[str]:
    """Every name the program's code refers to: names, attributes, imported
    names, and strings that are identifiers (perfbench wraps functions by
    `getattr` on their names)."""
    used = set()
    for path in (p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
    return used


def test_every_src_name_is_used_outside_tests():
    known = _used_names() | set(ALLOWED)
    unused = []
    for path in sorted((ROOT / "src" / "dl2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in known:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "called only by tests: " + ", ".join(unused)


def test_allowlist_names_unused_definitions():
    """An allowed name that the program has come to use leaves the list."""
    assert not set(ALLOWED) & _used_names()
