"""Every function, class, method and instance attribute that `src/dl2`
defines is read by the program: code in `src/`, `demos/` or `perfbench/`
loads it.  Code that only the tests call belongs in the tests.

A module-level or nested function or class is used when the program loads
its name, imports it or names it in a string (perfbench wraps functions by
`getattr` on their names).  A method or property is used only through an
attribute load `x.name` or such a string, and an attribute that a method
stores on `self` must be read somewhere as `.name`: a local variable of the
same name does not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept for work planned in ROADMAP.md, which will call them from src/
ALLOWED = {
    "embed_code": "item 3: the very regular torus elements as group classes",
    "restrict": "item 7: SL2 candidates restricted from GL2",
    "tensor_linear": "item 7: the twists by alpha o det",
}


def _loads() -> tuple[set[str], set[str]]:
    """(names, attributes): every name the program loads or imports, and
    every attribute it loads; strings that are identifiers go to both."""
    names, attrs = set(), set()
    for path in (p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
                attrs.add(node.value)
    return names, attrs


def _self_stores(method: ast.FunctionDef):
    """The attributes `method` stores on its first argument."""
    if not method.args.args:
        return
    me = method.args.args[0].arg
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == me
        ):
            yield node


def _definitions():
    """(where, name, is_member) for every definition in src/dl2: functions
    and classes, methods and properties, and attributes stored on self."""
    for path in sorted((ROOT / "src" / "dl2").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(node)
                    for store in _self_stores(node):
                        yield f"{path.name}:{store.lineno}", store.attr, True
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.name}:{node.lineno}", node.name, node in methods


def test_every_src_name_is_used_outside_tests():
    names, attrs = _loads()
    unused = sorted(
        {
            f"{where} {name}"
            for where, name, member in _definitions()
            if not (name.startswith("__") and name.endswith("__"))
            and name not in ALLOWED
            and name not in (attrs if member else names | attrs)
        }
    )
    assert not unused, "read only by tests: " + ", ".join(unused)


def test_allowlist_names_unused_definitions():
    """An allowed name that the program has come to use leaves the list."""
    names, attrs = _loads()
    assert not set(ALLOWED) & (names | attrs)


def _imports(tree: ast.Module):
    """(alias, statement) for every name a module imports, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                yield alias, node


def test_every_src_import_is_used():
    """A module of src/dl2 loads every name it imports.  Names in
    `__init__.__all__` count as used, as do imports marked `# noqa: F401`
    on their own line or on the first line of their statement."""
    unused = []
    for path in sorted((ROOT / "src" / "dl2").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for alias, stmt in _imports(tree):
            name = alias.asname or alias.name.partition(".")[0]
            marked = any("# noqa: F401" in lines[i - 1] for i in (alias.lineno, stmt.lineno))
            if name not in used and not marked:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)
