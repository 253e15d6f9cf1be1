"""No module under ``src/`` imports a name it never uses.

A name bound by an import counts as used when it appears as a name anywhere
in the module, or inside a string constant that parses as an expression (a
quoted annotation).  Package ``__init__`` modules are exempt, since they
import names to re-export them, and so is any name a package ``__init__``
re-exports from the module that imports it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _module_name(path, src):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(expression)
                        if isinstance(name, ast.Name))
    return used


def _unused_imports(src=SRC):
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.rglob("*.py"))}
    reexported = {(node.module, alias.name)
                  for path, tree in trees.items()
                  if path.name == "__init__.py"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  for alias in node.names}
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        module = _module_name(path, src)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names
                         if (module, alias.asname or alias.name)
                         not in reexported]
            else:
                continue
            unused.extend(f"{path.relative_to(src)}:{node.lineno}: {name}"
                          for name in bound if name not in used)
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports() == []


def test_the_scan_sees_an_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from pkg.mod import Tuple\n")
    (package / "mod.py").write_text(
        "from typing import Dict, List, Optional, Tuple\n"
        "import os.path\n"
        "from dataclasses import field\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    \"\"\"Return the field list.\"\"\"\n"
        "    return [x]\n")
    assert _unused_imports(tmp_path) == [
        "pkg/mod.py:1: Dict", "pkg/mod.py:2: os", "pkg/mod.py:3: field"]
