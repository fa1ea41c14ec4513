"""Source hygiene checks on the package modules."""

import ast
import dataclasses
import pathlib
import re
import tomllib

import pytest

import dmlpg
from dmlpg import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dmlpg"
# ``__init__`` imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # attribute chains (np.linalg.norm) end in a Name, so Names cover every use
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport numpy as np\nfrom time import time, sleep\n"
                     "np.zeros(1)\nsleep(math.pi)\n")
    assert _unused_imports(tree) == ["time (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _dead_private_names(trees) -> list[str]:
    """Module-level ``_name`` functions, classes and constants of the
    ``trees`` {module: ast} that no module reads, by name or as an attribute."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name} (line {line})" for module, name, line in defined
                  if name not in read)


def test_scan_flags_a_dead_private_name():
    trees = {"a": ast.parse("_LIMIT = 1\n_unused = 2\ndef _helper(): return _LIMIT\n"
                            "def _dead(): pass\nclass _Gone: pass\n"),
             "b": ast.parse("from a import _dead\nimport a\na._helper()\n")}
    # an import alone is no use
    assert _dead_private_names(trees) == ["a._Gone (line 5)", "a._dead (line 4)",
                                          "a._unused (line 2)"]


def test_package_reads_every_private_name_it_defines():
    package = SRC.glob("*.py")
    assert _dead_private_names({p.stem: ast.parse(p.read_text()) for p in package}) == []


def _print_calls(tree, allowed: str | None = None) -> list[int]:
    """Lines of the ``print(...)`` calls in ``tree`` outside the top-level
    function named ``allowed``."""
    exempt = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == allowed
              for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print" and id(node) not in exempt)


def test_scan_flags_a_print_call():
    tree = ast.parse("def main():\n    print(1)\n\ndef helper():\n    print(2)\n"
                     "class Report:\n    def main(self):\n        print(3)\n")
    assert _print_calls(tree) == [2, 5, 8]
    assert _print_calls(tree, "main") == [5, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_code_logs_instead_of_printing(path):
    # only the command line's entry point writes to the terminal
    allowed = "main" if path.name == "cli.py" else None
    assert _print_calls(ast.parse(path.read_text()), allowed) == []


def test_package_version_is_the_project_version():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert dmlpg.__version__ == project["version"]


def _key_rows(text: str) -> list[tuple[list[str], list[str]]]:
    """(keys, default literals) of each row of the table that follows
    "Keys and defaults:" in ``text``: the backticked words of its first two
    cells."""
    table = text.split("Keys and defaults:", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return [(re.findall(r"`(\w+)`", keys), re.findall(r"`([^`]+)`", default))
            for keys, default in rows]


def test_key_rows_read_keys_and_defaults():
    text = ("Keys and defaults:\n\n| key | default | meaning |\n| --- | --- | --- |\n"
            "| `a`, `b` | `1`, `x y` | `c` |\n| `d` | (unset) | - |\n\nmore\n")
    assert _key_rows(text) == [(["a", "b"], ["1", "x y"]), (["d"], [])]


def test_readme_lists_every_config_key_with_its_default():
    rows = _key_rows((ROOT / "README.md").read_text())
    fields = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
    assert sorted(key for keys, _ in rows for key in keys) == sorted(fields)
    for keys, literals in rows:
        if len(literals) != len(keys):     # "(unset)", "per problem", "(required)"
            assert not literals, keys
            continue
        for key, literal in zip(keys, literals):
            parsed = cli.parse_config(f"problem = beam\n{key} = {literal}\n")
            assert getattr(parsed, key) == fields[key], key
