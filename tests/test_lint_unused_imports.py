"""Unused-import lint (ruff ``F401``) with the standard library only.

CI's ``lint`` job runs ``ruff check src tests benchmarks examples``, but
ruff is not installed on the build host, so an unused import used to be
found only after the push.  This is the same check as a tier-1 test: every
name an ``import`` binds must be read somewhere in its module.  It honours
what ruff honours here — ``# noqa`` on the import, re-exports listed in
``__all__``, names used only inside string annotations — and the one
``per-file-ignores`` entry of ``ruff.toml`` (package ``__init__.py`` files
import to re-export).  Usage is checked module-wide rather than per scope,
so it can only under-report, never flag a used import.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LINTED = ("src", "tests", "benchmarks", "examples")


def _string_annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names inside quoted annotations (``Optional["Query"]``, ``-> "Foo"``)."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for inner in ast.walk(quoted):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def _exported_names(tree: ast.Module) -> Iterator[str]:
    """String entries of a module-level ``__all__`` (``=`` or ``+=``)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for element in getattr(value, "elts", []):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` for every import binding ``path`` never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used: Set[str] = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    used.update(_string_annotation_names(tree))
    used.update(_exported_names(tree))
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = lines[node.lineno - 1 : (node.end_lineno or node.lineno)]
        if any("# noqa" in line for line in statement):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            # ``import a.b`` binds ``a``; ``... as c`` binds ``c``.
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                findings.append((node.lineno, bound))
    return findings


def test_no_unused_imports():
    findings = []
    checked = 0
    for directory in LINTED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py" and "src" in path.parts:
                continue  # ruff.toml per-file-ignores: re-export modules
            findings.extend(
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for line, name in unused_imports(path)
            )
            checked += 1
    assert checked > 100, "lint walked the wrong tree"
    assert not findings, "unused imports (ruff F401):\n" + "\n".join(findings)


def test_the_pass_sees_what_it_should(tmp_path):
    """The checker itself: flags the dead binding, honours the escapes."""
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "import a.b.c\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "from x import exported, quoted, dead as corpse\n"
        "__all__ = ['exported']\n"
        "def f(arg: 'quoted') -> List[int]:\n"
        "    return [len(a.b.c.d)] if TYPE_CHECKING else []\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os"), (5, "Dict"), (6, "corpse")]
