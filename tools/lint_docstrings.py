#!/usr/bin/env python3
"""Docstring lint for the public API — dependency-free pydocstyle D100–D104.

Checks that every module, package, public class, and public
function/method in the linted packages has a docstring, mirroring
ruff/pydocstyle codes:

- D100 missing docstring in public module
- D101 missing docstring in public class
- D102 missing docstring in public method
- D103 missing docstring in public function
- D104 missing docstring in public package (``__init__.py``)

The matching ruff configuration lives in ``pyproject.toml``
(``[tool.ruff.lint]``), so environments with ruff installed get the
same verdicts from ``ruff check``; this script keeps the check runnable
in sandboxes where ruff cannot be installed, and is what CI runs.

"Public" means the name (and every enclosing class) does not start with
an underscore; dunder methods other than ``__init__`` are exempt, as
are nested (function-local) definitions.

Usage::

    python tools/lint_docstrings.py            # lint the default packages
    python tools/lint_docstrings.py src/repro  # lint an explicit tree
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_PACKAGES = [
    ROOT / "src" / "repro" / "core",
    ROOT / "src" / "repro" / "figures",
    ROOT / "src" / "repro" / "sim",
    ROOT / "src" / "repro" / "obs",
]

FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_public(name: str) -> bool:
    """Underscore-prefixed names are private; ``__init__`` counts as public."""
    return not name.startswith("_") or name == "__init__"


def iter_violations(path: Path) -> Iterator[Tuple[int, str, str]]:
    """Yield (line, code, message) for each missing public docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    if ast.get_docstring(tree) is None:
        if path.name == "__init__.py":
            yield 1, "D104", "missing docstring in public package"
        else:
            yield 1, "D100", "missing docstring in public module"

    def walk(node: ast.AST, inside_class: bool) -> Iterator[Tuple[int, str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_public(child.name):
                    if ast.get_docstring(child) is None:
                        yield (
                            child.lineno,
                            "D101",
                            f"missing docstring in public class `{child.name}`",
                        )
                    yield from walk(child, inside_class=True)
            elif isinstance(child, FuncDef):
                name = child.name
                if name.startswith("__") and name.endswith("__") and name != "__init__":
                    continue
                if is_public(name) and ast.get_docstring(child) is None:
                    code = "D102" if inside_class else "D103"
                    kind = "method" if inside_class else "function"
                    yield (
                        child.lineno,
                        code,
                        f"missing docstring in public {kind} `{name}`",
                    )
                # Function-local definitions are not public API: no recursion.

    yield from walk(tree, inside_class=False)


def main(argv: List[str]) -> int:
    targets = [Path(a) for a in argv] if argv else DEFAULT_PACKAGES
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            files.append(target)

    violations = 0
    for path in files:
        for line, code, message in iter_violations(path):
            rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
            print(f"{rel}:{line}: {code} {message}", file=sys.stderr)
            violations += 1

    if violations:
        print(f"lint_docstrings: {violations} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_docstrings: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
