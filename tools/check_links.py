#!/usr/bin/env python3
"""Cross-document link checker for the repository's documentation.

Two classes of reference are verified:

1. **Markdown links** — every relative ``[text](target)`` link in the
   top-level documents and ``docs/*.md`` must point at an existing file
   (external ``http(s)``/``mailto`` links and pure ``#fragment`` anchors
   are skipped; a fragment on a relative link is stripped before the
   existence check).

2. **Code-path mentions** — backticked path-like tokens such as
   ``benchmarks/test_ablation_decay.py``, ``tools/equivalence.py``
   or bare ``test_pipeline.py`` appearing in the documents
   *or in any docstring under src/* must name a file that exists
   (bare ``test_*.py`` names are searched under ``benchmarks/`` and
   ``tests/``).

Exit code 1 with one line per broken reference; 0 when clean.

Usage::

    python tools/check_links.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "ROADMAP.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Path-qualified mentions inside backticks: benchmarks/..., tools/...,
# tests/..., examples/..., src/... ending in .py
QUALIFIED_RE = re.compile(
    r"`((?:benchmarks|tools|tests|examples|src)/[\w./]+\.py)`"
)
# Bare test-file mentions inside backticks: `test_pipeline.py`
BARE_TEST_RE = re.compile(r"`(test_\w+\.py)`")


def iter_docstrings(path: Path) -> Iterator[str]:
    """Yield every module/class/function docstring in a Python file."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:  # a broken source file is its own error
        raise SystemExit(f"error: cannot parse {path}: {exc}")
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def check_markdown_links(path: Path, text: str) -> List[str]:
    """Return error strings for relative markdown links that do not resolve."""
    errors = []
    for target in MD_LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(ROOT)}: broken link -> {target}")
    return errors


def check_path_mentions(origin: str, text: str) -> List[str]:
    """Return error strings for backticked code paths that do not exist."""
    errors = []
    for mention in QUALIFIED_RE.findall(text):
        if not (ROOT / mention).exists():
            errors.append(f"{origin}: missing file -> {mention}")
    for mention in BARE_TEST_RE.findall(text):
        candidates = [
            ROOT / "benchmarks" / mention,
            *(ROOT / "tests").rglob(mention),
        ]
        if not any(c.exists() for c in candidates):
            errors.append(
                f"{origin}: bare test reference -> {mention} "
                f"(not under benchmarks/ or tests/)"
            )
    return errors


def main() -> int:
    errors: List[str] = []
    checked: Tuple[int, int] = (0, 0)

    docs_checked = 0
    for doc in DOCUMENTS:
        if not doc.exists():
            errors.append(f"missing document: {doc.relative_to(ROOT)}")
            continue
        docs_checked += 1
        text = doc.read_text(encoding="utf-8")
        origin = str(doc.relative_to(ROOT))
        errors.extend(check_markdown_links(doc, text))
        errors.extend(check_path_mentions(origin, text))

    sources_checked = 0
    for src in sorted((ROOT / "src").rglob("*.py")):
        sources_checked += 1
        origin = str(src.relative_to(ROOT))
        for doc in iter_docstrings(src):
            errors.extend(check_path_mentions(f"{origin} (docstring)", doc))

    if errors:
        for err in errors:
            print(f"check_links: {err}", file=sys.stderr)
        print(f"check_links: {len(errors)} broken reference(s)", file=sys.stderr)
        return 1
    print(
        f"check_links: OK ({docs_checked} documents, "
        f"{sources_checked} source files)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
