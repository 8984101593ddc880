"""The public surface: every name ``tbk`` re-exports has a reader.

A re-exported name must be used by another module of the package or be
named, in backticks, in the README's "What it computes" section, so that
helpers nothing calls do not accumulate in the API.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import tbk

PACKAGE = Path(tbk.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _reexports() -> list[tuple[str, str]]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module for alias in node.names]


def _documented() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## What it computes", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def test_every_reexport_is_used_or_documented():
    names = _reexports()
    assert ("brauer", "in_B0") in names and ("cocycle", "is_cocycle") in names
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    documented = _documented()
    dead = [f"{module}.{name}" for module, name in names
            if name not in documented
            and not any(re.search(rf"\b{name}\b", text)
                        for stem, text in sources.items() if stem != module)]
    assert not dead, ("re-exported, but used by no other module and not "
                      f"named in README's 'What it computes': {dead}")
