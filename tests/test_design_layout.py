"""DESIGN.md §6 ("Source layout") names exactly the modules of ``src/repro``.

The layout block lists each package directory followed by its module
files, wrapped onto indented continuation lines; a root-level file sits
at the block's first indent. Every file it names must exist, and every
module except a package's ``__init__.py`` must be named, so the map a
reader navigates by cannot drift from the tree.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _layout_block():
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 6. Source layout"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines[0] == "src/repro/"
    rest = lines[1:]
    end = next(i for i, line in enumerate(rest) if not line.startswith(" "))
    return rest[:end]


def named_modules():
    """Paths (relative to ``src/repro``) the §6 block names."""
    named = set()
    directory = ""
    for line in _layout_block():
        tokens = line.split()
        if line.startswith("  ") and not line.startswith("   "):
            head = tokens.pop(0)
            directory = head if head.endswith("/") else ""
            if not directory:
                named.add(head)
        named.update(directory + token for token in tokens
                     if token.endswith(".py"))
    return named


def tree_modules():
    return {path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
            if path.name != "__init__.py"}


def test_layout_names_exactly_the_tree():
    named, tree = named_modules(), tree_modules()
    assert {"named but absent": sorted(named - tree),
            "present but unnamed": sorted(tree - named)} == {
        "named but absent": [], "present but unnamed": []}
