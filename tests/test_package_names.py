"""Every function, class and method that src/cotforge defines is read by package code,
unless the benchmark's tracer names it (bench/layers.py LAYERS) or the README documents
it as record API. A name that only tests read belongs in tests/helpers.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# record API that the README documents and no package code calls
README_API = {"strip_chat_prompt"}


def unread_names(sources: list[str]) -> set[str]:
    """Top-level function and class names, and non-dunder method names, that no
    loaded Name, loaded Attribute or ImportFrom in `sources` reads."""
    trees = [ast.parse(source) for source in sources]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {item.name for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return defined - read


def layer_names() -> set[str]:
    """Every dotted part of the attributes that bench/layers.py's LAYERS names, read from its source."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"])
    return {part for _, _, attr in ast.literal_eval(value) for part in attr.split(".")}


def test_the_scan_finds_a_name_that_nothing_reads():
    source = """
def called(): pass
def unused(): called()
class Kept:
    def __init__(self): pass
    def method(self): pass
    def unread_method(self): pass
Kept().method()
"""
    assert unread_names([source]) == {"unused", "unread_method"}


def test_every_package_name_is_read_pinned_or_documented():
    sources = [path.read_text() for path in sorted((ROOT / "src" / "cotforge").glob("*.py"))]
    assert sorted(unread_names(sources) - layer_names()) == sorted(README_API)
