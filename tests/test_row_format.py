"""How a dictionary stores its rows is known to `dictionary` and `packed`
alone: every other module of the library reads a dictionary through
`column`, `row` and `sum_rows`, and none of them imports `packed`."""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).parent.parent / "src/afsimplex"
FORMAT_MODULES = ("dictionary.py", "packed.py")
# The tuple rows and the flag that told the two formats apart.  `rows` is
# left out: it is also the name of a command-line option.
FORMAT_ATTRIBUTES = {"num", "packed"}


def format_reads(path):
    """`line: what` for each attribute of FORMAT_ATTRIBUTES the module
    reads or sets and each import of the `packed` module it makes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_ATTRIBUTES:
            hits.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").split(".")[-1] == "packed"
            or any(alias.name == "packed" for alias in node.names)
        ):
            hits.append(f"{node.lineno}: from {node.module or '.'} import")
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[-1] == "packed" for alias in node.names
        ):
            hits.append(f"{node.lineno}: import")
    return hits


def test_the_walk_sees_the_format_module():
    # dictionary.py reads `num` and imports PackedDictionary.
    hits = format_reads(LIBRARY / "dictionary.py")
    assert any(".num" in hit for hit in hits) and any("import" in hit for hit in hits)


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(LIBRARY.glob("*.py")) if path.name not in FORMAT_MODULES],
    ids=lambda path: path.name,
)
def test_no_other_module_knows_the_row_format(path):
    assert format_reads(path) == []
