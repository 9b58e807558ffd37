"""Source rules the package keeps, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "treeres"


def test_no_tuple_built_from_a_generator():
    # CPython 3.11 shrinks a generator-built tuple after allocating it, so
    # it is freed to another size's free list; build from a list instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and node.args
        and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert found == []


def test_no_json_dump_with_indent():
    # An indent makes json fall back from its C encoder to the pure-Python
    # one, which took a third of a warm `resolve --format json` at q = 13..17.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert found == []
