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


def _names_by_statement(path: Path) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement of the file with the identifiers it names:
    variables, attributes, imported names and whole string constants (the
    benchmark tracer looks functions up by string)."""
    out = []
    for stmt in ast.parse(path.read_text(), str(path)).body:
        named = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
        out.append((stmt, named))
    return out


def test_every_public_definition_is_reached():
    # A module-level function or class, public or private, that no package
    # module, script or benchmark names outside its own definition has no
    # caller but tests.
    root = SRC.parents[1]
    package = [pair for path in SRC.glob("*.py") for pair in _names_by_statement(path)]
    statements = package + [
        pair
        for path in [
            *(root / "scripts").glob("*.py"),
            *(root / "perfbench").glob("*.py"),
        ]
        if not path.name.startswith("test_")
        for pair in _names_by_statement(path)
    ]
    unreached = sorted(
        stmt.name
        for stmt, _ in package
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in named for other, named in statements if other is not stmt)
    )
    assert unreached == []


def test_every_module_level_import_is_used():
    # A name a module imports and never names again costs an import and
    # hides which modules depend on which.  __init__.py imports to re-export.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{stmt.lineno} {bound}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
            for alias in stmt.names
            for bound in [(alias.asname or alias.name).split(".")[0]]
            if bound not in named
        ]
    assert unused == []


def test_only_complexes_turns_vertex_bits_into_names():
    # Which name a vertex bit stands for is decided in complexes.py alone;
    # other modules print a complex through complexes._facet_names.
    found = sorted(
        path.name
        for path in SRC.glob("*.py")
        if path.name != "complexes.py"
        and any("_mask_names" in named for _, named in _names_by_statement(path))
    )
    assert found == []
