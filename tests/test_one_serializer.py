"""Result records have one JSON writer: ``Record.to_json``.

No module calls ``dataclasses.asdict`` or ``astuple``, and only ``Record``
and ``SkewPencil`` (which writes the pencil file format through
``rat_str``) define ``to_json``.  ``asdict`` deep-copies a record; per
``CriterionVerdict``, a hand-written ``to_json`` took 0.8 us, the shallow
``vars()`` comprehension of ``Record.to_json`` 2.0 us and ``asdict`` 56 us,
and a catalog analysis writes hundreds of verdicts (9 specs x 20 points x
criterion and integrability), so the writer stays a shallow copy.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "biham"
DEEP_COPIES = {"asdict", "astuple"}
WRITERS = {"Record", "SkewPencil"}


def _violations(tree) -> list:
    allowed = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name in WRITERS
               for item in node.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in DEEP_COPIES:
            found.append((node.lineno, f"import {node.name}"))
        elif isinstance(node, ast.Name) and node.id in DEEP_COPIES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in DEEP_COPIES:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.FunctionDef) and node.name == "to_json"
              and id(node) not in allowed):
            found.append((node.lineno, "to_json"))
    return [f"{what} at line {line}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_has_one_serializer(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_refuses_a_second_serializer():
    source = ("from dataclasses import asdict, dataclass\nimport dataclasses\n"
              "class Verdict:\n    def to_json(self):\n        return asdict(self)\n"
              "def to_json(x):\n    return dataclasses.astuple(x)\n"
              "class Record:\n    def to_json(self):\n        return vars(self)\n")
    assert _violations(ast.parse(source)) == [
        "import asdict at line 1", "to_json at line 4", "asdict at line 5",
        "to_json at line 6", "astuple at line 7"]
