"""Result records have one JSON writer, ``Record.to_json``, and indented JSON
text has one, ``exactalg.dump_json``.

No module calls ``dataclasses.asdict`` or ``astuple``, and only ``Record``
and ``SkewPencil`` (which writes the pencil file format through
``rat_str``) define ``to_json``.  ``asdict`` deep-copies a record; per
``CriterionVerdict``, a hand-written ``to_json`` took 0.8 us, the shallow
``vars()`` comprehension of ``Record.to_json`` 2.0 us and ``asdict`` 56 us,
and a catalog analysis writes hundreds of verdicts (9 specs x 20 points x
criterion and integrability), so the writer stays a shallow copy.

``json.dumps`` with ``indent`` runs the standard library's pure-Python
encoder, so no module but ``exactalg/parser.py`` passes ``indent`` to
``json.dumps`` or ``json.dump``, and ``dump_json`` writes the same bytes
(``json.dumps(value, sort_keys=True, indent=2)`` is its oracle).
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from biham.exactalg import dump_json

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


JSON_TEXT_WRITER = "exactalg/parser.py"


def _indented_dumps(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords):
                found.append((node.lineno, name))
    return [f"{name} with indent at line {line}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py")
                                        if p.relative_to(PACKAGE).as_posix() != JSON_TEXT_WRITER),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_writes_indented_json_through_dump_json(path):
    assert _indented_dumps(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_refuses_a_second_indented_writer():
    source = ("import json\nfrom json import dumps\n"
              "print(json.dumps(x, sort_keys=True))\n"
              "print(json.dumps(x, sort_keys=True, indent=2))\n"
              "json.dump(x, fh, indent=1)\nprint(dumps(x, indent=None))\n")
    assert _indented_dumps(ast.parse(source)) == [
        "dumps with indent at line 4", "dump with indent at line 5",
        "dumps with indent at line 6"]


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
SCALARS = (TEXT | st.booleans() | st.none()
           | st.integers(min_value=-10 ** 4000, max_value=10 ** 4000)
           | st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.lists(inner, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, inner, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_dump_json_writes_the_bytes_of_json_dumps(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value,error", [
    (float("nan"), ValueError), ({"a": [float("inf")]}, ValueError),
    ([{"b": -float("inf")}], ValueError),
    ({1: "a"}, TypeError), ({"a": {None: 1}}, TypeError), ([{True: 1}], TypeError),
    ({1.5: 0}, TypeError), ({"a": 1, 2: 3}, TypeError),
    (Fraction(1, 2), TypeError), ([object()], TypeError), ({"a": {1, 2}}, TypeError),
], ids=["nan", "inf", "minus_inf", "int_key", "none_key", "bool_key", "float_key",
        "mixed_keys", "fraction", "object", "set"])
def test_dump_json_refuses_what_is_not_json(value, error):
    with pytest.raises(error):
        dump_json(value)
