"""Sums of products have one accumulation path: ``RationalFunction.sums_of_products``.

The packed product kernel ``_add_product`` is named only inside
``Poly.__mul__``, which accumulates one product, and
``RationalFunction.sums_of_products``, which sums every group of products a
certificate, a covector or a pairing needs.  A second routine that
accumulates products (a zero test that sums a group the exact sum then sums
again, say) would have to name the kernel, and this check refuses it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "biham"
KERNEL = "_add_product"
CALLERS = {("Poly", "__mul__"), ("RationalFunction", "sums_of_products")}


def _allowed(tree) -> set:
    """The ids of every node inside a method of ``CALLERS``."""
    return {id(inner) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and (node.name, item.name) in CALLERS
            for inner in ast.walk(item)}


def _uses(tree):
    """(line, node) of every name, attribute or import of the kernel."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == KERNEL)
                or (isinstance(node, ast.Attribute) and node.attr == KERNEL)
                or (isinstance(node, ast.alias) and node.name == KERNEL)):
            yield node.lineno, node


def _violations(tree) -> list:
    allowed = _allowed(tree)
    return [f"{KERNEL} at line {line}" for line, node in sorted(_uses(tree), key=lambda u: u[0])
            if id(node) not in allowed]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_has_one_accumulation_path(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_both_callers_use_the_kernel():
    tree = ast.parse((PACKAGE / "exactalg" / "poly.py").read_text(encoding="utf-8"))
    allowed = _allowed(tree)
    assert sum(id(node) in allowed for _, node in _uses(tree)) == len(CALLERS)


def test_the_check_refuses_a_second_accumulation_path():
    source = ("from .poly import _add_product\n"
              "class Poly:\n    def __mul__(self, other):\n"
              "        _add_product(acc, a, b, 1, 0)\n"
              "class RationalFunction:\n    def sums_of_products(cls, groups, variables):\n"
              "        _add_product(acc, a, b, k, offset)\n"
              "    def nonzero_groups(groups, variables):\n"
              "        _add_product(acc, a, b, k, offset)\n"
              "def _accumulate(groups):\n    add = poly._add_product\n")
    assert _violations(ast.parse(source)) == [
        "_add_product at line 1", "_add_product at line 9", "_add_product at line 11"]
