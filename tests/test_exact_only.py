"""The package is exact-only: no module imports floating-point maths or calls float.

math's integer functions (gcd, lcm, isqrt, factorial, comb) are exact and
may be imported by name; ``import math`` itself, any other name from
math, and cmath and numpy in any form are refused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "biham"
EXACT_MATH = {"gcd", "lcm", "isqrt", "factorial", "comb"}
FLOAT_MODULES = {"math", "cmath", "numpy"}


def _violations(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in FLOAT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = node.module.split(".")[0]
            if root in FLOAT_MODULES:
                found += [f"from {node.module} import {alias.name}" for alias in node.names
                          if root != "math" or alias.name not in EXACT_MATH]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float(...) at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_is_exact_only(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_refuses_floating_point():
    source = ("import math\nimport numpy as np\nfrom cmath import sqrt\n"
              "from math import gcd, sqrt\nx = float(1)\n")
    assert _violations(ast.parse(source)) == [
        "import math", "import numpy", "from cmath import sqrt", "from math import sqrt",
        "float(...) at line 5"]
