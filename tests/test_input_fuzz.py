"""Fuzzing the input boundary: every call returns or raises BihamError, in time.

Coefficient text goes through ``parse_rational``, structure files (both
bracket tables, with any of the optional fields) through
``parse_structure_file``, pencil files through ``SkewPencil.from_json``
and catalog specs through ``resolve_target``; anything else escaping them
would reach the CLI as a traceback instead of exit code 2.  The per-example deadline is
generous: it catches hangs, not slow machines.
"""

import json
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from biham.cli import _names_file, parse_structure_file, resolve_target
from biham.errors import BihamError
from biham.exactalg import parse_rational
from biham.models import catalog_names
from biham.pencil import SkewPencil, decompose

VARIABLES = ("x", "y", "z")
TOKENS = ["x", "y", "z", "w", "x1", "0", "1", "2", "3", "10", "64", "65", "99999",
          "+", "-", "*", "/", "^", "(", ")", " ", "\n", ".", "3/4", "1e3", "x^2"]
DEADLINE = timedelta(seconds=5)

token_strings = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)
texts = st.one_of(token_strings, st.text(max_size=24))

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                         st.floats(allow_nan=False, allow_infinity=False),
                         token_strings)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8)


@st.composite
def structure_objects(draw):
    """Small structure files: mostly well-typed, often not, each optional field
    present or absent."""
    variables = draw(st.one_of(st.lists(st.sampled_from(["x", "y", "z", "v0", ""]),
                                        max_size=3),
                               json_values, st.text("xyz", max_size=3)))
    dim = draw(st.one_of(st.just(len(variables)) if isinstance(variables, list)
                         else json_values, st.integers(0, 3), json_values))
    index = st.one_of(st.integers(-1, 3), json_values)
    entry = st.one_of(st.fixed_dictionaries({"i": index, "j": index,
                                             "coeff": st.one_of(token_strings,
                                                                json_values)}),
                      json_values)
    table = st.one_of(st.lists(entry, max_size=3), json_values)
    expressions = st.one_of(st.lists(st.one_of(token_strings, json_scalars), max_size=3),
                            json_values)
    family = st.fixed_dictionaries({"coeffs": expressions},
                                   optional={"degree": st.one_of(st.integers(-1, 3),
                                                                 json_values),
                                             "name": st.one_of(token_strings, json_values)})
    chain = st.fixed_dictionaries({"anchored": st.one_of(st.booleans(), json_values),
                                   "functions": expressions})
    fields = st.fixed_dictionaries(
        {"brackets1": table, "brackets2": table},
        optional={"name": st.one_of(token_strings, json_values),
                  "families": st.one_of(st.lists(st.one_of(family, json_values), max_size=2),
                                        json_values),
                  "chains": st.one_of(st.lists(st.one_of(chain, json_values), max_size=2),
                                      json_values),
                  "genericity": expressions,
                  "expectations": json_values})
    return {"dim": dim, "vars": variables, **draw(fields)}


@given(texts)
@settings(max_examples=400, deadline=DEADLINE)
def test_parse_rational_returns_or_raises_biham_error(text):
    try:
        parse_rational(text, VARIABLES)
    except BihamError:
        pass


@given(st.one_of(structure_objects(), json_values, st.text(max_size=24)))
@settings(max_examples=300, deadline=DEADLINE)
def test_parse_structure_file_returns_or_raises_biham_error(data):
    # a document, the JSON string that holds it, and raw text that names no file
    forms = [json.dumps(data), json.dumps(json.dumps(data))]
    if isinstance(data, str) and not _names_file(data):
        forms.append(data)
    for form in forms:
        try:
            parse_structure_file(form)
        except BihamError:
            pass


# k stays small: open_toda:k=11, the largest accepted, takes 3 s to build
SPEC_NAMES = catalog_names() + ["toda", ""]
SPEC_KEYS = ["k", "mu", "alpha", "eta", "f", "order", "steps", "bogus"]
SPEC_VALUES = ["0", "1", "2", "3", "-1", "inf", "1/2", "x", "t", "t^2", "3*t - t^4",
               "x + y", "x + y + x*y", "x^2", "1;2;1", "0;1;0", "1;2", "", "=", "1/0"]


@st.composite
def catalog_specs(draw):
    """``name:key=value,...`` strings over real and bogus names and parameters."""
    items = draw(st.lists(st.tuples(st.sampled_from(SPEC_KEYS),
                                    st.one_of(st.none(), st.sampled_from(SPEC_VALUES))),
                          max_size=3))
    params = ",".join(key if value is None else f"{key}={value}" for key, value in items)
    return draw(st.sampled_from(SPEC_NAMES)) + (":" + params if items else "")


@given(catalog_specs())
@settings(max_examples=300, deadline=DEADLINE)
def test_resolve_target_returns_or_raises_biham_error(spec):
    try:
        resolve_target(spec)
    except BihamError:
        pass


ENTRIES = st.one_of(st.integers(-3, 3),
                    st.sampled_from(["0", "1", "-2", "+3", "1/2", "-3/4", "2/4", "1/0", "x"]),
                    json_scalars)


@st.composite
def pencil_objects(draw, max_n=4):
    """Small pencil-shaped objects: half of them skew pairs, the rest mostly not."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        # skew by construction: upper triangles of small rationals and their negatives
        pair = [[[0] * n for _ in range(n)] for _ in range(2)]
        for rows in pair:
            for i in range(n):
                for j in range(i + 1, n):
                    v = draw(st.fractions(-3, 3, max_denominator=4))
                    rows[i][j], rows[j][i] = str(v), str(-v)
        return {"n": n, "A": pair[0], "B": pair[1]}
    matrices = st.one_of(st.lists(st.lists(ENTRIES, max_size=max_n), max_size=max_n),
                         json_values)
    return {"n": draw(st.one_of(st.just(n), st.integers(-1, max_n + 1), json_values)),
            "A": draw(matrices), "B": draw(matrices)}


@given(st.one_of(pencil_objects(), json_values, st.text(max_size=24)))
@settings(max_examples=300, deadline=DEADLINE)
def test_pencil_from_json_returns_or_raises_biham_error(data):
    # the loader holds the one skewness check: what it returns is an integer
    # skew pair that decompose either classifies or refuses with a BihamError
    forms = [data] if isinstance(data, str) else [data, json.dumps(data)]
    for form in forms:
        try:
            pencil = SkewPencil.from_json(form)
        except BihamError:
            continue
        assert all(type(x) is int for x in pencil.A.entries + pencil.B.entries)
        assert pencil.A.is_skew() and pencil.B.is_skew()
        try:
            decompose(pencil)
        except BihamError:
            pass
