"""Term parsing, flattening, evaluation, and the clone of term functions."""

import hashlib
import random

import pytest

from helpers import random_term
from eqdom.catalog import CATALOG_NAMES, by_name
from eqdom.terms import (
    Const,
    Inverse,
    ParseError,
    Product,
    Var,
    all_points,
    clone_closure,
    evaluate,
    flatten,
    parse,
    term_text,
    variables_of,
)
from eqdom.semigroup import validate

C2 = by_name("chain2")
SIM2 = by_name("sim2")

# a cyclic group of order 3 whose element names exercise multi-char tokens
Z3S = validate(
    ("i", "s1", "s2"),
    [[(a + b) % 3 for b in range(3)] for a in range(3)],
    "z3s",
)


def test_parse_products():
    assert parse("x1 x2", 2, C2) == Product(Var(0), Var(1))
    assert parse("x1*x2", 2, C2) == Product(Var(0), Var(1))
    assert parse("e x1 f", 1, C2) == Product(Product(Const(0), Var(0)), Const(1))
    assert parse("(x1 x2) e", 2, C2) == Product(Product(Var(0), Var(1)), Const(0))
    assert parse("x1 (x2 e)", 2, C2) == Product(Var(0), Product(Var(1), Const(0)))


def test_parse_exponents():
    v = Var(0)
    assert parse("x1^3", 1, C2) == Product(Product(v, v), v)
    assert parse("x1^1", 1, C2) == v
    assert parse("x1^-1", 1, C2) == Inverse(v)
    assert parse("x1^-2", 1, C2) == Product(Inverse(v), Inverse(v))
    assert parse("e^-1", 1, C2) == Inverse(Const(0))
    assert parse("(x1 e)^2", 1, C2) == Product(
        Product(v, Const(0)), Product(v, Const(0))
    )


def test_parse_errors():
    cases = [
        "",
        "x0",
        "x3",
        "nosuch",
        "x1 * * x2",
        "* x1",
        "x1 *",
        "(x1",
        "x1)",
        "x1 ^",
        "x1^0",
        "x1 @",
        "()",
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse(text, 2, C2)
    with pytest.raises(ParseError, match="unexpected token '\\^'"):
        parse("^2 x1", 1, C2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 nosuch", 2, C2)
    assert exc.value.position == 3


def test_element_named_like_a_variable_is_shadowed():
    odd = validate(("x1",), [[0]], "odd")
    assert parse("x1", 1, odd) == Var(0)


def test_flatten_pushes_inversion_to_literals():
    term = parse("((s1 x1)^-1 x2 s2)^-1", 2, Z3S)
    flat = flatten(Z3S, term)
    # (s2)^-1 = s1 in the cyclic group of order 3
    assert flat == (1, (1, -1), 1, (0, +1))


def test_flatten_fuses_adjacent_constants():
    flat = flatten(C2, parse("e f x1 e e", 1, C2))
    assert flat == (1, (0, +1), 0)
    flat = flatten(C2, parse("(x1 f)^-1", 1, C2))
    assert flat == (1, (0, -1))


def test_flat_term_validation():
    # a flat term's shape is checked on flatten's results, in
    # test_flatten_is_a_normal_form; every walk rejects a non-term
    for walk in (lambda t: flatten(C2, t), variables_of, lambda t: evaluate(C2, t, (0,))):
        with pytest.raises(TypeError, match="not a term"):
            walk("x1")


def test_flatten_is_a_normal_form():
    rng = random.Random("flatten-embed")
    for sg in (C2, SIM2, Z3S):
        for _ in range(60):
            term = random_term(rng, 2, sg.order)
            flat = flatten(sg, term)
            # a nonempty tuple of constants in range, never two adjacent,
            # and variable literals (i, +1 or -1) with i below the arity
            assert isinstance(flat, tuple) and flat
            for lit in flat:
                if isinstance(lit, tuple):
                    index, sign = lit
                    assert 0 <= index < 2 and sign in (+1, -1)
                else:
                    assert 0 <= lit < sg.order
            for a, b in zip(flat, flat[1:]):
                assert isinstance(a, tuple) or isinstance(b, tuple)
            # the rendered flat term parses back to a term with the same flattening
            assert flatten(sg, parse(term_text(sg, flat), 2, sg)) == flat
            assert variables_of(flat) == variables_of(term)


def test_evaluate_flat_matches_ast():
    rng = random.Random("eval-agreement")
    for sg in (C2, SIM2):
        points = list(all_points(sg.order, 2))
        for _ in range(40):
            term = random_term(rng, 2, sg.order)
            flat = flatten(sg, term)
            for p in points:
                assert evaluate(sg, flat, p) == evaluate(sg, term, p)


def test_evaluate_checks_arity():
    message = "term uses x2 but the point has arity 1"
    with pytest.raises(ValueError, match="x2") as ast:
        evaluate(C2, parse("x1 x2", 2, C2), (0,))
    with pytest.raises(ValueError, match="x2") as flat:
        evaluate(C2, flatten(C2, parse("x1 x2", 2, C2)), (0,))
    assert str(ast.value) == str(flat.value) == message


def test_evaluate_checks_the_range_first():
    # the range is checked before the arity, on a Term and a flat term alike
    for term in (parse("x1 x2", 2, C2), flatten(C2, parse("x1 x2", 2, C2))):
        for point in ((2,), (0, -1)):
            with pytest.raises(ValueError) as exc:
                evaluate(C2, term, point)
            assert str(exc.value) == f"point {point} has a coordinate outside 0..1"


def test_term_text_rendering():
    assert term_text(C2, (0, (1, -1), 1, (0, +1))) == "e x2^-1 f x1"
    assert term_text(C2, parse("x1 (f x2)^-1", 2, C2)) == "x1 x2^-1 f"


def test_all_points_order():
    pts = list(all_points(2, 2))
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_unary_clone_of_the_two_chain():
    result = clone_closure(C2, 1)
    assert result.complete
    assert result.tables == {(0, 1), (0, 0), (1, 1)}


def test_clone_sizes_are_stable():
    expected = {
        ("chain2", 2): 5,
        ("chain3", 2): 9,
        ("z2", 2): 8,
        ("z2_zero", 2): 19,
        ("brandt_b2", 1): 62,
        ("brandt_b2", 2): 1260,
        ("sim2", 1): 211,
    }
    for (name, arity), size in expected.items():
        result = clone_closure(by_name(name), arity)
        assert result.complete, (name, arity)
        assert len(result.functions) == size, (name, arity)


def test_clone_is_closed_under_product_and_inversion():
    for name, arity in (("chain2", 2), ("z2", 2), ("brandt_b2", 1)):
        sg = by_name(name)
        result = clone_closure(sg, arity)
        tables = result.tables
        points = list(all_points(sg.order, arity))
        # projections and constants are present
        for i in range(arity):
            assert tuple(p[i] for p in points) in tables
        for c in range(sg.order):
            assert (c,) * len(points) in tables
        for f in result.functions:
            assert tuple(sg.inv[v] for v in f) in tables
            for g in result.functions:
                prod = tuple(sg.table[a][b] for a, b in zip(f, g))
                assert prod in tables


def test_clone_truncation_is_flagged():
    result = clone_closure(C2, 1, max_cells=4)
    assert not result.complete
    assert len(result.functions) == 2


def test_clone_tables_and_order_are_pinned():
    # 60 orbits, 18 of them truncated: the tables, their orbit order and the
    # truncated prefix
    digest = hashlib.sha256()
    for name in CATALOG_NAMES:
        sg = by_name(name)
        for arity in (1, 2):
            for max_cells in (50, 5_000, 200_000):
                r = clone_closure(sg, arity, max_cells=max_cells)
                digest.update(repr((name, arity, max_cells, r.functions, r.complete)).encode())
    assert digest.hexdigest() == "e5bdce4e12ac259e35790bb67e8d7664f9b6d6f3bf5ded12e7bf71f7eb91a6ff"


def test_clone_rejects_bad_arity():
    with pytest.raises(ValueError):
        clone_closure(C2, 0)
