"""Term parsing, flattening, evaluation, and the clone of term functions."""

import hashlib
import random

import pytest

from helpers import cyclic_with_zero, random_term
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
    _multipliers,
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
            # the rendered term parses back to a term with the same flattening
            assert flatten(sg, parse(term_text(sg, term), 2, sg)) == flat
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
    term = Product(Product(Product(Const(0), Inverse(Var(1))), Const(1)), Var(0))
    assert term_text(C2, term) == "e x2^-1 f x1"
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


def _multiplier_semigroup(order):
    names = {1: "trivial", 2: "z2", 3: "chain3", 34: "sim3"}
    return by_name(names[order]) if order in names else cyclic_with_zero(order - 1)


def _check_products(sg, length, literals, encode, right, flats, times, rng):
    # a seeded vector times each constant and each literal column, read
    # back through codes mod |S|, is the product of the elements
    column = [rng.randrange(sg.order) for _ in range(length)]
    by_constants, by_literals = times(encode(column), right, flats)
    for c, product in enumerate(by_constants):
        assert [x % sg.order for x in product] == [sg.table[a][c] for a in column]
    for g, product in zip(literals, by_literals):
        assert [x % sg.order for x in product] == [sg.table[a][b] for a, b in zip(column, g)]


@pytest.mark.parametrize("order", [1, 2, 3, 14, 34, 85, 128, 256])
def test_single_chunk_literal_tables_follow_the_elementwise_rule(order):
    # a vector of k = 256 // |S| coordinates or fewer is one chunk: the
    # table of a literal column c holds the code i |S| + a c_i at i |S| + a,
    # padded with zeros to 256 bytes
    sg = _multiplier_semigroup(order)
    rng = random.Random(f"multipliers/{order}")
    for length in range(1, 256 // order + 1):
        literals = [[rng.randrange(order) for _ in range(length)] for _ in range(3)]
        encode, right, flats, times = _multipliers(sg, literals, length)
        assert right is sg._right_codes
        for column, flat in zip(literals, flats):
            assert flat == bytes(
                i * order + sg.table[a][c] for i, c in enumerate(column) for a in range(order)
            ) + bytes(256 - order * length)
        _check_products(sg, length, literals, encode, right, flats, times, rng)


@pytest.mark.parametrize("order, lengths", [
    (1, [257, 300]), (2, [129, 300]), (3, [86, 170]), (14, [19, 40]), (34, [8, 17]),
    (85, [4, 7]), (128, [3, 5]), (256, [2, 3]), (257, [1, 2, 3]),
])
def test_gathered_literal_operands_are_the_shifted_columns(order, lengths):
    # past one chunk, and past 256 elements, a literal column c is the
    # tuple holding the code (i mod k) |S| + a c_i at i |S| + a, k = 1 past 256
    sg = _multiplier_semigroup(order)
    chunk = max(256 // order, 1)
    rng = random.Random(f"gathered/{order}")
    for length in lengths:
        literals = [[rng.randrange(order) for _ in range(length)] for _ in range(3)]
        encode, right, flats, times = _multipliers(sg, literals, length)
        assert encode is tuple if order > 256 else right is sg._right_codes
        for column, flat in zip(literals, flats):
            assert flat == tuple(
                i % chunk * order + sg.table[a][c]
                for i, c in enumerate(column) for a in range(order)
            )
        _check_products(sg, length, literals, encode, right, flats, times, rng)
