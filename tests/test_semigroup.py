"""Cayley-table validation, the natural order, the embedding, table parsing."""

import pytest

from eqdom.catalog import CATALOG_NAMES, by_name
from eqdom.partialmap import compose, inverse as pinv
from eqdom.semigroup import (
    EmbeddingError,
    NonAssociativeError,
    NotInverseError,
    SemigroupError,
    TableFormatError,
    find_incomparable_pair,
    hasse_dot,
    is_chain,
    is_group,
    load_semigroup,
    natural_order,
    parse_cayley_table,
    validate,
    wagner_preston,
)

CHAIN2_TEXT = """\
# the two-element chain, e on top
elements e f

row f: f f     # bottom absorbs
row e: e f
"""


def test_validate_accepts_whole_catalog():
    for name in CATALOG_NAMES:
        sg = by_name(name)
        assert sg.order >= 1
        assert sg.label == name


def test_subtraction_mod_3_is_not_associative():
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NonAssociativeError) as exc:
        validate(("a", "b", "c"), table)
    i, j, k = exc.value.triple
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_left_zero_semigroup_has_two_inverse_candidates():
    # x * y = x is associative but every element is an inverse candidate
    table = [[0, 0], [1, 1]]
    with pytest.raises(NotInverseError) as exc:
        validate(("a", "b"), table)
    assert exc.value.candidates == (0, 1)


def test_names_must_be_distinct_and_tokenizable():
    ok = [[0]]
    with pytest.raises(SemigroupError):
        validate(("a", "a"), [[0, 1], [1, 0]])
    with pytest.raises(SemigroupError):
        validate((), [])
    # a name must be one identifier of the term syntax, [A-Za-z0-9_]+, or
    # no equation could use it as a constant
    for bad in (
        "a,b", "-", "x=y", "has space", "par(en", "", 'a"b', "c\\",
        "a.b", "a*b", "f^2", "é",
    ):
        with pytest.raises(SemigroupError, match="not usable as a token"):
            validate((bad,), ok)
    validate(("a_1",), ok)


def test_table_shape_and_range_checked():
    with pytest.raises(SemigroupError):
        validate(("a", "b"), [[0, 1]])
    with pytest.raises(SemigroupError):
        validate(("a", "b"), [[0, 2], [1, 0]])
    with pytest.raises(SemigroupError):
        validate(("a",), [["a"]])


def test_derived_structure_on_catalog():
    chain2 = by_name("chain2")
    assert sorted(chain2.idempotents) == [0, 1]
    assert chain2.zero == 1 and chain2.identity == 0
    z2 = by_name("z2")
    assert z2.zero is None and z2.identity == 0
    assert z2.inv == (0, 1)
    z2z = by_name("z2_zero")
    assert z2z.zero == 2 and z2z.identity == 0
    brandt = by_name("brandt_b2")
    assert brandt.zero == 4 and brandt.identity is None
    assert sorted(brandt.idempotents) == [0, 3, 4]


def test_group_flag():
    for name in ("trivial", "z2", "z3", "z5"):
        assert is_group(by_name(name))
    for name in ("chain2", "chain3", "z2_zero", "brandt_b2", "sim2", "sim3"):
        assert not is_group(by_name(name))


def test_natural_order_on_chain2():
    order = natural_order(by_name("chain2"))
    assert order.leq(1, 0) and not order.leq(0, 1)
    assert is_chain(by_name("chain2"))
    assert order.minimal() == (1,)
    assert order.maximal() == (0,)
    assert order.covering_pairs() == ((1, 0),)


def test_natural_order_on_brandt():
    sg = by_name("brandt_b2")
    order = natural_order(sg)
    assert order.elements == (0, 3, 4)
    assert order.leq(4, 0) and order.leq(4, 3)
    assert not order.leq(0, 3) and not order.leq(3, 0)
    assert not is_chain(sg)
    assert order.covering_pairs() == ((4, 0), (4, 3))


def test_incomparable_pair_lookup():
    assert find_incomparable_pair(by_name("chain3")) is None
    assert is_chain(by_name("chain3"))
    assert find_incomparable_pair(by_name("brandt_b2")) == (0, 3)
    # sim2 names: 12 1_ 21 2_ _1 _2 __ ; the restrictions of the identity
    # to {1} and to {2} are the least incomparable pair
    sim2 = by_name("sim2")
    pair = find_incomparable_pair(sim2)
    assert pair == (1, 5)
    assert (sim2.names[pair[0]], sim2.names[pair[1]]) == ("1_", "_2")


def test_wagner_preston_on_chain2():
    sg = by_name("chain2")
    theta = wagner_preston(sg)
    # e acts as the full identity, f as the identity restricted to {f}
    assert theta[0].images == (0, 1)
    assert theta[1].images == (None, 1)


def test_wagner_preston_is_faithful_on_catalog():
    for name in CATALOG_NAMES:
        sg = by_name(name)
        theta = wagner_preston(sg)
        assert len(theta) == sg.order
        assert len(set(theta)) == sg.order
        # spot-check multiplicativity and inversion; the full sweep is in
        # the acceptance suite
        for s in range(sg.order):
            assert compose(theta[s], theta[sg.inv[s]]) == theta[sg.table[s][sg.inv[s]]]
            assert pinv(theta[s]) == theta[sg.inv[s]]


def test_hasse_dot_chain3():
    assert hasse_dot(by_name("chain3")) == (
        "digraph idempotent_order {\n"
        "  rankdir=BT;\n"
        '  "e";\n'
        '  "f";\n'
        '  "g";\n'
        '  "f" -> "e";\n'
        '  "g" -> "f";\n'
        "}\n"
    )


def test_parse_table_roundtrip():
    names, table = parse_cayley_table(CHAIN2_TEXT)
    assert names == ("e", "f")
    assert table == [[0, 1], [1, 1]]
    sg = validate(names, table, "chain2")
    assert sg.table == by_name("chain2").table


def test_parse_table_errors_carry_line_numbers():
    with pytest.raises(TableFormatError, match="line 1"):
        parse_cayley_table("rows first\n")
    with pytest.raises(TableFormatError, match="line 2"):
        parse_cayley_table("elements e f\nrow e e f\n")
    with pytest.raises(TableFormatError, match="line 2.*unknown row"):
        parse_cayley_table("elements e f\nrow g: e f\n")
    with pytest.raises(TableFormatError, match="line 3.*duplicate row"):
        parse_cayley_table("elements e f\nrow e: e f\nrow e: e f\n")
    with pytest.raises(TableFormatError, match="expected 2 entries"):
        parse_cayley_table("elements e f\nrow e: e\n")
    with pytest.raises(TableFormatError, match="unknown element 'g'"):
        parse_cayley_table("elements e f\nrow e: e g\n")
    with pytest.raises(TableFormatError, match="duplicate element"):
        parse_cayley_table("elements e e\n")
    with pytest.raises(TableFormatError, match="no 'elements' line"):
        parse_cayley_table("# nothing here\n")
    with pytest.raises(TableFormatError, match="missing row"):
        parse_cayley_table("elements e f\nrow e: e f\n")


def test_load_semigroup_defaults_label_to_basename(tmp_path):
    path = tmp_path / "two_chain.tbl"
    path.write_text(CHAIN2_TEXT, encoding="utf-8")
    sg = load_semigroup(str(path))
    assert sg.label == "two_chain.tbl"
    assert sg.table == by_name("chain2").table


def test_index_rejects_unknown_names():
    with pytest.raises(SemigroupError, match="unknown element"):
        by_name("chain2").index("g")
