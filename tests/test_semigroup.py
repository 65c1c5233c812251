"""Cayley-table validation, the natural order, the embedding, table parsing."""

import itertools

import pytest

from eqdom.catalog import (
    CATALOG_NAMES,
    by_name,
    chain_semilattice,
    cyclic_group,
    group_with_zero,
    symmetric_inverse_monoid,
)
from eqdom.partialmap import GroundSet, PartialInjection, compose, inverse as pinv
from eqdom.semigroup import (
    NonAssociativeError,
    NotInverseError,
    SemigroupError,
    TableFormatError,
    hasse_dot,
    incomparable_pairs,
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
    assert repr(by_name("chain2")) == "<FiniteInverseSemigroup chain2 order=2>"
    assert repr(validate(("a",), [[0]])) == "<FiniteInverseSemigroup anonymous order=1>"
    with pytest.raises(ValueError, match="known: trivial chain2 chain3 .* sim3"):
        by_name("nosuch")
    for factory, size in (
        (chain_semilattice, 0), (cyclic_group, 101), (group_with_zero, 0),
        (symmetric_inverse_monoid, 5),
    ):
        with pytest.raises(ValueError, match="between 1 and"):
            factory(size)


def test_symmetric_inverse_monoid_matches_the_object_construction():
    # the reference: every PartialInjection on n points, defined images
    # sorted before undefined ones, multiplied with partialmap.compose
    for n, order in ((1, 2), (2, 7), (3, 34), (4, 209)):
        ground = GroundSet(tuple(str(i + 1) for i in range(n)))
        maps = []
        for images in itertools.product((*range(n), None), repeat=n):
            try:
                maps.append(PartialInjection(ground, images))
            except ValueError:  # not injective
                pass
        maps.sort(key=lambda f: [n if j is None else j for j in f.images])
        index = {f: k for k, f in enumerate(maps)}
        names = tuple(
            "".join("_" if j is None else ground.labels[j] for j in f.images)
            for f in maps
        )
        table = tuple(tuple(index[compose(f, g)] for g in maps) for f in maps)
        sg = symmetric_inverse_monoid(n)
        assert sg.order == len(maps) == order
        assert sg.names == names
        assert sg.table == table
        assert sg.names[0] == "".join(ground.labels)  # the identity
        assert sg.names[-1] == "_" * n  # the empty map


def test_subtraction_mod_3_is_not_associative():
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NonAssociativeError) as exc:
        validate(("a", "b", "c"), table)
    i, j, k = exc.value.triple
    assert table[table[i][j]][k] != table[i][table[j][k]]


def _has_derived_laws(sg):
    """The laws of an inverse semigroup that validate() leaves to the
    theorem, checked against sg's own inv and idempotents."""
    mul, inv, idem, r = sg.table, sg.inv, sg.idempotents, range(sg.order)
    return (
        all(mul[e][f] == mul[f][e] for e in idem for f in idem)
        and all(mul[s][inv[s]] in idem for s in r)
        and all(mul[mul[s][e]][inv[s]] in idem for s in r for e in idem)
        and all(inv[mul[s][t]] == mul[inv[t]][inv[s]] for s in r for t in r)
        and (len(idem) != 1 or all(
            mul[e][s] == mul[s][e] == s and mul[s][inv[s]] == mul[inv[s]][s] == e
            for e in idem for s in r
        ))
    )


def test_associativity_check_is_exact_on_every_small_table():
    # every table of order 1, 2 and 3: 19,700 tables, 122 associative; each
    # accepted table has the derived laws, each rejected one is either not
    # associative or has an element without exactly one inverse
    associative = 0
    for n in (1, 2, 3):
        names = ("a", "b", "c")[:n]
        for cells in itertools.product(range(n), repeat=n * n):
            table = [cells[i * n:(i + 1) * n] for i in range(n)]
            cubic = all(
                table[table[i][j]][k] == table[i][table[j][k]]
                for i in range(n) for j in range(n) for k in range(n)
            )
            try:
                sg = validate(names, table)
            except NonAssociativeError as exc:
                assert not cubic, table
                i, j, k = exc.triple
                assert table[table[i][j]][k] != table[i][table[j][k]], table
                continue
            except NotInverseError as exc:
                s = exc.element
                assert exc.candidates == tuple(
                    t for t in range(n)
                    if table[table[s][t]][s] == s and table[table[t][s]][t] == t
                ), table
                assert len(exc.candidates) != 1, table
            else:
                assert _has_derived_laws(sg), table
            assert cubic, table
            associative += 1
    assert associative == 122


def _generated(sg, gens):
    """The subsemigroup generated by gens, by closing under products."""
    found = set(gens)
    while True:
        more = {sg.table[a][b] for a in found for b in found} - found
        if not more:
            return found
        found |= more


def test_generating_set_is_irredundant():
    sizes = {
        "trivial": 1, "z2": 1, "z3": 1, "z5": 1,
        "chain2": 2, "z2_zero": 2, "brandt_b2": 2, "sim2": 2,
        "chain3": 3, "sim3": 3,
    }
    assert set(sizes) == set(CATALOG_NAMES)
    semigroups = [by_name(name) for name in CATALOG_NAMES]
    for sg in semigroups + [symmetric_inverse_monoid(4)]:
        gens = sg.generating_set
        assert _generated(sg, gens) == set(range(sg.order)), sg
        for g in gens:
            assert len(_generated(sg, set(gens) - {g})) < sg.order, (sg, g)
    assert {sg.label: len(sg.generating_set) for sg in semigroups} == sizes


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
    assert incomparable_pairs(by_name("chain3")) == ()
    assert is_chain(by_name("chain3"))
    assert incomparable_pairs(by_name("brandt_b2")) == ((0, 3), (3, 0))
    # sim2 names: 12 1_ 21 2_ _1 _2 __ ; the restrictions of the identity
    # to {1} and to {2} are the least incomparable pair
    sim2 = by_name("sim2")
    pair = incomparable_pairs(sim2)[0]
    assert pair == (1, 5)
    assert (sim2.names[pair[0]], sim2.names[pair[1]]) == ("1_", "_2")


def test_wagner_preston_on_chain2():
    sg = by_name("chain2")
    theta = wagner_preston(sg)
    # e acts as the full identity, f as the identity restricted to {f}
    assert theta[0].images == (0, 1)
    assert theta[1].images == (None, 1)


def test_wagner_preston_is_faithful_on_sim4():
    # validate() is the only check at run time, so the embedding laws are
    # checked here: on an associative table, theta_u theta_g = theta_(ug)
    # for every generator g gives theta_u theta_t = theta_(ut) for every t
    sg = symmetric_inverse_monoid(4)
    theta = wagner_preston(sg)
    assert len(set(theta)) == sg.order == 209
    for u in range(sg.order):
        assert pinv(theta[u]) == theta[sg.inv[u]]
        for g in sg.generating_set:
            assert compose(theta[u], theta[g]) == theta[sg.table[u][g]]


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
