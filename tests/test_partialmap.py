"""Partial injections as image tuples: composition order, inverses,
counting, rendering."""

from helpers import partial_injections
from eqdom.catalog import symmetric_inverse_monoid
from eqdom.partialmap import compose, domain_of, inverse, render

# the seven partial injections on two points
ALL2 = ((0, 1), (0, None), (1, 0), (1, None), (None, 0), (None, 1), (None, None))
EMPTY2 = (None, None)
IDENTITY2 = (0, 1)
SWAP2 = (1, 0)


def test_compose_is_left_factor_first():
    # {1->2} then {2->1} brings 1 back to 1
    f = (1, None)
    g = (None, 0)
    assert compose(f, g) == (0, None)
    # the other order composes to the identity on point 2
    assert compose(g, f) == (None, 1)


def test_compose_with_empty_and_identity():
    for g in ALL2:
        assert compose(EMPTY2, g) == EMPTY2
        assert compose(g, EMPTY2) == EMPTY2
        assert compose(IDENTITY2, g) == g
        assert compose(g, IDENTITY2) == g


def test_compose_associative_on_all_maps():
    for f in ALL2:
        for g in ALL2:
            fg = compose(f, g)
            for h in ALL2:
                assert compose(fg, h) == compose(f, compose(g, h))


def test_inverse_laws_and_uniqueness():
    for f in ALL2:
        g = inverse(f)
        assert compose(compose(f, g), f) == f
        assert compose(compose(g, f), g) == g
        others = [
            t for t in ALL2
            if compose(compose(f, t), f) == f and compose(compose(t, f), t) == t
        ]
        assert others == [g]


def test_counts_on_two_and_three_points():
    assert len(ALL2) == len(set(ALL2)) == 7
    assert set(ALL2) == partial_injections(2)
    assert len(partial_injections(3)) == 34
    # the catalog's symmetric inverse monoids have exactly these elements
    assert symmetric_inverse_monoid(2).order == 7
    assert symmetric_inverse_monoid(3).order == 34


def test_enumeration_order_is_stable():
    assert ALL2[0] == IDENTITY2
    assert ALL2[-1] == EMPTY2
    # the catalog lists I_2 in the same order, identity first, empty map last
    assert symmetric_inverse_monoid(2).names == tuple(
        "".join("_" if j is None else str(j + 1) for j in f) for f in ALL2
    )


def test_domain_and_image():
    f = (2, 0, None)
    assert domain_of(f) == frozenset({0, 1})
    # the image of f is the domain of its inverse
    assert domain_of(inverse(f)) == frozenset({2, 0})


def test_idempotents_are_exactly_partial_identities():
    idems = [f for f in ALL2 if compose(f, f) == f]
    assert len(idems) == 4
    for f in idems:
        assert f == tuple(i if i in domain_of(f) else None for i in range(2))
    assert compose(SWAP2, SWAP2) != SWAP2


def test_render():
    assert render((1, None), ("1", "2")) == "2 -"
    assert render(EMPTY2, ("1", "2")) == "- -"
    assert render((0, 1, 2), ("1", "2", "3")) == "1 2 3"
    # the labels are looked up by image index, not by slot
    assert render((2, None, 0), ("a", "b", "c")) == "c - a"
