"""Partial injections: composition order, inverses, counting, rendering."""

import itertools

import pytest

from eqdom.catalog import symmetric_inverse_monoid
from eqdom.partialmap import (
    GroundMismatchError,
    GroundSet,
    PartialInjection,
    compose,
    domain_of,
    inverse,
    render,
)

G2 = GroundSet(("1", "2"))
G3 = GroundSet(("1", "2", "3"))
# the seven partial injections on two points
ALL2 = tuple(
    PartialInjection(G2, images)
    for images in ((0, 1), (0, None), (1, 0), (1, None), (None, 0), (None, 1), (None, None))
)
EMPTY2 = PartialInjection(G2, (None, None))
IDENTITY2 = PartialInjection(G2, (0, 1))
SWAP2 = PartialInjection(G2, (1, 0))


def test_compose_is_left_factor_first():
    # {1->2} then {2->1} brings 1 back to 1
    f = PartialInjection(G2, (1, None))
    g = PartialInjection(G2, (None, 0))
    assert compose(f, g) == PartialInjection(G2, (0, None))
    # the other order composes to the identity on point 2
    assert compose(g, f) == PartialInjection(G2, (None, 1))


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


def _injective_images(ground):
    """The image tuples on ground that PartialInjection accepts."""
    n = len(ground.labels)
    found = []
    for images in itertools.product((*range(n), None), repeat=n):
        try:
            found.append(PartialInjection(ground, images).images)
        except ValueError:  # not injective
            pass
    return found


def test_counts_on_two_and_three_points():
    assert len(ALL2) == len(set(ALL2)) == 7
    assert {f.images for f in ALL2} == set(_injective_images(G2))
    assert len(_injective_images(G3)) == 34
    # the catalog's symmetric inverse monoids have exactly these elements
    assert symmetric_inverse_monoid(2).order == 7
    assert symmetric_inverse_monoid(3).order == 34


def test_enumeration_order_is_stable():
    assert ALL2[0] == IDENTITY2
    assert ALL2[-1] == EMPTY2
    # the catalog lists I_2 in the same order, identity first, empty map last
    assert symmetric_inverse_monoid(2).names == tuple(
        "".join("_" if j is None else G2.labels[j] for j in f.images) for f in ALL2
    )


def test_injectivity_is_enforced():
    with pytest.raises(ValueError):
        PartialInjection(G2, (0, 0))


def test_image_index_range_checked():
    with pytest.raises(ValueError):
        PartialInjection(G2, (2, None))


def test_slot_count_checked():
    with pytest.raises(ValueError):
        PartialInjection(G2, (0, 1, None))


def test_ground_sets_must_match():
    with pytest.raises(GroundMismatchError):
        compose(EMPTY2, PartialInjection(G3, (None, None, None)))


def test_ground_labels_must_be_distinct():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(())


def test_domain_and_image():
    f = PartialInjection(G3, (2, 0, None))
    assert domain_of(f) == frozenset({0, 1})
    # the image of f is the domain of its inverse
    assert domain_of(inverse(f)) == frozenset({2, 0})


def test_idempotents_are_exactly_partial_identities():
    idems = [f for f in ALL2 if compose(f, f) == f]
    assert len(idems) == 4
    for f in idems:
        assert f.images == tuple(i if i in domain_of(f) else None for i in range(2))
    assert compose(SWAP2, SWAP2) != SWAP2


def test_render():
    assert render(PartialInjection(G2, (1, None))) == "2 -"
    assert render(EMPTY2) == "- -"
    assert render(PartialInjection(G3, (0, 1, 2))) == "1 2 3"
    assert str(PartialInjection(G2, (1, None))) == "2 -"
