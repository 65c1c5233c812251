"""Property tests: the verdict on random finite inverse semigroups.

By Wagner-Preston every finite inverse semigroup is an inverse subsemigroup
of some symmetric inverse monoid I_n.  The draws close random partial
injections under composition and inversion, so they sample the inverse
subsemigroups of I_n for n <= 3.  On so few points nearly every non-group
drawn has a zero, so half the draws are taken times Z2, which has none: a
group times a non-group is a zero-free non-group, and its computed witness
certificate stands alone.
"""

import random

from hypothesis import given, settings, strategies as st

from helpers import check_wagner_preston_maps, direct_product, plain_orbit, random_term
from eqdom.catalog import by_name
from eqdom.geometry import (
    Equation,
    EquationSystem,
    PointSet,
    closure,
    ed_verdict,
    in_subpower_closure,
    solution_set,
    validate_verdict,
)
from eqdom.partialmap import compose, inverse
from eqdom.semigroup import validate, wagner_preston
from eqdom.terms import _evaluate_ast, all_points

WITNESS_KINDS = ("IncomparableWitness", "ChainWitness")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


def _closed(gens):
    """The inverse subsemigroup generated by gens, in the order a worklist
    of right products reaches it (gens closed under inverse, so every
    element is such a product)."""
    gens = list(dict.fromkeys([*gens, *map(inverse, gens)]))
    reached = list(gens)
    seen = set(reached)
    for a in reached:  # reached grows while iterated: the worklist
        for g in gens:
            product = compose(a, g)
            if product not in seen:
                seen.add(product)
                reached.append(product)
    return reached


@st.composite
def inverse_semigroups(draw):
    n = draw(st.integers(1, 3))
    injection = st.builds(
        lambda perm, keep: tuple(j if k else None for j, k in zip(perm, keep)),
        st.permutations(range(n)),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
    maps = _closed(draw(st.lists(injection, min_size=1, max_size=3)))
    index = {m: k for k, m in enumerate(maps)}
    sg = validate(
        ["".join("_" if j is None else str(j + 1) for j in m) for m in maps],
        [[index[compose(a, b)] for b in maps] for a in maps],
        "random",
    )
    return direct_product(by_name("z2"), sg) if draw(st.booleans()) else sg


def _is_group(sg):
    # an identity and a two-sided inverse of each element, read off the table
    e, table = sg.identity, sg.table
    return e is not None and all(
        any(table[s][t] == e == table[t][s] for t in range(sg.order))
        for s in range(sg.order)
    )


def _relabelled(sg, perm):
    """The same semigroup with element s renamed to index perm[s]."""
    names = [""] * sg.order
    table = [[0] * sg.order for _ in range(sg.order)]
    for s in range(sg.order):
        names[perm[s]] = sg.names[s]
        for t in range(sg.order):
            table[perm[s]][perm[t]] = perm[sg.table[s][t]]
    return validate(names, table, sg.label)


@SETTINGS
@given(inverse_semigroups())
def test_every_non_group_gets_an_exact_witness(sg):
    v = ed_verdict(sg)
    assert (v.status == "GroupOutOfScope") == _is_group(sg)
    validate_verdict(sg, v)
    if v.status == "GroupOutOfScope":
        return
    assert v.status == "NotED" and v.certified and v.truncated == ()
    kinds = [c.kind for c in v.certificates]
    assert ("ZeroPresent" in kinds) == (sg.zero is not None)
    (witness,) = [c for c in v.certificates if c.kind in WITNESS_KINDS]
    assert witness.exact is True and witness.witness is not None


@SETTINGS
@given(st.data())
def test_verdict_does_not_depend_on_the_labels(data):
    sg = data.draw(inverse_semigroups())
    perm = data.draw(st.permutations(range(sg.order)))
    v, moved = ed_verdict(sg), ed_verdict(_relabelled(sg, perm))
    assert moved.status == v.status
    assert [c.kind for c in moved.certificates] == [c.kind for c in v.certificates]


@SETTINGS
@given(inverse_semigroups())
def test_wagner_preston_is_faithful(sg):
    theta = wagner_preston(sg)
    check_wagner_preston_maps(sg, theta)
    assert len(set(theta)) == sg.order
    for s in range(sg.order):
        assert inverse(theta[s]) == theta[sg.inv[s]]
        for t in range(sg.order):
            assert compose(theta[s], theta[t]) == theta[sg.table[s][t]]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(inverse_semigroups(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
def test_solution_set_is_the_per_point_filter(sg, arity, count, seed):
    # solution_set evaluates each side at every point at once; the reference
    # evaluates the unflattened terms one point at a time
    while arity > 1 and sg.order ** arity > 2_000:
        arity -= 1
    rng = random.Random(seed)
    sides = [
        (random_term(rng, arity, sg.order), random_term(rng, arity, sg.order))
        for _ in range(count)
    ]
    system = EquationSystem(tuple(Equation(l, r, arity) for l, r in sides))
    expected = {
        p for p in all_points(sg.order, arity)
        if all(_evaluate_ast(sg, l, p) == _evaluate_ast(sg, r, p) for l, r in sides)
    }
    assert solution_set(sg, system).members == expected


@SETTINGS
@given(inverse_semigroups(), st.integers(1, 2), st.integers(0, 2**32))
def test_both_orbits_agree_with_a_plain_orbit(sg, arity, seed):
    # closure() and in_subpower_closure gather their products through one
    # helper; the reference orbit takes each product entry by entry, so a
    # fault in the shared gather shows against it, in the answers or in the
    # vector counts where each cap falls.  Y runs through 0..3 seeded
    # points, the empty and one-point sets included
    if sg.order ** arity > 400:  # closure() passes B once per point of S^arity
        arity = 1
    rng = random.Random(seed)
    pts = list(all_points(sg.order, arity))
    sample, p = rng.sample(pts, min(3, len(pts))), rng.choice(pts)
    for size in range(len(sample) + 1):
        ys = sorted(sample[:size])
        y = PointSet(arity, frozenset(ys))
        orbit = plain_orbit(sg, ys + [p], arity)
        b = len({v[:-1] for v in orbit})  # |B|: the orbit on Y, projected
        member = b == len(orbit)
        report = closure(sg, y, max_cells=b * size)
        assert report.exact and (p in report.points.members) == member, (ys, p)
        assert in_subpower_closure(sg, y.members, p) == member, (ys, p)
        if size:
            assert not closure(sg, y, max_cells=b * size - 1).exact
        if size and member:
            cells = len(orbit) * size
            assert in_subpower_closure(sg, y.members, p, max_cells=cells) is True
            assert in_subpower_closure(sg, y.members, p, max_cells=cells - 1) is None
