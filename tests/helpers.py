"""Shared helpers for the test suite.

random_terms() is the one piece of machinery several test modules need: a
deterministic stream of random term ASTs with a bounded number of literal
leaves.  Everything is driven by an explicit random.Random so reruns see the
same terms.  direct_product() builds semigroups beyond the catalog.
plain_orbit() is a reference subpower orbit, kept apart from the library's.
"""

import random
from functools import lru_cache
from operator import getitem

from eqdom.catalog import by_name
from eqdom.semigroup import validate
from eqdom.terms import Const, Inverse, Product, Var


def random_term(rng, arity, order, max_leaves=8):
    """One random Term with 1..max_leaves variable/constant leaves."""
    return _build(rng, arity, order, rng.randint(1, max_leaves))


def _build(rng, arity, order, leaves):
    if leaves == 1:
        # bias toward variables so normalization has something to work on
        if rng.random() < 0.65:
            return Var(rng.randrange(arity))
        return Const(rng.randrange(order))
    if rng.random() < 0.25:
        return Inverse(_build(rng, arity, order, leaves))
    split = rng.randint(1, leaves - 1)
    return Product(
        _build(rng, arity, order, split),
        _build(rng, arity, order, leaves - split),
    )


def random_terms(seed, arity, order, count, max_leaves=8):
    rng = random.Random(seed)
    return [random_term(rng, arity, order, max_leaves) for _ in range(count)]


@lru_cache(maxsize=None)
def shared_term_batch(catalog_name, arity, count):
    """Fixed per-semigroup term batch, shared between test modules.

    The seed mixes the catalog name and arity so every semigroup sees its own
    stream but reruns are identical.
    """
    sg = by_name(catalog_name)
    seed = f"{catalog_name}/{arity}"
    return tuple(random_terms(seed, arity, sg.order, count))


def direct_product(a, b):
    """a x b with componentwise product, elements (x, y) named x_y in
    row-major order, checked by validate()."""
    pairs = [(x, y) for x in range(a.order) for y in range(b.order)]
    names = [f"{a.names[x]}_{b.names[y]}" for x, y in pairs]
    table = [
        [pairs.index((a.table[x][u], b.table[y][v])) for u, v in pairs]
        for x, y in pairs
    ]
    return validate(names, table, f"{a.label}x{b.label}")


def plain_orbit(sg, ys, arity):
    """Every term function's values on ys (a list of points of the arity),
    as a set: the orbit of the literal and constant columns under right
    products, each product taken entry by entry from the Cayley table."""
    inv, table = sg.inv, sg.table
    gens = [(c,) * len(ys) for c in range(sg.order)]
    for i in range(arity):
        gens += [tuple(y[i] for y in ys), tuple(inv[y[i]] for y in ys)]
    orbit = list(dict.fromkeys(gens))
    seen = set(orbit)
    for v in orbit:  # orbit grows while iterated: the worklist
        rows = list(map(table.__getitem__, v))
        for g in gens:
            product = tuple(map(getitem, rows, g))
            if product not in seen:
                seen.add(product)
                orbit.append(product)
    return seen
