"""Shared helpers for the test suite.

random_terms() is the one piece of machinery several test modules need: a
deterministic stream of random term ASTs with a bounded number of literal
leaves.  Everything is driven by an explicit random.Random so reruns see the
same terms.  direct_product() and cyclic_with_zero() build semigroups
beyond the catalog, and inverse_semigroups() lists every one of a small
order up to isomorphism, each its own least_relabelling().  plain_orbit()
is a reference subpower orbit, kept apart from the library's.
kind_equations() builds the Equations that a certificate kind's atomic
equations stand for, so that solution_set checks the data form.
partial_injections() lists the image tuples on n points without the
factory's injectivity filter, and check_wagner_preston_maps() checks the
shape and domains of the Wagner-Preston maps.
"""

import random
from functools import lru_cache
from itertools import permutations, product
from operator import getitem

from eqdom.catalog import by_name
from eqdom.geometry import Equation
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


@lru_cache(maxsize=None)
def cyclic_with_zero(n):
    """The cyclic group of order n with a zero adjoined: g0..g<n-1>, g0 the
    identity and gi gj = g<i+j mod n>, then z; n + 1 elements."""
    names = [f"g{i}" for i in range(n)] + ["z"]
    table = [[(i + j) % n for j in range(n)] + [n] for i in range(n)]
    return validate(names, table + [[n] * (n + 1)], f"z{n}_zero")


@lru_cache(maxsize=None)
def inverse_semigroups(n):
    """One semigroup per isomorphism class of inverse semigroups of order n,
    each the least of its relabelled tables (row by row), in order.  The
    table is filled a cell at a time in row-major order; each new cell is
    checked for associativity on the triples it takes part in, in its four
    roles (as x y or y z of (x y) z = x (y z), or as the last product of
    either side), and a full table is kept when each element has exactly
    one inverse t (s t s = s, t s t = t).  validate() rechecks each one."""
    table = [[None] * n for _ in range(n)]

    def associative(a, b, c):
        ab, bc = table[a][b], table[b][c]
        if ab is None or bc is None:
            return True
        left, right = table[ab][c], table[a][bc]
        return left is None or right is None or left == right

    def fits(x, y):
        return all(associative(x, y, z) and associative(z, x, y) for z in range(n)) and all(
            (ab != x or associative(a, b, y)) and (ab != y or associative(x, a, b))
            for a in range(n) for b, ab in enumerate(table[a])
        )

    def inverse():
        return all(
            sum(table[table[s][t]][s] == s and table[table[t][s]][t] == t for t in range(n)) == 1
            for s in range(n)
        )

    classes = set()

    def fill(cell):
        if cell == n * n:
            if inverse():
                classes.add(least_relabelling(table))
            return
        x, y = divmod(cell, n)
        for v in range(n):
            table[x][y] = v
            if fits(x, y):
                fill(cell + 1)
        table[x][y] = None

    fill(0)
    return tuple(
        validate([f"s{i}" for i in range(n)], rows, f"inv{n}_{k}")
        for k, rows in enumerate(sorted(classes))
    )


def least_relabelling(table):
    """The least, row by row, of the tables that relabel the elements of a
    Cayley table in every order, as a tuple of tuples."""
    n = len(table)

    def relabel(q):  # q[i] is the element relabelled i
        p = [q.index(a) for a in range(n)]
        return tuple(tuple(p[table[q[i]][q[j]]] for j in range(n)) for i in range(n))

    return min(map(relabel, permutations(range(n))))


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


def kind_equations(kind, idempotents):
    """The two Equations of a witness kind's atomic equations (i, j, c) for
    the recorded idempotents: x_{i+1} = x_{j+1}, or x_{i+1} = the constant
    idempotents[c] when j is None."""
    return tuple(
        Equation(Var(i), Var(j) if j is not None else Const(idempotents[c]), kind.arity)
        for i, j, c in kind.equations
    )


def partial_injections(n):
    """Every partial injection on n points as an image tuple, each once: a
    permutation of the points with some of its images dropped."""
    return {
        tuple(j if k else None for j, k in zip(perm, keep))
        for perm in permutations(range(n))
        for keep in product((True, False), repeat=n)
    }


def check_wagner_preston_maps(sg, theta):
    """Assert that theta has one map per element and that each theta_s is an
    injective image tuple on the |S| elements, defined exactly on
    {x : x (s s^-1) = x}."""
    n = sg.order
    assert len(theta) == n
    for s, images in enumerate(theta):
        assert len(images) == n, sg.names[s]
        defined = [j for j in images if j is not None]
        assert all(j in range(n) for j in defined), sg.names[s]
        assert len(set(defined)) == len(defined), sg.names[s]
        e = sg.table[s][sg.inv[s]]
        domain = {x for x, j in enumerate(images) if j is not None}
        assert domain == {x for x in range(n) if sg.table[x][e] == x}, sg.names[s]
