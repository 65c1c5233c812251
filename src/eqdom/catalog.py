"""Stock inverse semigroups used by the tests and the CLI --catalog flag."""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .semigroup import FiniteInverseSemigroup, validate

# chain names start at 'e' so the 2-chain reads {e, f} with e on top
_CHAIN_NAMES = "efghijklmnopqrstuvwxyz"


def chain_semilattice(k: int) -> FiniteInverseSemigroup:
    """The k-chain e > f > ... under meet; every element idempotent."""
    if not 1 <= k <= len(_CHAIN_NAMES):
        raise ValueError(f"chain size must be between 1 and {len(_CHAIN_NAMES)}")
    names = tuple(_CHAIN_NAMES[:k])
    table = [[max(i, j) for j in range(k)] for i in range(k)]
    return validate(names, table)


def cyclic_group(n: int) -> FiniteInverseSemigroup:
    if not 1 <= n <= 100:
        raise ValueError("cyclic group size must be between 1 and 100")
    names = tuple(["1", "a"][:n]) if n <= 2 else ("1", "a", *(f"a{k}" for k in range(2, n)))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate(names, table)


def group_with_zero(n: int) -> FiniteInverseSemigroup:
    """A cyclic group of order n with an absorbing zero adjoined."""
    if not 1 <= n <= 99:
        raise ValueError("group part must have between 1 and 99 elements")
    g = cyclic_group(n)
    z = n  # index of the adjoined zero
    names = g.names + ("0",)
    table = [[g.table[i][j] for j in range(n)] + [z] for i in range(n)]
    table.append([z] * (n + 1))
    return validate(names, table)


def brandt_b2() -> FiniteInverseSemigroup:
    """The five-element Brandt semigroup of 2x2 matrix units plus zero."""
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    names = tuple(f"e{i}{j}" for i, j in units) + ("0",)
    z = 4
    table = [[z] * 5 for _ in range(5)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[a][b] = units.index((i, l))
    return validate(names, table)


def symmetric_inverse_monoid(n: int) -> FiniteInverseSemigroup:
    """All partial injections on an n-point set under right-action composition.

    Each map is its image tuple: entry i is the image of point i, or None
    where undefined, and no point is an image twice.  The tuples come in
    itertools.product order, None after every point in each slot, so the
    identity comes first and the empty map last.  The composite of f then g
    sends i to g[f[i]].  Element names concatenate the image labels in
    ground order with '_' for undefined slots, e.g. on two points '12' is
    the identity and '__' the empty map.
    """
    if not 1 <= n <= 4:
        raise ValueError("ground set size must be between 1 and 4")
    maps = [
        images for images in product((*range(n), None), repeat=n)
        if len(images) - images.count(None) == len(set(images) - {None})
    ]
    index = {m: k for k, m in enumerate(maps)}
    names = tuple("".join("_" if j is None else str(j + 1) for j in m) for m in maps)
    table = [
        [index[tuple(None if j is None else g[j] for j in f)] for g in maps]
        for f in maps
    ]
    return validate(names, table)


_FACTORIES = {
    "trivial": lambda: chain_semilattice(1),
    "chain2": lambda: chain_semilattice(2),
    "chain3": lambda: chain_semilattice(3),
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z5": lambda: cyclic_group(5),
    "z2_zero": lambda: group_with_zero(2),
    "brandt_b2": lambda: brandt_b2(),
    "sim2": lambda: symmetric_inverse_monoid(2),
    "sim3": lambda: symmetric_inverse_monoid(3),
}

CATALOG_NAMES = tuple(_FACTORIES)


@lru_cache(maxsize=None)
def by_name(name: str) -> FiniteInverseSemigroup:
    """The catalog entry called name, labelled with that name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = " ".join(CATALOG_NAMES)
        raise ValueError(f"unknown catalog name {name!r} (known: {known})") from None
    return factory().replace(label=name)
