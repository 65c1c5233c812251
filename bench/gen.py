"""Seeded benchmark inputs, built from partial injections without eqdom.

A semigroup here is a plain dict: ``label``, ``names``, ``table`` (row
element times column element, as index lists) and ``maps``, the partial
injection behind each element (image tuples with -1 for undefined, composed
as a right action like eqdom's).  Closing a set of partial injections under
composition and inverse gives an inverse semigroup; Wagner-Preston puts every
finite inverse semigroup inside some symmetric inverse monoid, so sampling
subsemigroups of a symmetric inverse monoid samples the whole class.
"""

from __future__ import annotations

import itertools
import random


def partial_injections(n: int) -> list[tuple[int, ...]]:
    """Every partial injection on n points, identity first, empty map last."""
    maps = [
        images for images in itertools.product((*range(n), -1), repeat=n)
        if len({j for j in images if j >= 0}) == sum(1 for j in images if j >= 0)
    ]
    maps.sort(key=lambda images: tuple(n if j < 0 else j for j in images))
    return maps


def compose(f, g):
    """Right action: the point m goes to (m f) g."""
    return tuple(-1 if j < 0 else g[j] for j in f)


def inverse(f):
    out = [-1] * len(f)
    for i, j in enumerate(f):
        if j >= 0:
            out[j] = i
    return tuple(out)


def close(generators, cap: int | None = None):
    """Inverse subsemigroup generated by the maps, or None once it passes cap.

    Words over a generating set closed under inverse are closed under
    inverse, so right multiplication by the generators reaches every element.
    """
    gens = sorted(set(generators) | {inverse(g) for g in generators})
    seen = set(gens)
    queue = list(gens)
    for x in queue:
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if cap is not None and len(seen) > cap:
                    return None
    return sorted(seen, key=lambda m: tuple(len(m) if j < 0 else j for j in m))


def map_name(m) -> str:
    return "".join("_" if j < 0 else str(j + 1) for j in m)


def semigroup(maps, label: str, rng: random.Random | None = None) -> dict:
    """Cayley table of the maps; rng shuffles the element order (a relabelling)."""
    maps = list(maps)
    if rng is not None:
        rng.shuffle(maps)
    index = {m: k for k, m in enumerate(maps)}
    table = [[index[compose(a, b)] for b in maps] for a in maps]
    return {"label": label, "names": [map_name(m) for m in maps], "table": table, "maps": maps}


def random_subsemigroup(rng, points: int, lo: int, hi: int, seen: set):
    """A subsemigroup of sim<points> with lo <= order <= hi, new to seen."""
    pool = partial_injections(points)
    while True:
        elements = close(rng.sample(pool, rng.choice((1, 2, 2, 3))), cap=hi)
        if elements is not None and len(elements) >= lo and tuple(elements) not in seen:
            seen.add(tuple(elements))
            return semigroup(elements, "", rng)


def conjugate(m, perm):
    """The map perm^-1 m perm: point perm[i] goes to perm[m[i]]."""
    out = [-1] * len(m)
    for i, j in enumerate(m):
        if j >= 0:
            out[perm[i]] = perm[j]
    return tuple(out)


def random_conjugate(rng, generators, seen: set):
    """The subsemigroup generated by a random conjugate of the generators,
    new to seen: the same isomorphism type on another set of maps."""
    points = len(generators[0])
    perms = list(itertools.permutations(range(points)))
    rng.shuffle(perms)
    for perm in perms:
        elements = close([conjugate(tuple(g), perm) for g in generators])
        if tuple(elements) not in seen:
            seen.add(tuple(elements))
            return semigroup(elements, "", rng)
    raise ValueError("every conjugate is already in use")


# Independent constructions of eqdom's catalog, matched to it by element name.

def _chain(k):
    names = "efghijklmnopqrstuvwxyz"[:k]
    return list(names), [[max(i, j) for j in range(k)] for i in range(k)]


def _cyclic(n):
    names = ["1", "a"][:n] if n <= 2 else ["1", "a"] + [f"a{k}" for k in range(2, n)]
    return names, [[(i + j) % n for j in range(n)] for i in range(n)]


def _cyclic_zero(n):
    names, table = _cyclic(n)
    return names + ["0"], [row + [n] for row in table] + [[n] * (n + 1)]


def _brandt():
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    table = [[4] * 5 for _ in range(5)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[a][b] = units.index((i, l))
    return [f"e{i}{j}" for i, j in units] + ["0"], table


def _sim(n):
    sg = semigroup(partial_injections(n), "")
    return sg["names"], sg["table"]


CATALOG = {
    "trivial": lambda: _chain(1),
    "chain2": lambda: _chain(2),
    "chain3": lambda: _chain(3),
    "z2": lambda: _cyclic(2),
    "z3": lambda: _cyclic(3),
    "z5": lambda: _cyclic(5),
    "z2_zero": lambda: _cyclic_zero(2),
    "brandt_b2": _brandt,
    "sim2": lambda: _sim(2),
    "sim3": lambda: _sim(3),
}


def catalog(name: str) -> dict:
    names, table = CATALOG[name]()
    return {"label": name, "names": names, "table": table}


# Terms: a word is a list of factors (kind, value, exponent) with kind "x"
# (variable index), "c" (element index) or "g" (a parenthesised word).

def random_word(rng, arity: int, order: int, shape) -> list:
    """A word of the given shape ("x", "x^-1", "c" or a nested shape with its
    exponent), with seeded variables and constants; the shape fixes its length."""
    word = []
    for part in shape:
        if part == "c":
            word.append(("c", rng.randrange(order), 1))
        elif isinstance(part, str):
            word.append(("x", rng.randrange(arity), -1 if part == "x^-1" else 1))
        else:
            inner, exp = part
            word.append(("g", random_word(rng, arity, order, inner), exp))
    return word


def word_text(word, names) -> str:
    parts = []
    for kind, value, exp in word:
        base = {"x": lambda: f"x{value + 1}", "c": lambda: names[value],
                "g": lambda: "(" + word_text(value, names) + ")"}[kind]()
        parts.append(base if exp == 1 else f"{base}^{exp}")
    return " ".join(parts)


def random_points(rng, order: int, arity: int, count: int) -> list:
    points = set()
    while len(points) < count:
        points.add(tuple(rng.randrange(order) for _ in range(arity)))
    return sorted(points)


def table_text(sg) -> str:
    names = sg["names"]
    lines = ["# generated by bench/gen.py", "elements " + " ".join(names)]
    for name, row in zip(names, sg["table"]):
        lines.append(f"row {name}: " + " ".join(names[k] for k in row))
    return "\n".join(lines) + "\n"
