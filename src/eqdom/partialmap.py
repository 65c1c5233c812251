"""Injective partial self-maps of n points, as image tuples.

A map f on n points is the tuple whose entry i is the image index of point i,
or None where f is undefined.  Composition is a right action throughout:
compose(f, g) sends a point m to (m f) g, so the left factor acts first.
With this convention the partial injections on n points form an inverse
monoid, and semigroup.wagner_preston embeds any finite inverse semigroup
into it.  The functions take their arguments to be injective maps on the
same points and do not check them.
"""

from __future__ import annotations


def compose(f: tuple[int | None, ...], g: tuple[int | None, ...]) -> tuple[int | None, ...]:
    """Right-action composite m -> (m f) g; defined where both steps are."""
    return tuple(None if j is None else g[j] for j in f)


def inverse(f: tuple[int | None, ...]) -> tuple[int | None, ...]:
    """The unique partial injection g with fgf = f and gfg = g (arrow reversal)."""
    images: list[int | None] = [None] * len(f)
    for i, j in enumerate(f):
        if j is not None:
            images[j] = i
    return tuple(images)


def domain_of(f: tuple[int | None, ...]) -> frozenset[int]:
    return frozenset(i for i, j in enumerate(f) if j is not None)


def render(f: tuple[int | None, ...], labels: tuple[str, ...]) -> str:
    """Space-separated image labels in point order, '-' for undefined."""
    return " ".join("-" if j is None else labels[j] for j in f)
