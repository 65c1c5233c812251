"""Injective partial self-maps of a finite ground set.

Composition is a right action throughout: compose(f, g) sends a point m to
(m f) g, so the left factor acts first.  With this convention the partial
injections on a finite set form an inverse monoid, and semigroup.wagner_preston
embeds any finite inverse semigroup into it.
"""

from __future__ import annotations

from ._value import Value


class GroundMismatchError(ValueError):
    """Raised when two maps over different ground sets are combined."""


class GroundSet(Value):
    """Immutable, ordered universe of points identified by distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"ground labels not pairwise distinct: {self.labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)


class PartialInjection(Value):
    """images[i] is the image index of point i, or None where undefined."""

    ground: GroundSet
    images: tuple[int | None, ...]

    def __post_init__(self) -> None:
        n = self.ground.size
        if len(self.images) != n:
            raise ValueError(f"expected {n} image slots, got {len(self.images)}")
        seen: set[int] = set()
        for j in self.images:
            if j is None:
                continue
            if not 0 <= j < n:
                raise ValueError(f"image index {j} out of range for {n} points")
            if j in seen:
                raise ValueError(f"not injective: image index {j} occurs twice")
            seen.add(j)

    def __str__(self) -> str:
        return render(self)


def compose(f: PartialInjection, g: PartialInjection) -> PartialInjection:
    """Right-action composite m -> (m f) g; defined where both steps are."""
    if f.ground != g.ground:
        raise GroundMismatchError("partial injections live on different ground sets")
    images = tuple(
        g.images[j] if (j := f.images[i]) is not None else None
        for i in range(f.ground.size)
    )
    return PartialInjection(f.ground, images)


def inverse(f: PartialInjection) -> PartialInjection:
    """The unique partial injection g with fgf = f and gfg = g (arrow reversal)."""
    images: list[int | None] = [None] * f.ground.size
    for i, j in enumerate(f.images):
        if j is not None:
            images[j] = i
    return PartialInjection(f.ground, tuple(images))


def domain_of(f: PartialInjection) -> frozenset[int]:
    return frozenset(i for i, j in enumerate(f.images) if j is not None)


def render(f: PartialInjection) -> str:
    """Space-separated image labels in ground order, '-' for undefined."""
    return " ".join(
        "-" if j is None else f.ground.labels[j] for j in f.images
    )
