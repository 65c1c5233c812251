"""Conjugator normal forms for terms evaluated at idempotents.

A good term is either the bare variable x or a product
(s1 x s1^-1)(s2 x s2^-1)...(sn x sn^-1) with conjugators si drawn from the
semigroup with a formal identity adjoined.  On idempotent arguments every
term in one variable equals a good term times a constant tail:

    c0 e c1 e ... ck  =  (s1 e s1^-1)(s2 e s2^-1)...(sk e sk^-1) * d

with si = c0 c1 ... c(i-1) and d = c0 c1 ... ck.  The identity holds because
each conjugate s e s^-1 is idempotent and idempotents commute with every
u^-1 u, so the bookkeeping factors cancel against the tail.  The two-variable
version separates the x-conjugates from the y-conjugates the same way.  Both
normalizers verify their contract exhaustively over the idempotents at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import ConstLit, FlatTerm, evaluate, variables_of


class NormalizationError(RuntimeError):
    """The constructed normal form failed its own defining contract."""


@dataclass(frozen=True)
class GoodTerm:
    """conjugators is None for the bare variable, else a nonempty tuple over
    the semigroup with formal identity (None marks the formal identity)."""

    conjugators: tuple[int | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.conjugators is not None and len(self.conjugators) == 0:
            raise ValueError("conjugator sequence must be nonempty")

    @property
    def is_var_only(self) -> bool:
        return self.conjugators is None


VAR_ONLY = GoodTerm(None)


def _s1_mul(semigroup, a: int | None, b: int | None) -> int | None:
    """Product in the semigroup with a formal identity adjoined."""
    if a is None:
        return b
    if b is None:
        return a
    return semigroup.table[a][b]


def evaluate_good(semigroup, good: GoodTerm, e: int) -> int:
    """Value at an idempotent argument; rejects non-idempotents."""
    if e not in semigroup.idempotents:
        raise ValueError(f"argument {semigroup.names[e]} is not idempotent")
    if good.is_var_only:
        return e
    table = semigroup.table
    inv = semigroup.inv
    acc: int | None = None
    for s in good.conjugators:
        factor = e if s is None else table[table[s][e]][inv[s]]
        acc = factor if acc is None else table[acc][factor]
    return acc


@dataclass(frozen=True)
class NormalizedUnary:
    good: GoodTerm
    tail: int | None  # None is the formal identity


@dataclass(frozen=True)
class NormalizedBinary:
    good_x: GoodTerm
    good_y: GoodTerm
    tail: int | None


def _segments(flat: FlatTerm, semigroup):
    """Split a flat term into constant runs around the variable occurrences.

    Returns (segments, occurrences): len(segments) = occurrences + 1, where
    segments[i] is the fused constant product (None if empty) between the
    i-th and (i+1)-th variable occurrence.  Variable signs are dropped: on
    idempotent arguments x^-1 = x.
    """
    segments: list[int | None] = [None]
    occurrences = 0
    for lit in flat.literals:
        if isinstance(lit, ConstLit):
            segments[-1] = _s1_mul(semigroup, segments[-1], lit.element)
        else:
            segments.append(None)
            occurrences += 1
    return segments, occurrences


def normalize_unary(semigroup, flat: FlatTerm) -> NormalizedUnary:
    """Good-term-with-tail form of a term in x1, valid on idempotents.

    The variable must actually occur: a constant side has no such form (on
    the 2-chain no good term sends the bottom idempotent anywhere but to
    itself, so a tail cannot lift the value back up).
    """
    used = variables_of(flat)
    if used - {0}:
        extra = sorted(used - {0})[0]
        raise ValueError(f"term mentions x{extra + 1}; only x1 is allowed here")
    if not used:
        raise ValueError("the variable x1 must occur in the term")

    segments, k = _segments(flat, semigroup)
    if k == 1 and all(s is None for s in segments):
        nf = NormalizedUnary(VAR_ONLY, None)
    else:
        conjugators = []
        run: int | None = None
        for i in range(k):
            run = _s1_mul(semigroup, run, segments[i])
            conjugators.append(run)
        tail = _s1_mul(semigroup, run, segments[k])
        nf = NormalizedUnary(GoodTerm(tuple(conjugators)), tail)

    for e in sorted(semigroup.idempotents):
        got = evaluate_good(semigroup, nf.good, e)
        got = got if nf.tail is None else semigroup.table[got][nf.tail]
        want = evaluate(semigroup, flat, (e,))
        if got != want:
            raise NormalizationError(
                f"unary normal form disagrees at idempotent {semigroup.names[e]}"
            )
    return nf


def normalize_binary(semigroup, flat: FlatTerm) -> NormalizedBinary:
    """Separated form t(e,f) = good_x(e) good_y(f) tail on idempotent pairs.

    Each variable occurrence contributes the conjugate of its argument by the
    product of all constants strictly before it; the conjugates commute, so
    the x-factors collect in front of the y-factors, and the tail is the
    product of all constants.  Both variables must occur.
    """
    used = variables_of(flat)
    if used - {0, 1}:
        extra = sorted(used - {0, 1})[0]
        raise ValueError(f"term mentions x{extra + 1}; only x1 and x2 are allowed here")
    if used != {0, 1}:
        missing = min({0, 1} - used)
        raise ValueError(f"the variable x{missing + 1} must occur in the term")

    prefix: int | None = None
    x_conj: list[int | None] = []
    y_conj: list[int | None] = []
    for lit in flat.literals:
        if isinstance(lit, ConstLit):
            prefix = _s1_mul(semigroup, prefix, lit.element)
        elif lit.index == 0:
            x_conj.append(prefix)
        else:
            y_conj.append(prefix)
    nf = NormalizedBinary(GoodTerm(tuple(x_conj)), GoodTerm(tuple(y_conj)), prefix)

    table = semigroup.table
    for e in sorted(semigroup.idempotents):
        for f in sorted(semigroup.idempotents):
            got = table[evaluate_good(semigroup, nf.good_x, e)][
                evaluate_good(semigroup, nf.good_y, f)
            ]
            if nf.tail is not None:
                got = table[got][nf.tail]
            want = evaluate(semigroup, flat, (e, f))
            if got != want:
                raise NormalizationError(
                    "binary normal form disagrees at "
                    f"({semigroup.names[e]}, {semigroup.names[f]})"
                )
    return nf
