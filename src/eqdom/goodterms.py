"""Conjugator normal forms for terms evaluated at idempotents.

A good term is either the bare variable x or a product
(s1 x s1^-1)(s2 x s2^-1)...(sn x sn^-1) with conjugators si drawn from the
semigroup with a formal identity adjoined.  On idempotent arguments a term
in any number of variables equals one good term per variable times a
constant tail.  One routine builds the form for every arity: each
occurrence of a variable is conjugated by its prefix, the product of the
constants before it, and the tail is the product of all constants.  In one
variable:

    c0 e c1 e ... ck  =  (s1 e s1^-1)(s2 e s2^-1)...(sk e sk^-1) * d

with si = c0 c1 ... c(i-1) and d = c0 c1 ... ck.  The identity holds because
each conjugate s e s^-1 is idempotent and idempotents commute with every
u^-1 u, so the bookkeeping factors cancel against the tail.  The conjugates
commute with each other, so they collect by variable.  The forms are
checked against direct evaluation by the tests, not at run time.
"""

from __future__ import annotations

from ._value import Value
from .terms import variables_of


class GoodTerm(Value):
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


def evaluate_good(semigroup, good: GoodTerm, e: int) -> int:
    """Value at an idempotent argument; rejects non-idempotents."""
    if not 0 <= e < semigroup.order:
        raise ValueError(f"argument index {e} is not an element of the semigroup")
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


class NormalizedUnary(Value):
    good: GoodTerm
    tail: int | None  # None is the formal identity


class NormalizedBinary(Value):
    good_x: GoodTerm
    good_y: GoodTerm
    tail: int | None


def _normal_form(semigroup, flat: tuple, arity: int):
    """Good terms for x1..x<arity> and the tail of a flat term, valid on idempotents.

    Exactly the variables x1..x<arity> must occur.  Each occurrence is
    conjugated by the product of the constants before it, and the tail is the
    product of all constants (None when there are none).
    """
    allowed = set(range(arity))
    used = variables_of(flat)
    if used - allowed:
        names = " and ".join(f"x{i + 1}" for i in range(arity))
        verb = "is" if arity == 1 else "are"
        raise ValueError(
            f"term mentions x{min(used - allowed) + 1}; only {names} {verb} allowed here"
        )
    if used != allowed:
        raise ValueError(f"the variable x{min(allowed - used) + 1} must occur in the term")

    prefix: int | None = None
    conjugators: list[list[int | None]] = [[] for _ in range(arity)]
    for lit in flat:
        if isinstance(lit, tuple):
            conjugators[lit[0]].append(prefix)
        else:
            prefix = lit if prefix is None else semigroup.table[prefix][lit]
    goods = tuple(GoodTerm(tuple(c)) for c in conjugators)
    return goods, prefix


def normalize_unary(semigroup, flat: tuple) -> NormalizedUnary:
    """Good-term-with-tail form of a flat term in x1, valid on idempotents.

    The variable must actually occur: a constant side has no such form (on
    the 2-chain no good term sends the bottom idempotent anywhere but to
    itself, so a tail cannot lift the value back up).
    """
    (good,), tail = _normal_form(semigroup, flat, 1)
    if good == GoodTerm((None,)) and tail is None:
        good = VAR_ONLY
    return NormalizedUnary(good, tail)


def normalize_binary(semigroup, flat: tuple) -> NormalizedBinary:
    """Separated form t(e,f) = good_x(e) good_y(f) tail of a flat term, on idempotents.

    The conjugates commute, so the x-factors collect in front of the
    y-factors.  Both variables must occur.
    """
    (good_x, good_y), tail = _normal_form(semigroup, flat, 2)
    return NormalizedBinary(good_x, good_y, tail)
