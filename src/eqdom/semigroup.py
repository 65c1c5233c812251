"""Finite inverse semigroups presented by Cayley tables.

The table convention is table[i][j] = (element i) * (element j): the row
element is the left factor.  validate() is the only constructor.  It checks
the definition (an associative table in which each element has exactly one
inverse); the laws used downstream are theorems of it (Howie, Fundamentals
of Semigroup Theory, Thm 5.1.1; Clifford and Preston I, Thm 1.17), so the
idempotent order and the Wagner-Preston maps (plain image tuples, as in
partialmap) are built unchecked.  The tests carry these laws.
"""

from __future__ import annotations

import os
from functools import cached_property

from ._value import Value
from .terms import _IDENT


class SemigroupError(ValueError):
    """Base class for table validation failures."""


class NonAssociativeError(SemigroupError):
    def __init__(self, names, triple):
        i, j, k = triple
        self.triple = triple
        super().__init__(
            f"not associative at ({names[i]} {names[j]}) {names[k]} != "
            f"{names[i]} ({names[j]} {names[k]})"
        )


class NotInverseError(SemigroupError):
    def __init__(self, names, element, candidates):
        self.element = element
        self.candidates = tuple(candidates)
        count = len(self.candidates)
        super().__init__(
            f"element {names[element]} has {count} inverse candidate(s), expected exactly 1"
        )


class TableFormatError(ValueError):
    """Raised for malformed Cayley-table text."""


class FiniteInverseSemigroup(Value, uncompared=("generating_set", "label")):
    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    idempotents: frozenset[int]
    zero: int | None
    identity: int | None
    # an irredundant semigroup generating set, found once by validate()
    generating_set: tuple[int, ...]
    label: str = ""

    @property
    def order(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SemigroupError(f"unknown element name: {name!r}") from None

    def __repr__(self) -> str:
        tag = self.label or "anonymous"
        return f"<FiniteInverseSemigroup {tag} order={self.order}>"

    @cached_property
    def idempotent_order(self) -> IdempotentOrder:
        """The natural order of the idempotents, built once per semigroup.
        ef = e is a partial order by idempotency (reflexive), commuting
        idempotents (antisymmetric) and associativity (transitive), all
        three implied by the definition validate() checked on this table."""
        return IdempotentOrder(tuple(sorted(self.idempotents)), self.table)

    @cached_property
    def _right(self) -> tuple[tuple[int, ...], ...]:
        """The table's columns, built once per semigroup: _right[c][a] = a c,
        right multiplication by c as a tuple indexed by a."""
        return tuple(zip(*self.table))

    @cached_property
    def _right_codes(self) -> tuple[bytes, ...]:
        """Right multiplication on the byte codes of orbit vectors, built
        once per semigroup on first use, for |S| <= 256: with
        k = 256 // |S|, the bytes.translate table _right_codes[c] maps the
        code j |S| + a (j < k) to j |S| + a c (see terms._multipliers).
        Each byte of the sum stays below 256, so one integer addition adds
        j |S| to every byte."""
        order = self.order
        chunk = 256 // order
        codes = chunk * order
        shifts = int.from_bytes(bytes(j // order * order for j in range(codes)), "big")
        return tuple(
            (shifts + int.from_bytes(bytes(column) * chunk, "big")).to_bytes(codes, "big")
            + bytes(256 - codes)
            for column in self._right
        )

    @cached_property
    def incomparable_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every ordered pair of order-incomparable idempotents,
        lexicographically, built once per semigroup."""
        order = self.idempotent_order
        return tuple(
            (e, f) for e in order.elements for f in order.elements
            if not order.leq(e, f) and not order.leq(f, e)
        )


def _right_products(table, gens) -> list[int]:
    """Every left-associated product (..((g1 g2) g3)..) gk of elements of
    gens, k >= 1, in the order the worklist reaches them."""
    reached = list(gens)
    seen = set(reached)
    for a in reached:  # reached grows while iterated: the worklist
        for g in gens:
            product = table[a][g]
            if product not in seen:
                seen.add(product)
                reached.append(product)
    return reached


def _generating_set(table) -> tuple[int, ...]:
    """An irredundant semigroup generating set: each element not yet
    reached joins, in index order, then each generator that the others
    already generate leaves, last first.  Products are taken
    left-associated, so the set is well defined on a raw table, before
    associativity is checked."""
    gens: list[int] = []
    reached: set[int] = set()
    for s in range(len(table)):
        if s not in reached:
            gens.append(s)
            reached = set(_right_products(table, gens))
    for g in gens[::-1]:
        others = [h for h in gens if h != g]
        if len(_right_products(table, others)) == len(table):
            gens = others
    return tuple(gens)


def validate(names, table, label: str = "") -> FiniteInverseSemigroup:
    """Check the definition of an inverse semigroup on a raw Cayley table:
    the names, the table's shape and range, associativity, and exactly one
    inverse t (s t s = s, t s t = t) of each s.

    Raises SemigroupError, NonAssociativeError or NotInverseError with a
    concrete witness.  Associativity is checked by Light's test, so the
    middle element of a failing triple lies in the generating set.  The
    other laws (idempotents commute, s s' and s e s' are idempotent,
    (s t)' = t' s', a single idempotent is an identity) follow from these
    (Howie, Thm 5.1.1) and are not checked again.
    """
    names = tuple(names)
    n = len(names)
    if n == 0:
        raise SemigroupError("empty element list")
    if len(set(names)) != n:
        raise SemigroupError("element names are not pairwise distinct")
    for nm in names:
        # exactly the names the term lexer reads as one identifier
        if not _IDENT.fullmatch(nm):
            raise SemigroupError(f"element name not usable as a token: {nm!r}")

    rows = tuple(tuple(row) for row in table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise SemigroupError(f"table must be {n}x{n}")
    for row in rows:
        for entry in row:
            if not isinstance(entry, int) or not 0 <= entry < n:
                raise SemigroupError(f"table entry {entry!r} out of range")

    gens = _generating_set(rows)
    # Light's test: (x a) y = x (a y) for every a of a generating set makes
    # the table associative (Clifford and Preston I, section 1.2)
    for a in gens:
        for x, row_x in enumerate(rows):
            xa_row = rows[row_x[a]]
            for y, ay in enumerate(rows[a]):
                if xa_row[y] != row_x[ay]:
                    raise NonAssociativeError(names, (x, a, y))

    inv_list = []
    for s in range(n):
        candidates = [
            t for t in range(n)
            if rows[rows[s][t]][s] == s and rows[rows[t][s]][t] == t
        ]
        if len(candidates) != 1:
            raise NotInverseError(names, s, candidates)
        inv_list.append(candidates[0])
    inv = tuple(inv_list)

    idempotents = frozenset(e for e in range(n) if rows[e][e] == e)

    zero = None
    for z in range(n):
        if all(rows[z][s] == z and rows[s][z] == z for s in range(n)):
            zero = z
            break
    identity = None
    for e in range(n):
        if all(rows[e][s] == s and rows[s][e] == s for s in range(n)):
            identity = e
            break

    return FiniteInverseSemigroup(names, rows, inv, idempotents, zero, identity, gens, label)


def is_group(sg: FiniteInverseSemigroup) -> bool:
    """An inverse semigroup is a group exactly when it has a single idempotent."""
    return len(sg.idempotents) == 1


class IdempotentOrder(Value, hidden=("table",)):
    """The natural partial order e <= f iff ef = e, restricted to idempotents."""

    elements: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    def leq(self, e: int, f: int) -> bool:
        return self.table[e][f] == e

    def minimal(self) -> tuple[int, ...]:
        return tuple(
            e for e in self.elements
            if not any(f != e and self.leq(f, e) for f in self.elements)
        )

    def maximal(self) -> tuple[int, ...]:
        return tuple(
            e for e in self.elements
            if not any(f != e and self.leq(e, f) for f in self.elements)
        )

    def covering_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (low, high) with nothing strictly between, for Hasse output."""
        covers = []
        for lo in self.elements:
            for hi in self.elements:
                if lo == hi or not self.leq(lo, hi):
                    continue
                if any(
                    mid != lo and mid != hi and self.leq(lo, mid) and self.leq(mid, hi)
                    for mid in self.elements
                ):
                    continue
                covers.append((lo, hi))
        return tuple(sorted(covers))


def natural_order(sg: FiniteInverseSemigroup) -> IdempotentOrder:
    """The natural order of sg's idempotents; built once, on first use."""
    return sg.idempotent_order


def incomparable_pairs(sg: FiniteInverseSemigroup) -> tuple[tuple[int, int], ...]:
    """Every ordered pair of order-incomparable idempotents, lexicographically;
    found once per semigroup."""
    return sg.incomparable_pairs


def is_chain(sg: FiniteInverseSemigroup) -> bool:
    return not sg.incomparable_pairs


def wagner_preston(sg: FiniteInverseSemigroup) -> tuple[tuple[int | None, ...], ...]:
    """The right-regular representation by partial injections.

    Element s acts on the elements of sg, with domain {x : x (s s') = x} and
    action x -> x s; theta_s is the image tuple of partialmap, entry x the
    index of x s or None.  The classical Wagner-Preston theorem makes this an
    embedding (injective, multiplicative, compatible with inversion) of any
    table validate() accepted, so the maps are built once and not rechecked.
    """
    table, points = sg.table, range(sg.order)
    domain_idems = [table[s][sg.inv[s]] for s in points]
    return tuple(
        tuple(table[x][s] if table[x][e] == x else None for x in points)
        for s, e in enumerate(domain_idems)
    )


def hasse_dot(sg: FiniteInverseSemigroup) -> str:
    """DOT digraph of the idempotent order, drawn bottom-up via covering edges."""
    order = natural_order(sg)
    lines = ["digraph idempotent_order {", "  rankdir=BT;"]
    for e in order.elements:
        lines.append(f'  "{sg.names[e]}";')
    for lo, hi in order.covering_pairs():
        lines.append(f'  "{sg.names[lo]}" -> "{sg.names[hi]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_cayley_table(text: str) -> tuple[tuple[str, ...], list[list[int]]]:
    """Parse the plain-text table format.

    Line 1: ``elements`` followed by the n element names.  Then one
    ``row <name>:`` line per element giving the products (row element) *
    (column element) in the column order of line 1.  '#' starts a comment,
    blank lines are ignored.
    """
    names: tuple[str, ...] | None = None
    rows: dict[str, list[int]] = {}
    index: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if names is None:
            if tokens[0] != "elements" or len(tokens) < 2:
                raise TableFormatError(f"line {lineno}: expected 'elements <name> ...'")
            names = tuple(tokens[1:])
            if len(set(names)) != len(names):
                raise TableFormatError(f"line {lineno}: duplicate element name")
            index = {nm: i for i, nm in enumerate(names)}
            continue
        if tokens[0] != "row" or len(tokens) < 2 or not tokens[1].endswith(":"):
            raise TableFormatError(f"line {lineno}: expected 'row <name>: <entries>'")
        rname = tokens[1][:-1]
        if rname not in index:
            raise TableFormatError(f"line {lineno}: unknown row element {rname!r}")
        if rname in rows:
            raise TableFormatError(f"line {lineno}: duplicate row for {rname!r}")
        entries = tokens[2:]
        if len(entries) != len(names):
            raise TableFormatError(
                f"line {lineno}: expected {len(names)} entries, got {len(entries)}"
            )
        try:
            rows[rname] = [index[e] for e in entries]
        except KeyError as exc:
            raise TableFormatError(f"line {lineno}: unknown element {exc.args[0]!r}") from None
    if names is None:
        raise TableFormatError("no 'elements' line found")
    missing = [nm for nm in names if nm not in rows]
    if missing:
        raise TableFormatError(f"missing row(s) for: {' '.join(missing)}")
    return names, [rows[nm] for nm in names]


def load_semigroup(path: str) -> FiniteInverseSemigroup:
    # utf-8-sig drops one leading byte-order mark and otherwise reads UTF-8
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    names, table = parse_cayley_table(text)
    return validate(names, table, os.path.basename(path))
