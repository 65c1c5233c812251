"""Terms over an inverse semigroup: products, inversion and named constants.

A term is built from variables x1..xn and element constants with the binary
product and unary inversion.  flatten() rewrites any term into an equivalent
product of literals by pushing inversion inward with (st)' = t's' and x'' = x,
which is valid in every inverse semigroup; constants swallow their inversions
and adjacent constants fuse through the Cayley table.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain, islice, product as _cartesian
from operator import add, getitem, itemgetter

from ._value import Value

DEFAULT_MAX_CELLS = 5_000_000
# Most literals a parsed term may have after '^k' expansion, and deepest
# parenthesis nesting; keeps the recursive parse, flatten, variables_of and
# both evaluators a few hundred frames under the interpreter's recursion limit.
MAX_TERM_SIZE = 100


class Var(Value):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"variable index must be >= 0, got {self.index}")


class Const(Value):
    element: int


class Product(Value):
    left: "Term"
    right: "Term"


class Inverse(Value):
    inner: "Term"


Term = Var | Const | Product | Inverse


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_IDENT = re.compile(r"[A-Za-z0-9_]+")
_VARIABLE = re.compile(r"^x([0-9]+)$")
_INT = re.compile(r"-?[0-9]+")


def _lex(text: str):
    """Tokens: identifiers, '*', parentheses, and '^' with its attached integer."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "*()":
            tokens.append((ch, None, pos))
            pos += 1
            continue
        if ch == "^":
            m = _INT.match(text, pos + 1)
            if not m:
                raise ParseError("expected integer exponent after '^'", pos)
            tokens.append(("^", int(m.group()), pos))
            pos = m.end()
            continue
        m = _IDENT.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", pos)
        tokens.append(("ident", m.group(), pos))
        pos = m.end()
    return tokens


def parse(text: str, arity: int, semigroup) -> Term:
    """Parse the surface syntax into a Term.

    Juxtaposition or '*' multiplies, '^k' (k a nonzero integer) repeats a
    variable, constant or parenthesized subterm, with negative exponents
    expanded through inversion at parse time.  Identifiers of the form
    x1..x<arity> are variables; any other identifier must name an element of
    the semigroup.  An element that happens to be named like a variable is
    shadowed and unreachable in this syntax.  A term with more than
    MAX_TERM_SIZE literals once '^k' is expanded, or with parentheses nested
    deeper than that, is a ParseError.
    """
    tokens = _lex(text)
    if not tokens:
        raise ParseError("empty input is not a term", 0)
    term, _, at = _parse_product(tokens, 0, arity, semigroup, 0)
    if at != len(tokens):
        raise ParseError("unexpected trailing input", tokens[at][2])
    return term


def _parse_product(tokens, at, arity, semigroup, depth):
    """(term, its literal count, next token index)."""
    factors = []
    size = 0
    after_star = False
    while at < len(tokens):
        kind, value, pos = tokens[at]
        if kind == ")":
            break
        if kind == "*":
            if not factors or after_star:
                raise ParseError("'*' needs operands on both sides", pos)
            after_star = True
            at += 1
            continue
        factor, factor_size, at = _parse_factor(tokens, at, arity, semigroup, depth)
        size += factor_size
        if size > MAX_TERM_SIZE:
            raise ParseError(f"term has more than {MAX_TERM_SIZE} literals", pos)
        factors.append(factor)
        after_star = False
    if after_star:
        raise ParseError("'*' needs operands on both sides", tokens[at - 1][2])
    if not factors:
        pos = tokens[at][2] if at < len(tokens) else 0
        raise ParseError("empty product is not a term", pos)
    term = factors[0]
    for f in factors[1:]:
        term = Product(term, f)
    return term, size, at


def _parse_factor(tokens, at, arity, semigroup, depth):
    kind, value, pos = tokens[at]
    if kind == "(":
        if depth >= MAX_TERM_SIZE:
            raise ParseError(f"parentheses nested deeper than {MAX_TERM_SIZE}", pos)
        inner, size, at = _parse_product(tokens, at + 1, arity, semigroup, depth + 1)
        if at >= len(tokens) or tokens[at][0] != ")":
            raise ParseError("unclosed parenthesis", pos)
        atom = inner
        at += 1
    elif kind == "ident":
        atom = _resolve(value, arity, semigroup, pos)
        size = 1
        at += 1
    else:
        raise ParseError(f"unexpected token {kind!r}", pos)
    if at < len(tokens) and tokens[at][0] == "^":
        k = tokens[at][1]
        if k == 0:
            raise ParseError("exponent must be nonzero", tokens[at][2])
        size *= abs(k)
        if size > MAX_TERM_SIZE:
            raise ParseError(f"term has more than {MAX_TERM_SIZE} literals", tokens[at][2])
        base = atom if k > 0 else Inverse(atom)
        term = base
        for _ in range(abs(k) - 1):
            term = Product(term, base)
        return term, size, at + 1
    return atom, size, at


def _resolve(name, arity, semigroup, pos):
    m = _VARIABLE.match(name)
    if m:
        idx = int(m.group(1))
        if not 1 <= idx <= arity:
            raise ParseError(f"variable {name} out of range for arity {arity}", pos)
        return Var(idx - 1)
    try:
        return Const(semigroup.names.index(name))
    except ValueError:
        raise ParseError(f"unknown identifier {name!r}", pos) from None


def flatten(semigroup, term: Term) -> tuple:
    """Equivalent product of literals, evaluation preserved at every point:
    a nonempty tuple of element indices (constants, no two adjacent) and
    pairs (i, +1 or -1) for x_{i+1} or its inverse.  The readers of a flat
    term (evaluate, variables_of, goodterms) do not check it."""
    lits = []
    _flatten_into(semigroup, term, +1, lits)
    fused = []
    for lit in lits:
        if fused and not isinstance(lit, tuple) and not isinstance(fused[-1], tuple):
            fused[-1] = semigroup.table[fused[-1]][lit]
        else:
            fused.append(lit)
    return tuple(fused)


def _flatten_into(semigroup, term, sign, out):
    if isinstance(term, Var):
        out.append((term.index, sign))
    elif isinstance(term, Const):
        if not 0 <= term.element < semigroup.order:
            raise ValueError(f"constant {term.element} outside 0..{semigroup.order - 1}")
        out.append(term.element if sign > 0 else semigroup.inv[term.element])
    elif isinstance(term, Inverse):
        _flatten_into(semigroup, term.inner, -sign, out)
    elif isinstance(term, Product):
        if sign > 0:
            _flatten_into(semigroup, term.left, sign, out)
            _flatten_into(semigroup, term.right, sign, out)
        else:
            _flatten_into(semigroup, term.right, sign, out)
            _flatten_into(semigroup, term.left, sign, out)
    else:
        raise TypeError(f"not a term: {term!r}")


def variables_of(term) -> frozenset[int]:
    if isinstance(term, tuple):
        return frozenset(lit[0] for lit in term if isinstance(lit, tuple))
    if isinstance(term, Var):
        return frozenset((term.index,))
    if isinstance(term, Const):
        return frozenset()
    if isinstance(term, Inverse):
        return variables_of(term.inner)
    if isinstance(term, Product):
        return variables_of(term.left) | variables_of(term.right)
    raise TypeError(f"not a term: {term!r}")


def _check_points(semigroup, points) -> None:
    """ValueError unless the points (a collection, read more than once)
    share one arity and every coordinate is an element index 0..|S|-1.
    min and max test the range at C level; the first point out of range, in
    iteration order, is named before a mixed arity is reported."""
    order = semigroup.order
    if (min(chain.from_iterable(points), default=0) < 0
            or max(chain.from_iterable(points), default=0) >= order):
        bad = next(p for p in points if not all(0 <= c < order for c in p))
        raise ValueError(f"point {bad} has a coordinate outside 0..{order - 1}")
    arities = set(map(len, points))
    if len(arities) > 1:
        raise ValueError(f"points of mixed arity: {sorted(arities)}")


def evaluate(semigroup, term, point) -> int:
    """Value of a Term or flat term at a point (tuple of element indices);
    ValueError when a coordinate lies outside 0..|S|-1, or when a Term has
    a constant outside it.  A flat term is folded a literal at a time, left
    to right."""
    order = semigroup.order
    for c in point:
        if not 0 <= c < order:
            raise ValueError(f"point {point} has a coordinate outside 0..{order - 1}")
    if not isinstance(term, tuple):
        return _evaluate_ast(semigroup, term, point)
    table, inv = semigroup.table, semigroup.inv
    value = None
    for lit in term:
        if isinstance(lit, tuple):
            index, sign = lit
            if index >= len(point):
                raise ValueError(f"term uses x{index + 1} but the point has arity {len(point)}")
            x = point[index] if sign > 0 else inv[point[index]]
        else:
            x = lit
        value = x if value is None else table[value][x]
    return value


def _values_at(semigroup, term: Term, points: list) -> list[int]:
    """The term's value at each of points (a list of points in range, of
    one arity that covers the term's variables, as an Equation's does),
    from one walk of the Term tree over all of them; no flat term is built.
    As in flatten, a constant outside 0..|S|-1 is a ValueError and anything
    but a Term, a flat term included, a TypeError."""
    if isinstance(term, Var):
        return list(map(itemgetter(term.index), points))
    if isinstance(term, Const):
        if not 0 <= term.element < semigroup.order:
            raise ValueError(f"constant {term.element} outside 0..{semigroup.order - 1}")
        return [term.element] * len(points)
    if isinstance(term, Inverse):
        return list(map(semigroup.inv.__getitem__, _values_at(semigroup, term.inner, points)))
    if isinstance(term, Product):
        left = _values_at(semigroup, term.left, points)
        right = _values_at(semigroup, term.right, points)
        return list(map(getitem, map(semigroup.table.__getitem__, left), right))
    raise TypeError(f"not a term: {term!r}")


def _evaluate_ast(semigroup, term, point):
    if isinstance(term, Var):
        if term.index >= len(point):
            raise ValueError(
                f"term uses x{term.index + 1} but the point has arity {len(point)}"
            )
        return point[term.index]
    if isinstance(term, Const):
        element = term.element
        if 0 <= element < len(semigroup.table):  # not the order property: once per point
            return element
        raise ValueError(f"constant {element} outside 0..{semigroup.order - 1}")
    if isinstance(term, Inverse):
        return semigroup.inv[_evaluate_ast(semigroup, term.inner, point)]
    if isinstance(term, Product):
        return semigroup.table[
            _evaluate_ast(semigroup, term.left, point)
        ][_evaluate_ast(semigroup, term.right, point)]
    raise TypeError(f"not a term: {term!r}")


def term_text(semigroup, term: Term) -> str:
    """Canonical flattened rendering of a Term, e.g. 'e x2^-1 f x1'."""
    parts = []
    for lit in flatten(semigroup, term):
        if not isinstance(lit, tuple):
            parts.append(semigroup.names[lit])
        elif lit[1] > 0:
            parts.append(f"x{lit[0] + 1}")
        else:
            parts.append(f"x{lit[0] + 1}^-1")
    return " ".join(parts)


def all_points(order: int, arity: int):
    return _cartesian(range(order), repeat=arity)


class CloneResult(Value):
    functions: tuple[tuple[int, ...], ...]  # value tables in orbit order
    complete: bool
    order: int
    arity: int

    @cached_property
    def tables(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.functions)


def _gather(indices: tuple[int, ...]) -> itemgetter:
    """itemgetter over indices that returns a tuple for any count: a bare
    itemgetter returns the value itself for one index and fails for none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


def _multipliers(semigroup, literals, length: int):
    """Right multiplication of the orbit vectors of the length, one C call
    per product.  Returns (encode, right, flats, times): encode turns a
    column of elements into a vector, right[c] and flats[j] are the
    operands of the constant c and of the column literals[j], and
    times(v, constant_ops, literal_ops) is the pair of iterators of v times
    each operand of the two lists.

    While |S| <= 256 a vector is bytes whose coordinate i holds the code
    (i mod k) |S| + a of its element a, k = 256 // |S|; v c is
    v.translate(right[c]) (semigroup._right_codes).  flats[j] holds the
    code of a literals[j][i] at i |S| + a: in one chunk of k coordinates a
    translate table, slice i |S| of each right[literals[j][i]] padded to 256,
    else gathered at the indices v[i] + (i - i mod k) |S| and wrapped in
    bytes.  Above 256 a vector is a tuple of elements and both products are
    gathers, as with k = 1.  A code is a bijection on each coordinate, so no
    orbit order, vector count or answer depends on the encoding.
    """
    order = semigroup.order
    chunk = max(256 // order, 1)
    shifts = [i % chunk * order for i in range(length)]
    offsets = [i * order - shift for i, shift in enumerate(shifts)]
    right = semigroup._right
    if order > 256 or length > chunk:
        flats = [tuple(s + x for s, c in zip(shifts, g) for x in right[c]) for g in literals]
    if order > 256:
        def times(v, constant_ops, literal_ops):
            gather = _gather(tuple(map(add, offsets, v)))
            return map(_gather(v), constant_ops), map(gather, literal_ops)

        return tuple, right, flats, times
    codes = semigroup._right_codes
    if length <= chunk:
        flats = [b"".join([codes[c][s:s + order] for s, c in zip(shifts, g)])
                 + bytes(256 - order * length) for g in literals]

        def times(v, constant_ops, literal_ops):
            return map(v.translate, constant_ops), map(v.translate, literal_ops)
    else:
        def times(v, constant_ops, literal_ops):
            gather = _gather(tuple(map(add, offsets, v)))
            return map(v.translate, constant_ops), map(bytes, map(gather, literal_ops))

    def encode(column):
        return bytes(map(add, shifts, column))

    return encode, codes, flats, times


def term_values(semigroup, coords, excluded=()):
    """Term-function values on coords (a nonempty list of points of one
    arity), keyed on Y, all coordinates but the last len(excluded): each
    vector whose Y part is new, in orbit order.  First come the generator
    columns without repeats, the constants 0..|S|-1 then x1, x1^-1, x2,
    x2^-1, ...; then each right product v g, with v in the order kept and g
    in generator order.  Every flattened term is a product of these
    literals, so right products reach every term function.  A vector is
    encoded as _multipliers says: bytes of codes while |S| <= 256, whose
    codes mod |S| are the values, else a tuple of the values.  With no
    candidates every distinct vector is kept, the values on Y = coords.

    The last len(excluded) coordinates are candidate points, and excluded
    (a list of flags, one per candidate, all unset) is set where they fall
    out: a product whose Y part was kept before with other values at some
    open candidates sets their flags, since two term functions agree on Y
    and differ there.  A product found before is passed over, its
    comparison made.  The orbit stops once every flag is set.  A candidate
    left unset lies in the closure of Y: the kept vector of each Y part
    then fixes its value there, t|Y -> t(q) is a map, and every product of
    a kept vector agrees with it (Bulatov, Mayr and Steindl, IJAC 2016).

    A vector w first kept as u c, for a constant c, is multiplied by the
    literals alone: only a vector multiplied by every generator reaches
    another through a constant, so u was, and w d = u (c d) on every
    coordinate, a product already found and compared.  A constant root
    times d is again a constant root, so the constant roots are flagged
    too.
    """
    inv = semigroup.inv
    order = semigroup.order
    generators = [(c,) * len(coords) for c in range(order)]
    for i in range(len(coords[0])):
        generators += [tuple(p[i] for p in coords), tuple(inv[p[i]] for p in coords)]
    generators = list(dict.fromkeys(generators))  # keeps the |S| constants first
    encode, right, flats, times = _multipliers(semigroup, generators[order:], len(coords))
    y = len(coords) - len(excluded)
    candidates = range(len(excluded))  # those still open, and their coordinates
    at = _gather(tuple(range(y, len(coords))))
    seen = set()  # every product, so that a repeat costs one lookup
    kept = {}  # the first vector of each Y part
    values, by_constant = [], []
    # values and by_constant grow while they are iterated: the worklist,
    # after one batch of the roots, which count as products by constants
    # while j < |S|
    batches = chain(
        [(map(encode, generators), 0)],
        ((chain(*times(v, () if flagged else right, flats)), order if flagged else 0)
         for v, flagged in zip(values, by_constant)),
    )
    for products, start in batches:
        for j, product in enumerate(products, start):
            if product in seen:
                continue
            seen.add(product)
            key = product[:y]
            first = kept.get(key)
            if first is None:
                kept[key] = product
                values.append(product)
                by_constant.append(j < order)
                yield product
                continue
            before, after = at(first), at(product)
            if before != after:  # else they differ at excluded candidates only
                for k, a, b in zip(candidates, before, after):
                    excluded[k] = a != b
                candidates = [k for k in candidates if not excluded[k]]
                if not candidates:
                    return
                at = _gather(tuple(y + k for k in candidates))


def clone_closure(semigroup, arity: int, max_cells: int = DEFAULT_MAX_CELLS) -> CloneResult:
    """All n-ary term functions as value tables on S^n: the orbit of
    term_values over all_points(|S|, n).

    The orbit stops after max_cells // |S|^n tables; if more would follow,
    the result is flagged incomplete and callers must treat downstream
    answers as unknown rather than negative.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    order = semigroup.order
    limit = max_cells // order ** arity
    orbit = term_values(semigroup, list(all_points(order, arity)))
    # codes mod |S| are the values, in either encoding
    functions = tuple(tuple(map(order.__rmod__, v)) for v in islice(orbit, limit + 1))
    return CloneResult(functions[:limit], len(functions) <= limit, order, arity)
