"""Algebraic geometry over a finite inverse semigroup.

Solution sets of equation systems, the algebraic-closure operator, and the
certificates showing that a finite inverse semigroup which is not a group is
not an equational domain (some finite union of algebraic sets fails to be
algebraic; the checks below exhibit and re-verify an explicit witness point).
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, combinations, compress, product as _cartesian, repeat
from operator import eq as equal, itemgetter, or_

from ._value import Value
from .semigroup import (
    FiniteInverseSemigroup,
    incomparable_pairs,
    is_chain,
    is_group,
    natural_order,
)
from .terms import (
    DEFAULT_MAX_CELLS,
    _IDENT,
    _VARIABLE,
    Term,
    _check_points,
    _gather,
    _multipliers,
    _values_at,
    all_points,
    parse,
    term_text,
    term_values,
    variables_of,
)

MAX_POINTS = 20_000


class BoundExceededError(ValueError):
    """More points, or longer points, than the bound allows."""


class CertificateError(RuntimeError):
    """A certificate failed re-validation."""


def _check_bound(what: str, order: int, arity: int) -> None:
    # a count past 2^64 is printed as "more than 2^64"; the first test keeps
    # a large power from being computed, and once it passes the count is
    # below 2^128
    huge = (order.bit_length() - 1) * arity > 64 or order ** arity > 2 ** 64
    if huge or order ** arity > MAX_POINTS:
        count = "more than 2^64" if huge else order ** arity
        raise BoundExceededError(
            f"{what} over arity {arity} needs {count} points, bound is {MAX_POINTS}"
        )
    # only a one-element S passes the count above at such an arity, and its
    # one point still has arity coordinates
    if arity > MAX_POINTS:
        raise BoundExceededError(
            f"{what} over arity {arity} needs points of {arity} coordinates, "
            f"bound is {MAX_POINTS}"
        )


class Equation(Value):
    lhs: Term
    rhs: Term
    arity: int

    def __post_init__(self) -> None:
        used = variables_of(self.lhs) | variables_of(self.rhs)
        if any(i >= self.arity for i in used):
            raise ValueError(f"equation uses x{max(used) + 1} but has arity {self.arity}")


class EquationSystem(Value):
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        if not self.equations:
            raise ValueError("a system needs at least one equation")
        arities = {eq.arity for eq in self.equations}
        if len(arities) != 1:
            raise ValueError(f"mixed arities in one system: {sorted(arities)}")

    @property
    def arity(self) -> int:
        return self.equations[0].arity


def equation_text(sg: FiniteInverseSemigroup, eq: Equation) -> str:
    """An equation as 'LHS = RHS', each side as term_text renders it."""
    return f"{term_text(sg, eq.lhs)} = {term_text(sg, eq.rhs)}"


def parse_equations(sg: FiniteInverseSemigroup, texts, arity: int | None = None) -> EquationSystem:
    """The system of texts, each 'LHS = RHS' with both sides read by parse,
    at the given arity or else the largest K of the variables xK, at least
    1.  ValueError for an equation with other than one '=', all checked
    before any side is parsed; then the first side's ParseError."""
    sides = []
    for text in texts:
        if text.count("=") != 1:
            raise ValueError(f"equation must contain exactly one '=': {text!r}")
        sides.append(text.split("="))
    if arity is None:  # the identifiers as the term lexer reads them
        found = map(_VARIABLE.match, _IDENT.findall(" ".join(chain.from_iterable(sides))))
        arity = max([1, *(int(m[1]) for m in found if m)])
    return EquationSystem(tuple(
        Equation(parse(lhs, arity, sg), parse(rhs, arity, sg), arity) for lhs, rhs in sides))


class PointSet(Value):
    arity: int
    members: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        for p in self.members:
            if len(p) != self.arity:
                raise ValueError(f"point {p} does not have arity {self.arity}")

    def sorted_members(self) -> list[tuple[int, ...]]:
        return sorted(self.members)


def point_text(sg: FiniteInverseSemigroup, p: tuple[int, ...]) -> str:
    """A point as element names, e.g. '(e,f)'."""
    return "(" + ",".join(sg.names[i] for i in p) + ")"


def parse_point(sg: FiniteInverseSemigroup, text: str) -> tuple[int, ...]:
    """The point that point_text prints as text, which may also drop the
    parentheses or space its names.  ValueError for an empty point or
    coordinate, SemigroupError for a name that is not an element."""
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    names = [nm.strip() for nm in inner.split(",")]
    if names == [""]:
        raise ValueError(f"empty point: {text!r}")
    if "" in names:
        raise ValueError(f"empty coordinate in point: {text!r}")
    return tuple(map(sg.index, names))


def solution_set(sg: FiniteInverseSemigroup, system: EquationSystem) -> PointSet:
    """All points of S^arity satisfying every equation, by direct evaluation.

    Raises BoundExceededError before evaluating anything when S^arity has
    more than MAX_POINTS points, or the arity itself exceeds MAX_POINTS.
    """
    _check_bound("solution set", sg.order, system.arity)
    points = list(all_points(sg.order, system.arity))
    # each equation narrows the points left
    for eq in system.equations:
        points = list(compress(points, _holds(sg, eq, points)))
    return PointSet(system.arity, frozenset(points))


def _holds(sg: FiniteInverseSemigroup, eq: Equation, points: list):
    """Whether eq holds at each of points, each side's Term tree walked
    once over all of them (_values_at), with no flattening."""
    lhs, rhs = (_values_at(sg, t, points) for t in (eq.lhs, eq.rhs))
    return map(equal, lhs, rhs)


class ClosureReport(Value):
    points: PointSet
    exact: bool


def _generator_values(sg: FiniteInverseSemigroup, q: tuple[int, ...]) -> tuple[int, ...]:
    """The clone's generators at point q: x1, x1^-1, ..., xn, xn^-1, then the
    constants of S's irredundant semigroup generating set.  Every constant,
    inverses included, is a product of those, so these generators have the
    same products as the literals with all of S.  That set is inverse-closed
    and (uv)^-1 = v^-1 u^-1, so the products are the whole clone: inversion
    needs no extra generator."""
    inv = sg.inv
    return (*(v for c in q for v in (c, inv[c])), *sg.generating_set)


def _subpower(sg: FiniteInverseSemigroup, arity: int, ys: list, max_cells: int):
    """B, the subalgebra of S^ys generated by the generators' columns, as its
    right Cayley graph; None once |B| * |ys| would exceed max_cells.

    Returns (roots, parents, steps): roots[j] is the vector of generator j;
    parents lists the other vectors in orbit order, each as the (parent
    vector, generator) whose product first reached it, so a parent always
    comes before its child; steps holds one (generator, pick) pair per root,
    for the first generator with that root, where pick selects, from any
    list indexed by vector, the entries of every vector times that generator.
    Generators with equal columns give equal products, so a product by a
    later one is never new and is not taken.
    """
    literals = 2 * arity
    width = literals + len(sg.generating_set)
    columns = list(zip(*(_generator_values(sg, y) for y in ys))) or [()] * width
    first: dict[tuple[int, ...], int] = {}  # each distinct column's root
    roots = [first.setdefault(column, len(first)) for column in columns]
    if len(first) * len(ys) > max_cells:
        return None
    parents: list[tuple[int, int]] = []
    steps: list[tuple[int, list[int]]] = [(roots.index(r), []) for r in range(len(first))]
    # steps run in generator order, the literals' first
    encode, right, flats, times = _multipliers(
        sg, [columns[j] for j, _ in steps if j < literals], len(ys)
    )
    constants = [right[sg.generating_set[j - literals]] for j, _ in steps if j >= literals]
    vectors = list(map(encode, first))
    index = {vector: v for v, vector in enumerate(vectors)}
    # vectors grows while it is iterated: the worklist, in orbit order
    for v, vector in enumerate(vectors):
        by_constants, by_literals = times(vector, constants, flats)
        products = chain(by_literals, by_constants)
        for (j, step), product in zip(steps, products):
            w = index.get(product)
            if w is None:
                w = len(vectors)
                if (w + 1) * len(ys) > max_cells:
                    return None
                index[product] = w
                vectors.append(product)
                parents.append((v, j))
            step.append(w)
    return roots, parents, [(j, itemgetter(*step)) for j, step in steps]


def _extends_to(sg: FiniteInverseSemigroup, graph, q: tuple[int, ...]) -> bool:
    """Does t|ys -> t(q) define a map phi on B?  phi is built in orbit order,
    each vector from its parent, and must agree at every generator and on
    every edge: phi(v g) = phi(v) g(q).  The root check runs over every
    generator, so once it passes, generators that share a root also agree at
    q and their edges are those of the first one, the only ones checked."""
    roots, parents, steps = graph
    at_q = _generator_values(sg, q)
    phi: list = [None] * (max(roots) + 1)
    for r, value in zip(roots, at_q):
        if phi[r] not in (None, value):
            return False
        phi[r] = value
    table = sg.table
    for v, j in parents:  # each parent precedes its child, so phi[v] is set
        phi.append(table[phi[v]][at_q[j]])
    right = sg._right
    times = itemgetter(*phi)  # times(right[g]) is phi(v) g for every v
    return all(step(phi) == times(right[at_q[j]]) for j, step in steps)


def closure(
    sg: FiniteInverseSemigroup,
    pts: PointSet,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ClosureReport:
    """Least algebraic superset of pts, decided inside S^pts.

    Two term functions that agree on pts agree on every algebraic set
    containing pts, so a point q lies in the closure exactly when t|pts ->
    t(q) is a well-defined map on B, the subalgebra of S^pts of the term
    functions' restrictions (subpower membership; Bulatov, Mayr and Steindl,
    IJAC 2016).  B is built once; each point decided costs one pass over its
    graph.  Only the recheck's points, those of _candidates, are decided, in
    one loop: a coordinate permutation mapping pts onto itself maps the
    closure and the candidates onto themselves, so only the first candidate
    of each orbit of the swaps fixing pts (see _swap_blocks) is decided.
    When B would exceed max_cells cells (vectors times |pts|) every point
    is kept and exact=False: a superset of the true closure, so only "yes,
    algebraic" would be unsound and callers must answer unknown.
    """
    n = pts.arity
    _check_bound("closure", sg.order, n)
    _check_points(sg, pts.members)
    graph = _subpower(sg, n, sorted(pts.members), max_cells)
    if graph is None:
        return ClosureReport(PointSet(n, frozenset(all_points(sg.order, n))), False)
    # q and its coordinates sorted within each block share one answer
    gathers = [_gather(block) for block in _swap_blocks(pts.members, n)]
    answers: dict[tuple[int, ...], bool] = {}
    members = set(pts.members)
    for q in _candidates(sg, pts.members, n):
        key = tuple(chain.from_iterable(sorted(g(q)) for g in gathers))
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = _extends_to(sg, graph, q)
        if answer:
            members.add(q)
    return ClosureReport(PointSet(n, frozenset(members)), True)


def _swap_blocks(members: frozenset, arity: int) -> list[tuple[int, ...]]:
    """The coordinates as blocks, each ascending, joined by the swaps (i j)
    that map members onto itself; singletons when no swap does.  Swaps
    generate every permutation within each block, and each one maps members,
    so its closure, onto itself: for such a permutation s, a term function t
    and t with its variables permuted by s agree on members together.  A
    swap inside a block already joined is not tested."""
    block = list(range(arity))  # block[i]: the least coordinate joined to i
    for i, j in combinations(range(arity), 2):
        if block[i] == block[j]:
            continue
        swapped = list(range(arity))
        swapped[i], swapped[j] = j, i
        # a swap is a bijection, so an image inside members is all of it
        if members.issuperset(map(itemgetter(*swapped), members)):
            low, high = sorted((block[i], block[j]))
            block = [low if b == high else b for b in block]
    return [tuple(i for i in range(arity) if block[i] == b) for b in sorted(set(block))]


def in_subpower_closure(
    sg: FiniteInverseSemigroup,
    ys: frozenset[tuple[int, ...]],
    p: tuple[int, ...],
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> bool | None:
    """Does p lie in the closure of ys?  None when the subalgebra outgrows
    max_cells cells (vectors times |ys|); ValueError when ys and p do not
    share one arity or a coordinate lies outside 0..|S|-1.

    A check of one point kept apart from closure(): the term_values orbit
    over ys + [p] with p the one candidate.  The first product that agrees
    with a kept vector on ys but not at p answers False.
    """
    _check_points(sg, [*ys, p])
    members = _closure_members(sg, sorted(ys), [p], max_cells)
    return None if members is None else bool(members)


def _closure_members(sg: FiniteInverseSemigroup, ys: list, candidates: list, max_cells: int):
    """The candidates that lie in the closure of ys, in their order, by one
    term_values orbit over ys + candidates; None when B, the vectors kept
    (one per ys part), would exceed max_cells cells (vectors times |ys|),
    the place where closure() gives up too.  The orbit stops early once
    every candidate is out, so it may answer where closure() would not."""
    limit = max_cells // len(ys) if ys else 1  # with no ys, B is one empty vector
    kept, still_open = term_values(sg, ys + candidates, len(candidates), limit)
    return None if len(kept) > limit else [candidates[k] for k in still_open]


def _candidates(sg: FiniteInverseSemigroup, members: frozenset, arity: int) -> list:
    """The points that closure() and _recheck_closure decide, in lexicographic
    order, and the one owner of the rule: those outside members that satisfy
    x_k x_k = x_k at every coordinate k where every member is idempotent.
    That equation holds on members, so on its closure."""
    table = sg.table
    idempotents = [a for a in range(sg.order) if table[a][a] == a]
    ranges = [
        idempotents if all(table[p[k]][p[k]] == p[k] for p in members) else range(sg.order)
        for k in range(arity)
    ]
    return [q for q in _cartesian(*ranges) if q not in members]


def _recheck_closure(sg: FiniteInverseSemigroup, members: frozenset, arity: int, max_cells: int):
    """The closure of members by _closure_members, apart from closure() and
    its subalgebra builder; None past the cap.  It decides the points of
    _candidates, as closure() does, with its own engine and no swap orbits."""
    kept = _closure_members(sg, sorted(members), _candidates(sg, members, arity), max_cells)
    return None if kept is None else members.union(kept)


class AlgebraicVerdict(Value):
    status: str  # "yes" | "no" | "unknown"
    witness: tuple[int, ...] | None
    report: ClosureReport


def is_algebraic(
    sg: FiniteInverseSemigroup,
    pts: PointSet,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> AlgebraicVerdict:
    """Is pts the solution set of some system?  "no" carries the least point
    of closure(pts) minus pts; an inexact closure answers "unknown"."""
    report = closure(sg, pts, max_cells=max_cells)
    if not report.exact:
        return AlgebraicVerdict("unknown", None, report)
    witness = min(report.points.members - pts.members, default=None)
    return AlgebraicVerdict("yes" if witness is None else "no", witness, report)


class Unknown(Value):
    """A check that could not finish within bounds; never a negative answer."""

    reason: str


class Certificate(Value):
    """Recheckable evidence for one verdict.

    Kinds are the keys of CERTIFICATE_KINDS.  The witness kinds
    (IncomparableWitness, ChainWitness, RosenblattWitness) carry a union of
    two solution sets plus a witness point that lies in the closure of the
    union but not in the union.  The cited kinds record only idempotents:
    ZeroPresent names the absorbing zero of a non-group (a semigroup with
    zero and more than one element is never an equational domain, a known
    result cited rather than re-proved here); GroupOutOfScope names the
    idempotent of a group, for which this tool makes no claim either way.
    The last four fields are None on the cited kinds.
    """

    kind: str
    idempotents: tuple[int, ...]
    union: PointSet | None = None
    witness: tuple[int, ...] | None = None
    closure_size: int | None = None
    exact: bool | None = None


def format_certificate(sg: FiniteInverseSemigroup, cert: Certificate) -> str:
    idem = ", ".join(sg.names[e] for e in cert.idempotents) if cert.idempotents else "-"
    if cert.union is None:
        union_text = "-"
    else:
        union_text = ", ".join(point_text(sg, p) for p in cert.union.sorted_members())
    witness = point_text(sg, cert.witness) if cert.witness is not None else "-"
    size = str(cert.closure_size) if cert.closure_size is not None else "-"
    exact = "-" if cert.exact is None else ("true" if cert.exact else "false")
    return "\n".join([
        f"kind: {cert.kind}",
        f"semigroup: {sg.label}",
        f"idempotents: {idem}",
        f"union: {union_text}",
        f"witness: {witness}",
        f"closure-size: {size}",
        f"exact: {exact}",
    ])


class CertificateKind(Value):
    """One way to certify a verdict.

    choices lists every idempotent tuple the kind may name, least first, and
    is empty when the kind does not apply.  A cited kind has no equations;
    its choices recheck the cited fact from the Cayley table.  A witness kind
    shows that a union of two solution sets in S^arity is not algebraic:
    equations holds the two atomic equations of the union as data, each a
    triple (i, j, c) for x_{i+1} = x_{j+1}, or x_{i+1} = idempotents[c] when
    j is None; witness gives the point proved to lie in the closure of the
    union but not in it, or None when any such point will do (the least is
    reported); subject is what the point-bound message names.
    """

    choices: Callable[[FiniteInverseSemigroup], tuple[tuple[int, ...], ...]]
    equations: tuple[tuple[int, int | None, int | None], ...] | None = None
    arity: int | None = None
    witness: Callable[[FiniteInverseSemigroup, tuple], tuple[int, ...] | None] | None = None
    subject: str = "closure"


def _zero(sg: FiniteInverseSemigroup) -> tuple[tuple[int], ...]:
    # a group has a zero only when |S| = 1, where the cited result fails;
    # the absorbing law is reread from the table
    z, table = sg.zero, sg.table
    absorbing = z is not None and all(table[z][s] == z == table[s][z] for s in range(sg.order))
    return ((z,),) if absorbing and not is_group(sg) else ()


def _chain_extremes(sg: FiniteInverseSemigroup) -> tuple[tuple[int, int], ...]:
    if is_group(sg) or not is_chain(sg):
        return ()
    order = natural_order(sg)
    return (order.maximal() + order.minimal(),)


CERTIFICATE_KINDS: dict[str, CertificateKind] = {
    "GroupOutOfScope": CertificateKind(
        choices=lambda sg: (tuple(sg.idempotents),) if is_group(sg) else (),
    ),
    "ZeroPresent": CertificateKind(choices=_zero),
    "IncomparableWitness": CertificateKind(  # x1 = e, x1 = f
        choices=incomparable_pairs,
        equations=((0, None, 0), (0, None, 1)), arity=1,
        witness=lambda sg, ef: (sg.table[ef[0]][ef[1]],),
    ),
    "ChainWitness": CertificateKind(  # x1 = t, x2 = t
        choices=_chain_extremes,
        equations=((0, None, 0), (1, None, 0)), arity=2,
        witness=lambda sg, tb: (tb[1], tb[1]),
    ),
    "RosenblattWitness": CertificateKind(  # x1 = x2, x3 = x4
        choices=lambda sg: ((),),
        equations=((0, 1, None), (2, 3, None)), arity=4,
        witness=lambda sg, _: None,
        subject="rosenblatt union",
    ),
}


def _union_of(sg: FiniteInverseSemigroup, kind: CertificateKind, idempotents: tuple) -> frozenset:
    """The points of S^arity where either of the kind's two equations holds,
    for the recorded idempotents, coordinates compared directly.
    BoundExceededError, naming kind.subject, when S^arity has more than
    MAX_POINTS points."""
    _check_bound(kind.subject, sg.order, kind.arity)
    points = list(all_points(sg.order, kind.arity))
    first, second = (
        map(equal, map(itemgetter(i), points),
            map(itemgetter(j), points) if j is not None else repeat(idempotents[c]))
        for i, j, c in kind.equations
    )
    return frozenset(compress(points, map(or_, first, second)))


def _certificate(
    sg: FiniteInverseSemigroup, kind_name: str, max_cells: int
) -> Certificate | Unknown | None:
    """The certificate of one kind, its witness unchecked: None when the kind
    does not apply or its union is algebraic, Unknown past the bounds."""
    kind = CERTIFICATE_KINDS[kind_name]
    choices = kind.choices(sg)
    if not choices:
        return None
    idem = choices[0]
    if kind.equations is None:
        return Certificate(kind_name, idem)
    try:
        union = PointSet(kind.arity, _union_of(sg, kind, idem))
    except BoundExceededError as exc:
        return Unknown(str(exc))
    report = closure(sg, union, max_cells=max_cells)
    if not report.exact:
        return Unknown("clone truncated; closure is not exact")
    closed = report.points.members
    witness = kind.witness(sg, idem) or min(closed - union.members, default=None)
    return None if witness is None else Certificate(
        kind_name, idem, union, witness, len(closed), True)


def lemma4_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Certificate from an incomparable idempotent pair, or None on a chain.

    For incomparable idempotents e, f the product ef satisfies every equation
    that holds on all of V(x1=e) union V(x1=f), so ef lies in the closure of
    that union while ef is neither e nor f: the union is not algebraic.
    """
    return _certificate(sg, "IncomparableWitness", max_cells)


def lemma5_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Certificate from a two-element chain e > f, or None for groups and
    non-chains.

    With e the top of the chain and f the minimum, the pair (f, f) satisfies
    every equation holding on all of V(x1=e) union V(x2=e) in S^2, yet lies
    in neither part: that union is not algebraic either.
    """
    return _certificate(sg, "ChainWitness", max_cells)


def rosenblatt_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Is the union {x1=x2} or {x3=x4} in S^4 algebraic?  None when it is
    (e.g. over the trivial group); a certificate with the least witness point
    when it is not, which is the expected outcome for every inverse
    non-group."""
    return _certificate(sg, "RosenblattWitness", max_cells)


class Verdict(Value):
    status: str  # "GroupOutOfScope" | "NotED"
    certificates: tuple[Certificate, ...]
    truncated: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return bool(self.certificates)


def ed_verdict(sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS) -> Verdict:
    """Equational-domain verdict.

    Groups are out of scope (their classification is a separate known
    result).  Every other inverse semigroup is not an equational domain; the
    verdict carries a zero certificate when an absorbing zero exists and a
    computed witness certificate when the closure fits the bounds.  If no
    certificate can be produced the verdict stands by the general theorem but
    is flagged as not certified at this size.
    """
    group = _certificate(sg, "GroupOutOfScope", max_cells)
    if group is not None:
        return Verdict("GroupOutOfScope", (group,), ())
    found = (
        _certificate(sg, "ZeroPresent", max_cells),
        # lemma4 applies exactly when the idempotents are not a chain
        lemma4_check(sg, max_cells=max_cells) or lemma5_check(sg, max_cells=max_cells),
    )
    certificates = tuple(c for c in found if isinstance(c, Certificate))
    truncated = tuple(c.reason for c in found if isinstance(c, Unknown))
    return Verdict("NotED", certificates, truncated)


def _same(a, b) -> bool:
    """a == b with one type throughout, through tuples, so that 16.0, True,
    [0] and (0.0,) do not match 16, 1, (0,) and (0,); the points of a
    frozenset compare by value."""
    if a is b or type(a) is not type(b) or a != b:
        return a is b  # the one object matches itself at once
    return type(a) is not tuple or all(map(_same, a, b))


def validate_certificate(
    sg: FiniteInverseSemigroup,
    cert: Certificate,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> None:
    """Rebuild the certificate that the recheck would accept and compare;
    CertificateError on any gap, a malformed field or a union past the point
    bound included.  The kind's choices must hold the recorded idempotents.
    A witness kind rebuilds its union (_union_of) and closure (one
    term_values orbit, _recheck_closure, not closure() or its subalgebra
    builder); its witness, the rule's point or else the closure's point
    equal to the recorded one, must lie in the closure but not the union.
    Then every recorded field must equal the rebuilt one, types included
    (the union's coordinates must all be int).
    """
    if not isinstance(cert, Certificate):
        raise CertificateError(f"not a certificate: {cert!r}")
    kind = CERTIFICATE_KINDS.get(cert.kind) if type(cert.kind) is str else None
    if kind is None:
        raise CertificateError(f"unknown certificate kind {cert.kind!r}")
    choices = kind.choices(sg)
    if cert.idempotents not in choices:
        raise CertificateError(f"{cert.kind} cannot name these idempotents")
    idem = choices[choices.index(cert.idempotents)]
    rebuilt = (idem, None, None, None, None)
    if kind.equations is not None:
        try:
            union = _union_of(sg, kind, idem)
        except BoundExceededError as exc:
            raise CertificateError(str(exc)) from None
        closed = _recheck_closure(sg, union, kind.arity, max_cells)
        if closed is None:
            raise CertificateError("closure no longer exact under the given bounds")
        witness = kind.witness(sg, idem) or next((p for p in closed if p == cert.witness), None)
        if witness in union:
            raise CertificateError("witness lies inside the union")
        if witness not in closed:
            raise CertificateError("witness is not in the closure of the union")
        rebuilt = (idem, (kind.arity, union, {int}), witness, len(closed), True)
    u = cert.union
    if type(u) is PointSet:  # its frozenset compares points by value; add their types
        u = (u.arity, u.members, {*map(type, chain.from_iterable(u.members))})
    recorded = (cert.idempotents, u, cert.witness, cert.closure_size, cert.exact)
    wrong = [f for f, a, b in zip(Certificate._fields[1:], recorded, rebuilt) if not _same(a, b)]
    if wrong:
        raise CertificateError(f"the rebuilt certificate differs in {', '.join(wrong)}")


def validate_verdict(
    sg: FiniteInverseSemigroup, verdict: Verdict, *, max_cells: int = DEFAULT_MAX_CELLS
) -> None:
    """Recheck the status (GroupOutOfScope exactly on a group) and every
    certificate; raises CertificateError on any gap."""
    if verdict.status != ("GroupOutOfScope" if is_group(sg) else "NotED"):
        raise CertificateError(f"status {verdict.status} does not fit this semigroup")
    for cert in verdict.certificates:
        validate_certificate(sg, cert, max_cells=max_cells)
