"""Algebraic geometry over a finite inverse semigroup.

Solution sets of equation systems, the algebraic-closure operator, and the
certificates showing that a finite inverse semigroup which is not a group is
not an equational domain (some finite union of algebraic sets fails to be
algebraic; the checks below exhibit and re-verify an explicit witness point).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .semigroup import (
    FiniteInverseSemigroup,
    incomparable_pairs,
    is_chain,
    is_group,
    natural_order,
)
from .terms import (
    DEFAULT_MAX_CELLS,
    Const,
    Term,
    Var,
    all_points,
    clone_closure,
    evaluate,
    flatten,
    point_index,
    variables_of,
)

MAX_POINTS = 20_000


class BoundExceededError(ValueError):
    """More points, or longer points, than the bound allows; required is how
    many points, or None past 2^64."""

    def __init__(self, message: str, required: int | None):
        self.required = required
        super().__init__(message)


class CertificateError(RuntimeError):
    """A certificate failed re-validation."""


def _check_bound(what: str, order: int, arity: int) -> None:
    # a count past 2^64 is neither computed nor printed: at a large arity
    # that would take more time and memory than the bound is there to save
    huge = (order.bit_length() - 1) * arity > 64
    total = None if huge else order ** arity
    if huge or total > MAX_POINTS:
        count = "more than 2^64" if huge else total
        raise BoundExceededError(
            f"{what} over arity {arity} needs {count} points, bound is {MAX_POINTS}",
            required=total,
        )
    # only a one-element S passes the count above at such an arity, and its
    # one point still has arity coordinates
    if arity > MAX_POINTS:
        raise BoundExceededError(
            f"{what} over arity {arity} needs points of {arity} coordinates, "
            f"bound is {MAX_POINTS}",
            required=total,
        )


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    arity: int

    def __post_init__(self) -> None:
        used = variables_of(self.lhs) | variables_of(self.rhs)
        if any(i >= self.arity for i in used):
            raise ValueError(f"equation uses x{max(used) + 1} but has arity {self.arity}")


@dataclass(frozen=True)
class EquationSystem:
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


@dataclass(frozen=True)
class PointSet:
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


def solution_set(sg: FiniteInverseSemigroup, system: EquationSystem) -> PointSet:
    """All points of S^arity satisfying every equation, by direct evaluation.

    Raises BoundExceededError before evaluating anything when S^arity has
    more than MAX_POINTS points, or the arity itself exceeds MAX_POINTS.
    """
    _check_bound("solution set", sg.order, system.arity)
    flat = [
        (flatten(sg, eq.lhs), flatten(sg, eq.rhs)) for eq in system.equations
    ]
    members = frozenset(
        p for p in all_points(sg.order, system.arity)
        if all(evaluate(sg, l, p) == evaluate(sg, r, p) for l, r in flat)
    )
    return PointSet(system.arity, members)


def union(a: PointSet, b: PointSet) -> PointSet:
    if a.arity != b.arity:
        raise ValueError("cannot union point sets of different arities")
    return PointSet(a.arity, a.members | b.members)


@dataclass(frozen=True)
class ClosureReport:
    points: PointSet
    exact: bool
    clone_size: int


def closure(
    sg: FiniteInverseSemigroup,
    pts: PointSet,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> ClosureReport:
    """Least algebraic superset of pts (exact only if the clone completed).

    Two term functions that agree on pts must agree on any algebraic set
    containing pts, so the closure is the set of points where every
    pts-agreeing pair still agrees.  Functions are grouped by their value
    fingerprint on pts; within each group all members must coincide.  With a
    truncated clone the constraint set is smaller, so the result is a
    superset of the true closure and only "yes, algebraic" conclusions would
    be unsound: callers get exact=False and must answer unknown.
    """
    n = pts.arity
    _check_bound("closure", sg.order, n)
    clone = clone_closure(sg, n, max_cells)
    k = len(clone.functions)
    points = all_points(sg.order, n)
    if k < 2:
        return ClosureReport(PointSet(n, frozenset(points)), clone.complete, k)
    # columns[i] holds every function's value at the i-th point
    columns = list(zip(*clone.functions))
    y_columns = [columns[point_index(sg.order, p)] for p in pts.members]
    fingerprints = zip(*y_columns) if y_columns else [()] * k
    first = {}
    first_index = [first.setdefault(fp, j) for j, fp in enumerate(fingerprints)]
    # each function's value replaced by that of the first in its group
    as_first = itemgetter(*first_index)
    members = frozenset(p for p, column in zip(points, columns) if as_first(column) == column)
    return ClosureReport(PointSet(n, members), clone.complete, k)


@dataclass(frozen=True)
class AlgebraicVerdict:
    status: str  # "yes" | "no" | "unknown"
    witness: tuple[int, ...] | None
    report: ClosureReport


def is_algebraic(
    sg: FiniteInverseSemigroup,
    pts: PointSet,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> AlgebraicVerdict:
    """Is pts the solution set of some system?  "no" carries a witness point
    of closure(pts) minus pts; an inexact closure answers "unknown"."""
    report = closure(sg, pts, max_cells=max_cells)
    if not report.exact:
        return AlgebraicVerdict("unknown", None, report)
    if report.points.members == pts.members:
        return AlgebraicVerdict("yes", None, report)
    witness = min(report.points.members - pts.members)
    return AlgebraicVerdict("no", witness, report)


@dataclass(frozen=True)
class Unknown:
    """A check that could not finish within bounds; never a negative answer."""

    reason: str


@dataclass(frozen=True)
class Certificate:
    """Recheckable evidence for one verdict.

    Kinds: the witness kinds of WITNESS_KINDS (IncomparableWitness,
    ChainWitness, RosenblattWitness) carry a union of two solution sets plus
    a witness point that lies in the closure of the union but not in the
    union; ZeroPresent records an absorbing zero (a semigroup with zero is
    never an equational domain, a known result cited rather than re-proved
    here); GroupOutOfScope records that the semigroup is a group, for which
    this tool makes no claim either way.  The last four fields are None on
    the two cited kinds.
    """

    kind: str
    semigroup: str
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
        f"semigroup: {cert.semigroup}",
        f"idempotents: {idem}",
        f"union: {union_text}",
        f"witness: {witness}",
        f"closure-size: {size}",
        f"exact: {exact}",
    ])


@dataclass(frozen=True)
class WitnessKind:
    """One way to show that a union of two solution sets is not algebraic.

    choices lists every idempotent tuple the kind may name, least first, and
    is empty when the kind does not apply; equations gives the two equations
    whose solution sets form the union; witness gives the point proved to lie
    in the closure of the union but not in it, or None when any such point
    will do (the least is reported); subject is what the point-bound message
    names.
    """

    subject: str
    choices: Callable[[FiniteInverseSemigroup], tuple[tuple[int, ...], ...]]
    equations: Callable[[FiniteInverseSemigroup, tuple[int, ...]], tuple[Equation, Equation]]
    witness: Callable[[FiniteInverseSemigroup, tuple[int, ...]], tuple[int, ...] | None]


def _chain_extremes(sg: FiniteInverseSemigroup) -> tuple[tuple[int, int], ...]:
    if is_group(sg) or not is_chain(sg):
        return ()
    order = natural_order(sg)
    return (order.maximal() + order.minimal(),)


WITNESS_KINDS: dict[str, WitnessKind] = {
    "IncomparableWitness": WitnessKind(
        subject="closure",
        choices=incomparable_pairs,
        equations=lambda sg, ef: (
            Equation(Var(0), Const(ef[0]), 1), Equation(Var(0), Const(ef[1]), 1)
        ),
        witness=lambda sg, ef: (sg.table[ef[0]][ef[1]],),
    ),
    "ChainWitness": WitnessKind(
        subject="closure",
        choices=_chain_extremes,
        equations=lambda sg, tb: (
            Equation(Var(0), Const(tb[0]), 2), Equation(Var(1), Const(tb[0]), 2)
        ),
        witness=lambda sg, tb: (tb[1], tb[1]),
    ),
    "RosenblattWitness": WitnessKind(
        subject="rosenblatt union",
        choices=lambda sg: ((),),
        equations=lambda sg, _: (Equation(Var(0), Var(1), 4), Equation(Var(2), Var(3), 4)),
        witness=lambda sg, _: None,
    ),
}


def _union_of(sg, equations) -> PointSet:
    a, b = (solution_set(sg, EquationSystem((eq,))) for eq in equations)
    return union(a, b)


def _witness_certificate(
    sg: FiniteInverseSemigroup, kind_name: str, max_cells: int
) -> Certificate | Unknown | None:
    """The certificate of one witness kind: None when the kind does not apply
    or its union is algebraic, Unknown when the bounds are too small."""
    kind = WITNESS_KINDS[kind_name]
    choices = kind.choices(sg)
    if not choices:
        return None
    idem = choices[0]
    equations = kind.equations(sg, idem)
    arity = equations[0].arity
    try:
        _check_bound(kind.subject, sg.order, arity)
    except BoundExceededError as exc:
        return Unknown(str(exc))
    # called as closure() calls it, so that closure() finds it in the cache
    if not clone_closure(sg, arity, max_cells).complete:
        return Unknown("clone truncated; closure is not exact")
    u = _union_of(sg, equations)
    report = closure(sg, u, max_cells=max_cells)
    extra = report.points.members - u.members
    witness = kind.witness(sg, idem)
    if witness is None:
        if not extra:
            return None
        witness = min(extra)
    elif witness not in extra:
        raise CertificateError(f"{kind_name} failed its membership facts")
    return Certificate(
        kind_name, sg.label, idem, u, witness,
        closure_size=len(report.points.members), exact=True,
    )


def lemma4_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Certificate from an incomparable idempotent pair, or None on a chain.

    For incomparable idempotents e, f the product ef satisfies every equation
    that holds on all of V(x1=e) union V(x1=f), so ef lies in the closure of
    that union while ef is neither e nor f: the union is not algebraic.
    """
    return _witness_certificate(sg, "IncomparableWitness", max_cells)


def lemma5_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Certificate from a two-element chain e > f, or None for groups and
    non-chains.

    With e the top of the chain and f the minimum, the pair (f, f) satisfies
    every equation holding on all of V(x1=e) union V(x2=e) in S^2, yet lies
    in neither part: that union is not algebraic either.
    """
    return _witness_certificate(sg, "ChainWitness", max_cells)


def rosenblatt_check(
    sg: FiniteInverseSemigroup, *, max_cells: int = DEFAULT_MAX_CELLS
) -> Certificate | Unknown | None:
    """Is the union {x1=x2} or {x3=x4} in S^4 algebraic?  None when it is
    (e.g. over the trivial group); a certificate with the least witness point
    when it is not, which is the expected outcome for every inverse
    non-group."""
    return _witness_certificate(sg, "RosenblattWitness", max_cells)


@dataclass(frozen=True)
class Verdict:
    semigroup: str
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
    if is_group(sg):
        (e,) = sg.idempotents
        cert = Certificate("GroupOutOfScope", sg.label, (e,))
        return Verdict(sg.label, "GroupOutOfScope", (cert,), ())

    certificates = []
    truncated = []
    if sg.zero is not None:
        certificates.append(Certificate("ZeroPresent", sg.label, (sg.zero,)))
    # lemma4 applies exactly when the idempotents are not a chain
    computed = lemma4_check(sg, max_cells=max_cells)
    if computed is None:
        computed = lemma5_check(sg, max_cells=max_cells)
    if isinstance(computed, Certificate):
        certificates.append(computed)
    elif isinstance(computed, Unknown):
        truncated.append(computed.reason)
    return Verdict(sg.label, "NotED", tuple(certificates), tuple(truncated))


def validate_certificate(
    sg: FiniteInverseSemigroup,
    cert: Certificate,
    *,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> None:
    """Recheck a certificate from scratch; raises CertificateError on any gap.

    Witness kinds recheck that the kind may name the recorded idempotents,
    recompute the union and its closure, and re-verify the witness rule and
    the membership facts; ZeroPresent re-verifies the absorbing law; and
    GroupOutOfScope re-verifies the single idempotent.
    """
    if cert.kind == "GroupOutOfScope":
        if not is_group(sg):
            raise CertificateError("GroupOutOfScope on a non-group")
        if set(cert.idempotents) != set(sg.idempotents):
            raise CertificateError("GroupOutOfScope does not name the idempotent")
        return
    if cert.kind == "ZeroPresent":
        if len(cert.idempotents) != 1:
            raise CertificateError("ZeroPresent must name exactly the zero")
        z = cert.idempotents[0]
        if sg.zero != z:
            raise CertificateError("ZeroPresent element is not the absorbing zero")
        for s in range(sg.order):
            if sg.table[z][s] != z or sg.table[s][z] != z:
                raise CertificateError("zero law fails")
        return
    kind = WITNESS_KINDS.get(cert.kind)
    if kind is None:
        raise CertificateError(f"unknown certificate kind {cert.kind!r}")
    if cert.idempotents not in kind.choices(sg):
        raise CertificateError(f"{cert.kind} cannot name these idempotents")
    expected_union = _union_of(sg, kind.equations(sg, cert.idempotents))
    if cert.union is None or cert.union.members != expected_union.members:
        raise CertificateError("recorded union does not match its definition")
    rule = kind.witness(sg, cert.idempotents)
    if rule is not None and cert.witness != rule:
        raise CertificateError("witness does not follow the rule of its kind")
    report = closure(sg, expected_union, max_cells=max_cells)
    if not report.exact:
        raise CertificateError("closure no longer exact under the given bounds")
    if cert.witness in expected_union.members:
        raise CertificateError("witness lies inside the union")
    if cert.witness not in report.points.members:
        raise CertificateError("witness is not in the closure of the union")
    if cert.closure_size != len(report.points.members):
        raise CertificateError("recorded closure size does not match")
    if cert.exact is not True:
        raise CertificateError("witness certificates must record exact=true")


def validate_verdict(
    sg: FiniteInverseSemigroup, verdict: Verdict, *, max_cells: int = DEFAULT_MAX_CELLS
) -> None:
    for cert in verdict.certificates:
        validate_certificate(sg, cert, max_cells=max_cells)
