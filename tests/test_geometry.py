"""Solution sets, algebraic closure, and the certificate-producing checks."""

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    cyclic_with_zero,
    direct_product,
    inverse_semigroups,
    kind_equations,
    least_relabelling,
    plain_orbit,
)
from eqdom.catalog import CATALOG_NAMES, by_name, symmetric_inverse_monoid
from eqdom.geometry import (
    BoundExceededError,
    CERTIFICATE_KINDS,
    MAX_POINTS,
    Certificate,
    CertificateError,
    Equation,
    EquationSystem,
    PointSet,
    Unknown,
    Verdict,
    closure,
    ed_verdict,
    equation_text,
    format_certificate,
    in_subpower_closure,
    is_algebraic,
    lemma4_check,
    lemma5_check,
    parse_equations,
    parse_point,
    point_text,
    rosenblatt_check,
    solution_set,
    validate_certificate,
    validate_verdict,
    _recheck_closure,
    _union_of,
)
import eqdom.geometry as geometry
import eqdom.terms as terms
from eqdom.semigroup import is_group, validate
from eqdom.terms import (
    DEFAULT_MAX_CELLS, Const, ParseError, Product, Var, all_points, clone_closure, evaluate, flatten,
    parse, term_values, _evaluate_ast, _values_at,
)

C2 = by_name("chain2")
BRANDT = by_name("brandt_b2")


def _system(sg, arity, *texts):
    eqs = []
    for text in texts:
        lhs, rhs = text.split("=")
        eqs.append(Equation(parse(lhs, arity, sg), parse(rhs, arity, sg), arity))
    return EquationSystem(tuple(eqs))


def _points(arity, *pts):
    return PointSet(arity, frozenset(pts))


def test_tautology_solves_everywhere():
    sol = solution_set(C2, _system(C2, 2, "x1 = x1"))
    assert sol.members == frozenset(all_points(2, 2))


def test_var_equals_const():
    sol = solution_set(C2, _system(C2, 1, "x1 = e"))
    assert sol.members == {(0,)}


def test_idempotency_equation_over_brandt():
    sol = solution_set(BRANDT, _system(BRANDT, 1, "x1 x1 = x1"))
    assert sol.members == {(0,), (3,), (4,)}


def test_system_types_are_checked():
    with pytest.raises(ValueError, match="arity"):
        Equation(Var(1), Const(0), 1)
    with pytest.raises(ValueError, match="at least one"):
        EquationSystem(())
    with pytest.raises(ValueError, match="mixed"):
        EquationSystem((
            Equation(Var(0), Const(0), 1),
            Equation(Var(0), Const(0), 2),
        ))
    with pytest.raises(ValueError, match="arity"):
        PointSet(2, frozenset({(0,)}))
    # an Equation takes a flat term side, but solution_set walks Terms alone
    flat = flatten(C2, parse("x1 e", 1, C2))
    with pytest.raises(TypeError, match="not a term"):
        solution_set(C2, EquationSystem((Equation(flat, Var(0), 1),)))


@pytest.mark.parametrize("call, message", [
    (lambda: closure(C2, _points(1, (-1,))), "outside 0..1"),
    (lambda: is_algebraic(C2, _points(1, (-1,))), "outside 0..1"),
    (lambda: closure(C2, _points(1, (5,))), "outside 0..1"),
    (lambda: in_subpower_closure(C2, frozenset({(-1,)}), (1,)), "outside 0..1"),
    (lambda: in_subpower_closure(BRANDT, frozenset({(0,), (3,)}), (4, 1)), "mixed arity"),
    (lambda: in_subpower_closure(BRANDT, frozenset({(0,), (3, 1)}), (4,)), "mixed arity"),
    (lambda: evaluate(C2, flatten(C2, parse("x1 e", 1, C2)), (-1,)), "outside 0..1"),
    (lambda: evaluate(C2, Var(0), (-1,)), "outside 0..1"),
    (lambda: evaluate(C2, Var(0), (5,)), "outside 0..1"),
    (lambda: Equation(Var(-1), Const(0), 2), ">= 0"),
    (lambda: solution_set(C2, EquationSystem((Equation(Var(0), Const(7), 1),))), "outside 0..1"),
    (lambda: solution_set(C2, EquationSystem((Equation(Var(0), Const(-1), 1),))), "outside 0..1"),
    (lambda: evaluate(C2, Const(-1), (0,)), "constant -1 outside 0..1"),
    (lambda: evaluate(C2, Product(Const(-1), Var(0)), (0,)), "constant -1 outside 0..1"),
    (lambda: evaluate(C2, Product(Const(5), Var(0)), (0,)), "constant 5 outside 0..1"),
], ids=["closure-negative", "is-algebraic-negative", "closure-too-large", "membership-negative",
        "membership-longer-point", "membership-mixed-set", "evaluate-flat-negative",
        "evaluate-variable-negative", "evaluate-too-large", "negative-variable",
        "constant-too-large", "constant-negative", "evaluate-constant-negative",
        "evaluate-product-constant-negative", "evaluate-product-constant-too-large"])
def test_indices_outside_s_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_closure_of_singleton_and_empty_set():
    report = closure(C2, _points(1, (0,)))
    assert report.exact
    assert report.points.members == {(0,)}
    # the empty set is the solution set of e = f, so it is closed
    report = closure(C2, PointSet(1, frozenset()))
    assert report.exact
    assert report.points.members == frozenset()


def test_closure_adds_the_zero_on_brandt():
    report = closure(BRANDT, _points(1, (0,), (3,)))
    assert report.exact
    assert report.points.members == {(0,), (3,), (4,)}


def test_is_algebraic_verdicts():
    assert is_algebraic(C2, _points(1, (0,))).status == "yes"
    v = is_algebraic(BRANDT, _points(1, (0,), (3,)))
    assert v.status == "no"
    assert v.witness == (4,)
    trunc = is_algebraic(by_name("sim3"), _points(1, (0,)), max_cells=10)
    assert trunc.status == "unknown"
    assert trunc.witness is None


def test_closure_bound_exceeded():
    sim3 = by_name("sim3")
    with pytest.raises(BoundExceededError, match="needs 39304 points"):
        closure(sim3, PointSet(3, frozenset({(0, 0, 0)})))
    with pytest.raises(BoundExceededError, match="needs 39304 points"):
        solution_set(sim3, _system(sim3, 3, "x1 x2 = x3"))


def test_closure_laws_on_random_sets():
    rng = random.Random("closure-laws")
    for sg in (C2, BRANDT):
        for _ in range(25):
            arity = rng.choice((1, 2))
            pts = list(all_points(sg.order, arity))
            y = frozenset(p for p in pts if rng.random() < 0.3)
            yset = PointSet(arity, y)
            rep = closure(sg, yset)
            assert rep.exact
            assert y <= rep.points.members
            again = closure(sg, rep.points)
            assert again.points.members == rep.points.members
            z = PointSet(arity, y | frozenset(
                p for p in pts if rng.random() < 0.2
            ))
            assert rep.points.members <= closure(sg, z).points.members


def _clone_grouping_closure(sg, pts):
    """The closure from the whole clone: a point is kept unless two term
    functions that agree on pts differ there."""
    clone = clone_closure(sg, pts.arity)
    assert clone.complete
    points = list(all_points(sg.order, pts.arity))
    where = [points.index(q) for q in sorted(pts.members)]
    first = {}
    for f in clone.functions:
        first.setdefault(tuple(f[i] for i in where), f)
    return {
        q for k, q in enumerate(points)
        if all(f[k] == first[tuple(f[i] for i in where)][k] for f in clone.functions)
    }


def _seeded_sets(sg, arity, tag):
    pts = list(all_points(sg.order, arity))
    rng = random.Random(f"{tag}/{sg.label}/{arity}")
    return [PointSet(arity, frozenset(rng.sample(pts, min(size, len(pts))))) for size in range(4)]


@pytest.mark.parametrize("name, arity", [
    *((name, 1) for name in CATALOG_NAMES),
    ("brandt_b2", 2), ("chain3", 2), ("z3", 2),
])
def test_closure_matches_subpower_membership(name, arity):
    sg = by_name(name)
    pts = list(all_points(sg.order, arity))
    for y in _seeded_sets(sg, arity, "subpower"):
        report = closure(sg, y)
        assert report.exact
        expected = {p for p in pts if in_subpower_closure(sg, y.members, p)}
        assert report.points.members == expected, sorted(y.members)


@pytest.mark.parametrize("name, arity, size, sample", [
    *((name, 1, 1, None) for name in CATALOG_NAMES),
    ("sim2", 1, 2, None), ("brandt_b2", 1, 2, None), ("brandt_b2", 2, 2, None),
    ("sim2", 2, 2, 150),
])
def test_closure_matches_subpower_membership_on_small_sets(name, arity, size, sample):
    # every set of size points (or a seeded sample of them): on some of
    # these sets each generator's edges alone exclude a point
    sg = by_name(name)
    pts = list(all_points(sg.order, arity))
    sets = list(itertools.combinations(pts, size))
    if sample is not None:
        sets = random.Random(f"small/{name}/{arity}").sample(sets, sample)
    for y in sets:
        expected = {p for p in pts if in_subpower_closure(sg, frozenset(y), p)}
        assert closure(sg, PointSet(arity, frozenset(y))).points.members == expected, y


def _swapped(p, i, j):
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def _rosenblatt_union(sg):
    # the union {x1=x2} or {x3=x4} of the Rosenblatt certificate
    return PointSet(4, frozenset(
        p for p in all_points(sg.order, 4) if p[0] == p[1] or p[2] == p[3]
    ))


@pytest.mark.parametrize("name, arity", [
    *((name, 2) for name in ("chain2", "chain3", "z3", "z2_zero", "brandt_b2", "sim2")),
    *((name, 3) for name in ("chain2", "z2", "chain3", "z3", "z2_zero", "brandt_b2")),
    *((name, 4) for name in ("trivial", "chain2", "z2", "chain3", "z3", "z2_zero")),
])
def test_closure_of_swap_fixed_sets_matches_subpower_membership(name, arity):
    # closure() decides one point per orbit of the swaps fixing its input;
    # here each answer is checked point by point: seeded Y u (i j)Y, at
    # arity 3 also Y closed under (1 2) and (2 3), and at arity 4 the
    # Rosenblatt union, fixed by (1 2) and (3 4) only
    sg = by_name(name)
    pts = list(all_points(sg.order, arity))
    if arity == 4:
        sets = [_rosenblatt_union(sg)]
    else:
        rng = random.Random(f"swap/{name}/{arity}")
        sets = []
        for size in (1, 2, 3):
            y = rng.sample(pts, size)
            i, j = rng.sample(range(arity), 2)
            sets.append(PointSet(arity, frozenset(y + [_swapped(p, i, j) for p in y])))
            if arity == 3:
                orbit = {perm for p in y for perm in itertools.permutations(p)}
                sets.append(PointSet(arity, frozenset(orbit)))
    for y in sets:
        expected = {p for p in pts if in_subpower_closure(sg, y.members, p)}
        assert closure(sg, y).points.members == expected, sorted(y.members)


def test_closure_of_a_set_no_swap_fixes_is_not_symmetrized():
    # {(e,f)} in chain2^2 is algebraic (x1 = e, x2 = f); its swap (f,e) is
    # not in its closure
    assert closure(C2, _points(2, (0, 1))).points.members == {(0, 1)}


def _order_5():
    # the 52 classes of tests/inverse_semigroups_5.json as semigroups
    fixture = Path(__file__).with_name("inverse_semigroups_5.json")
    names = [f"s{i}" for i in range(5)]
    return [validate(names, tuple(map(tuple, rows)), f"inv5_{k}")
            for k, rows in enumerate(json.loads(fixture.read_text()))]


def test_union_of_equals_the_union_of_the_solution_sets():
    # every witness kind's union, within the point bound, on the catalog and
    # on the 52 classes of order 5: the atomic equations as data give the
    # points where solution_set's walk of the equivalent Equations holds
    checked = Counter()
    for source, semigroups in (("catalog", map(by_name, CATALOG_NAMES)), ("order 5", _order_5())):
        for sg in semigroups:
            for kind in CERTIFICATE_KINDS.values():
                if kind.equations is None or sg.order ** kind.arity > MAX_POINTS:
                    continue
                for idem in kind.choices(sg):
                    parts = [solution_set(sg, EquationSystem((eq,)))
                             for eq in kind_equations(kind, idem)]
                    assert _union_of(sg, kind, idem) == parts[0].members | parts[1].members
                    checked[source] += 1
    assert checked == {"catalog": 34, "order 5": 207}


@pytest.mark.parametrize("name, arity", [
    *((name, 1) for name in CATALOG_NAMES if name != "sim3"),
    *((name, 2) for name in ("chain2", "chain3", "z2", "z3", "z2_zero", "brandt_b2")),
    *((name, 4) for name in ("trivial", "chain2", "chain3", "z2", "z3", "z2_zero")),
])
def test_closure_matches_clone_grouping(name, arity):
    sg = by_name(name)
    if arity == 4:
        sets = [_rosenblatt_union(sg)]
    else:
        sets = _seeded_sets(sg, arity, "grouping")
    for y in sets:
        report = closure(sg, y)
        assert report.exact
        assert report.points.members == _clone_grouping_closure(sg, y), sorted(y.members)


@pytest.mark.parametrize("name, arity, max_cells", [
    ("sim2", 1, 6), ("brandt_b2", 2, 4), ("sim3", 1, 30),
])
def test_capped_closure_is_an_inexact_superset(name, arity, max_cells):
    # every constant column lies in the subalgebra, so |S| * |y| > max_cells
    # caps every nonempty y
    sg = by_name(name)
    for y in _seeded_sets(sg, arity, "capped")[1:]:
        capped = closure(sg, y, max_cells=max_cells)
        assert not capped.exact
        assert capped.points.members >= closure(sg, y).points.members
        assert in_subpower_closure(sg, y.members, min(y.members), max_cells=max_cells) is None


def test_membership_answers_are_pinned():
    # 4,000 answers of the one-point recheck, None under a cap included:
    # 567 True, 2,157 False and 1,276 None
    digest = hashlib.sha256()
    for name in CATALOG_NAMES:
        sg = by_name(name)
        for arity in (1, 2):
            pts = list(all_points(sg.order, arity))
            if len(pts) > 200:
                continue
            rng = random.Random(f"membership/{name}/{arity}")
            for size in range(5):
                ys = frozenset(rng.sample(pts, min(size, len(pts))))
                for max_cells in (3, 30, 300, 5_000_000):
                    answers = [in_subpower_closure(sg, ys, p, max_cells=max_cells) for p in pts]
                    digest.update(repr((name, arity, sorted(ys), max_cells, answers)).encode())
    assert digest.hexdigest() == "652edb32c6cdb7531d51e3a83a71e88959b7ba2ec365f8b5bf4c1e8f48992178"


def test_cap_counts_vectors_times_points():
    # the subalgebra of sim3's IncomparableWitness union {(12_), (1_3)} has
    # 268 vectors on 2 points; the recheck's cap falls at the same place
    sim3 = by_name("sim3")
    y = _points(1, (sim3.index("12_"),), (sim3.index("1_3"),))
    witness = (sim3.index("1__"),)
    assert closure(sim3, y, max_cells=268 * 2).exact
    assert not closure(sim3, y, max_cells=268 * 2 - 1).exact
    assert in_subpower_closure(sim3, y.members, witness, max_cells=268 * 2) is True
    assert in_subpower_closure(sim3, y.members, witness, max_cells=268 * 2 - 1) is None


def test_recheck_cap_counts_vectors_times_points():
    # revalidation keeps one vector per union part, the 268 of B above, so
    # its cap falls where closure()'s does
    sim3 = by_name("sim3")
    cert = lemma4_check(sim3)
    assert cert.union.members == {(sim3.index("12_"),), (sim3.index("1_3"),)}
    validate_certificate(sim3, cert, max_cells=268 * 2)
    with pytest.raises(CertificateError, match="closure no longer exact under the given bounds"):
        validate_certificate(sim3, cert, max_cells=268 * 2 - 1)


def _recheck_agrees(sg, y):
    # the one-orbit recheck, closure() and the one-point check decide the
    # same points.  At |B| |Y| cells and one short, and at a few smaller
    # caps, the recheck gives up where closure() does, unless every
    # candidate fell out first, which proves y closed
    report = closure(sg, y)
    assert report.exact
    members = report.points.members
    rechecked = _recheck_closure(sg, y.members, y.arity, DEFAULT_MAX_CELLS)
    assert rechecked == members, sorted(y.members)
    pts = all_points(sg.order, y.arity)
    assert {p for p in pts if in_subpower_closure(sg, y.members, p)} == members
    if not y.members:
        return
    cells = len(plain_orbit(sg, sorted(y.members), y.arity)) * len(y.members)
    for max_cells in (cells, cells - 1, cells // 2, len(y.members)):
        capped = closure(sg, y, max_cells=max_cells)
        rechecked = _recheck_closure(sg, y.members, y.arity, max_cells)
        if capped.exact:
            assert rechecked == members, (sorted(y.members), max_cells)
        else:
            assert rechecked is None or rechecked == y.members == members


@pytest.mark.parametrize("name, arity", [
    *((name, 1) for name in CATALOG_NAMES),
    *((name, 2) for name in ("chain2", "chain3", "z3", "z2_zero", "brandt_b2", "z5")),
    *((name, 3) for name in ("chain2", "z2", "chain3", "z3", "z2_zero")),
])
def test_orbit_recheck_agrees_with_closure_and_membership(name, arity):
    # seeded Y of 0..3 points and, past arity 1, Y u (i j)Y, fixed by a swap
    sg = by_name(name)
    pts = list(all_points(sg.order, arity))
    rng = random.Random(f"recheck/{name}/{arity}")
    for size in range(4):
        y = rng.sample(pts, min(size, len(pts)))
        _recheck_agrees(sg, PointSet(arity, frozenset(y)))
        if arity > 1:
            i, j = rng.sample(range(arity), 2)
            _recheck_agrees(sg, PointSet(arity, frozenset(y + [_swapped(p, i, j) for p in y])))


@pytest.mark.parametrize("name", ["z2", "z3", "z2_zero"])
def test_orbit_recheck_agrees_on_the_rosenblatt_union(name):
    # no coordinate of this union is idempotent throughout, so every point
    # outside it is a candidate
    _recheck_agrees(by_name(name), _rosenblatt_union(by_name(name)))


def test_orbit_recheck_agrees_on_every_order_5_table():
    # each witness union of the 52 classes, and seeded Y at arities 1 and 2
    for sg in _order_5():
        for cert in ed_verdict(sg).certificates:
            if cert.union is not None:
                _recheck_agrees(sg, cert.union)
        for arity in (1, 2):
            for y in _seeded_sets(sg, arity, "recheck")[1:]:
                _recheck_agrees(sg, y)


@pytest.mark.parametrize("make", [
    lambda: cyclic_with_zero(255), lambda: cyclic_with_zero(256),
], ids=["256_elements", "257_elements"])
def test_orbit_recheck_agrees_with_closure_in_both_encodings(make):
    # the byte path's last table size and the first with tuples; {g1} has
    # every other point as a candidate, {e} and {e, z} only z
    sg = make()
    e, z = (sg.identity,), (sg.zero,)
    for ys in ([e], [e, z], [(1,)]):
        y = PointSet(1, frozenset(ys))
        rechecked = _recheck_closure(sg, y.members, 1, DEFAULT_MAX_CELLS)
        assert rechecked == closure(sg, y).points.members, ys


def test_revalidation_runs_neither_closure_nor_its_builder(monkeypatch):
    # every catalog verdict, and each Rosenblatt certificate of the catalog
    # (brandt_b2 and sim2 stop at the cell cap, sim3 at the point bound,
    # trivial has none), rechecks with closure() and _subpower disabled
    checked = [(sg, ed_verdict(sg)) for sg in map(by_name, CATALOG_NAMES)]
    rosenblatt = [(by_name(name), rosenblatt_check(by_name(name)))
                  for name in ("chain2", "z2", "chain3", "z3", "z5", "z2_zero")]

    def disabled(*args, **kwargs):
        raise AssertionError("revalidation reran the closure builder")

    monkeypatch.setattr(geometry, "closure", disabled)
    monkeypatch.setattr(geometry, "_subpower", disabled)
    for sg, verdict in checked:
        validate_verdict(sg, verdict)
    for sg, cert in rosenblatt:
        assert isinstance(cert, Certificate) and cert.exact, sg.label
        validate_certificate(sg, cert)
    with pytest.raises(AssertionError, match="reran the closure builder"):
        ed_verdict(BRANDT)


def test_closure_decides_only_the_candidates(monkeypatch):
    # closure() decides the points outside its input that satisfy x_k x_k =
    # x_k wherever the input is idempotent throughout, as the recheck does:
    # on sim3's incomparable pair 6 idempotent points, not all 32 of S.
    # Every catalog certificate union within the point bound is checked too
    sim3 = by_name("sim3")
    unions = [(sim3, lemma4_check(sim3).union)]
    unions += [(sg, cert.union) for sg in map(by_name, CATALOG_NAMES)
               for cert in ed_verdict(sg).certificates if cert.union is not None]
    unions += [(by_name(name), rosenblatt_check(by_name(name)).union)
               for name in ("chain2", "z2", "chain3", "z3", "z5", "z2_zero")]
    decided = []
    extends_to = geometry._extends_to

    def recording(sg, graph, q):
        decided.append(q)
        return extends_to(sg, graph, q)

    monkeypatch.setattr(geometry, "_extends_to", recording)
    for k, (sg, union) in enumerate(unions):
        decided.clear()
        closure(sg, union)
        table = sg.table
        if k == 0:
            assert len(decided) == 6
            assert all(table[c][c] == c for q in decided for c in q)
        idempotent = [i for i in range(union.arity)
                      if all(table[p[i]][p[i]] == p[i] for p in union.members)]
        for q in decided:
            assert q not in union.members, (sg.label, q)
            assert all(table[q[i]][q[i]] == q[i] for i in idempotent), (sg.label, q)


def test_certificate_path_builds_no_flat_terms(monkeypatch):
    # every union, its recheck and solution_set walk the equations' Term
    # trees; flatten serves the solve echo, term_text and the good-term
    # normal forms
    sim2 = by_name("sim2")
    systems = [
        (C2, _system(C2, 1, "x1 = e")),
        (BRANDT, _system(BRANDT, 1, "x1 x1 = x1")),
        (sim2, _system(sim2, 2, "(x1 x2)^-1 = x2^-1 x1^-1", "x1 _1 = x2 x2^-1")),
    ]

    def disabled(*args, **kwargs):
        raise AssertionError("the certificate path flattened a term")

    monkeypatch.setattr(terms, "flatten", disabled)
    monkeypatch.setattr(terms, "_flatten_into", disabled)
    for sg in map(by_name, CATALOG_NAMES):
        validate_verdict(sg, ed_verdict(sg))
    for name in ("chain3", "z3", "z2_zero"):
        sg = by_name(name)
        cert = rosenblatt_check(sg)
        assert isinstance(cert, Certificate) and cert.exact, name
        validate_certificate(sg, cert)
    for sg, system in systems:
        # evaluate walks a Term one point at a time, also without flattening
        expected = {
            p for p in all_points(sg.order, system.arity)
            if all(evaluate(sg, eq.lhs, p) == evaluate(sg, eq.rhs, p) for eq in system.equations)
        }
        assert solution_set(sg, system).members == expected
    with pytest.raises(AssertionError, match="flattened a term"):
        flatten(C2, Var(0))


def test_certificate_path_builds_no_equations(monkeypatch):
    # each witness kind's two atomic equations are data: building and
    # rechecking a certificate compare coordinates and build no Equation,
    # Var or Const
    def disabled(self):
        raise AssertionError(f"the certificate path built a {type(self).__name__}")

    for cls in (Equation, Var, Const):
        monkeypatch.setattr(cls, "__post_init__", disabled)
    for sg in map(by_name, CATALOG_NAMES):
        validate_verdict(sg, ed_verdict(sg))
        if sg.order ** 4 <= MAX_POINTS:
            cert = rosenblatt_check(sg)
            if isinstance(cert, Certificate):
                validate_certificate(sg, cert)
    for build in (lambda: Var(0), lambda: Const(0)):
        with pytest.raises(AssertionError, match="built a"):
            build()


def _nested(depth):
    # depth - 1 levels of (t xk)^-1 around x1, in one more pair of
    # parentheses: depth levels and depth literals
    text = "x1"
    for level in range(1, depth):
        text = f"({text} x{level % 2 + 1})^-1"
    return f"({text})"


@pytest.mark.parametrize("text, over", [
    # one shared subterm 33 times, then x1: 100 literals
    ("(x1 e12 x2^-1)^33 x1", "(x1 e12 x2^-1)^33 x1 x2"),
    (_nested(100), f"({_nested(100)})"),
], ids=["power", "nesting"])
def test_tree_walk_at_the_parser_bounds(text, over):
    with pytest.raises(ParseError, match="more than 100|deeper than 100"):
        parse(over, 2, BRANDT)
    lhs, rhs = parse(text, 2, BRANDT), parse("x1 x2^-1", 2, BRANDT)
    points = list(all_points(BRANDT.order, 2))
    values = [_evaluate_ast(BRANDT, lhs, p) for p in points]
    assert _values_at(BRANDT, lhs, points) == values
    expected = {p for p, v in zip(points, values) if v == _evaluate_ast(BRANDT, rhs, p)}
    assert 0 < len(expected) < len(points)
    assert solution_set(BRANDT, EquationSystem((Equation(lhs, rhs, 2),))).members == expected


def _sim2_top_union():
    # V(x1=12) or V(x2=12) in sim2^2, 12 the identity: 13 points
    sim2 = by_name("sim2")
    top = Const(sim2.index("12"))
    a, b = (solution_set(sim2, EquationSystem((Equation(Var(i), top, 2),))) for i in (0, 1))
    return sim2, PointSet(2, a.members | b.members)


@pytest.mark.parametrize("union", [
    lambda: (C2, lemma5_check(C2).union),
    _sim2_top_union,
])
def test_cap_falls_at_vectors_times_points(union):
    # |B| counted by the reference orbit: closure() is exact with exactly
    # |B| |Y| cells and gives up one cell short
    sg, y = union()
    cells = len(plain_orbit(sg, sorted(y.members), y.arity)) * len(y.members)
    exact = closure(sg, y, max_cells=cells)
    assert exact.exact and exact.points == closure(sg, y).points
    assert not closure(sg, y, max_cells=cells - 1).exact


def _ends(sg):
    # Y and p among the identity and the zero at arity 1, so that each
    # subalgebra has at most about 2 |S| vectors
    e, z = (sg.identity,), (sg.zero,)
    return [([], e), ([e], z), ([e], e), ([e, z], z)]


def _z5_cube():
    # 50, 51 and 52 points of Z5^3 on the two sides of k = 256 // 5 = 51
    pts = list(all_points(5, 3))
    random.Random("z5-cube").shuffle(pts)
    return [(sorted(pts[:size]), pts[-1]) for size in (50, 51, 52)]


@pytest.mark.parametrize("make, cases", [
    (lambda: symmetric_inverse_monoid(4), _ends),  # 209 elements, k = 1
    (lambda: cyclic_with_zero(255), _ends),  # 256 elements, the last byte path
    (lambda: cyclic_with_zero(256), _ends),  # 257 elements, tuples
    (lambda: by_name("z5"), lambda sg: _z5_cube()),
], ids=["sim4", "256_elements", "257_elements", "z5"])
def test_both_vector_encodings_agree_with_a_plain_orbit(make, cases):
    # a vector is bytes while |S| <= 256 and one chunk of k = 256 // |S|
    # coordinates holds one literal product; here Y and Y + [p] have k - 1,
    # k and k + 1 coordinates.  Answers, vector counts and where each cap
    # falls must be the reference orbit's
    sg = make()
    for ys, p in cases(sg):
        y = PointSet(len(p), frozenset(ys))
        orbit = plain_orbit(sg, ys + [p], len(p))
        vectors, _ = term_values(sg, ys + [p])
        assert isinstance(vectors[0], bytes if sg.order <= 256 else tuple)
        assert len(vectors) == len(orbit)
        b = len({v[:-1] for v in orbit})  # |B|: the orbit on Y, projected
        member = b == len(orbit)
        assert in_subpower_closure(sg, y.members, p) == member, (ys, p)
        report = closure(sg, y, max_cells=max(b * len(ys), 1))
        assert report.exact and (p in report.points.members) == member, (ys, p)
        if ys:
            assert not closure(sg, y, max_cells=b * len(ys) - 1).exact
        if ys and member:
            cells = len(orbit) * len(ys)
            assert in_subpower_closure(sg, y.members, p, max_cells=cells) is True
            assert in_subpower_closure(sg, y.members, p, max_cells=cells - 1) is None


def test_every_inverse_semigroup_of_order_at_most_4():
    # OEIS A001428 counts 1, 2, 5 and 16 classes; the 19 non-groups are
    # each NotED with a computed witness certificate, and the Rosenblatt
    # union is exact on every class, algebraic only on the trivial group
    classes = [inverse_semigroups(n) for n in range(1, 5)]
    assert list(map(len, classes)) == [1, 2, 5, 16]
    non_groups = 0
    for sg in itertools.chain.from_iterable(classes):
        verdict = ed_verdict(sg)
        validate_verdict(sg, verdict)
        assert not verdict.truncated, sg.label
        if not is_group(sg):
            non_groups += 1
            assert verdict.status == "NotED", sg.label
            assert any(c.witness is not None for c in verdict.certificates), sg.label
        cert = rosenblatt_check(sg)
        assert isinstance(cert, Certificate) or (cert is None and sg.order == 1), sg.label
        if cert is not None:
            assert cert.exact
            validate_certificate(sg, cert)
    assert non_groups == 19


def test_every_inverse_semigroup_of_order_5():
    # OEIS A001428 counts 52 classes.  inverse_semigroups(5) takes minutes,
    # so its tables are a fixture, which CI regenerates and compares; here
    # each is its own least relabelling, so no two are isomorphic.  Z5 is
    # the one group; the 51 non-groups are each NotED with an exact witness
    # certificate, and every verdict rechecks
    fixture = Path(__file__).with_name("inverse_semigroups_5.json")
    tables = [tuple(map(tuple, rows)) for rows in json.loads(fixture.read_text())]
    assert len(tables) == 52
    assert tables == sorted(set(tables))
    names = [f"s{i}" for i in range(5)]
    kinds = Counter()
    for k, table in enumerate(tables):
        assert least_relabelling(table) == table
        sg = validate(names, table, f"inv5_{k}")
        verdict = ed_verdict(sg)
        validate_verdict(sg, verdict)
        assert not verdict.truncated, sg.label
        kinds[(verdict.status, *(c.kind for c in verdict.certificates))] += 1
        if verdict.status == "NotED":
            assert any(c.witness is not None and c.exact for c in verdict.certificates)
    assert kinds == {
        ("GroupOutOfScope", "GroupOutOfScope"): 1,
        ("NotED", "ZeroPresent", "IncomparableWitness"): 25,
        ("NotED", "ZeroPresent", "ChainWitness"): 10,
        ("NotED", "IncomparableWitness"): 7,
        ("NotED", "ChainWitness"): 9,
    }


def test_lemma4_none_on_chains():
    assert lemma4_check(C2) is None
    assert lemma4_check(by_name("chain3")) is None


def test_lemma4_certificate_on_brandt():
    cert = lemma4_check(BRANDT)
    assert isinstance(cert, Certificate)
    assert cert.kind == "IncomparableWitness"
    assert cert.idempotents == (0, 3)
    assert cert.witness == (4,)
    assert cert.union.members == {(0,), (3,)}
    assert cert.closure_size == 3
    assert cert.exact is True
    validate_certificate(BRANDT, cert)


def test_lemma4_certificate_on_sim2():
    sim2 = by_name("sim2")
    cert = lemma4_check(sim2)
    assert isinstance(cert, Certificate)
    assert (sim2.names[cert.idempotents[0]], sim2.names[cert.idempotents[1]]) == ("1_", "_2")
    assert cert.witness == (sim2.index("__"),)
    assert cert.closure_size == 3
    validate_certificate(sim2, cert)


def test_lemma5_none_for_groups_and_non_chains():
    assert lemma5_check(by_name("z2")) is None
    assert lemma5_check(BRANDT) is None


def test_lemma5_certificates():
    expected = {
        "chain2": ((0, 1), (1, 1), 4),
        "chain3": ((0, 2), (2, 2), 9),
        "z2_zero": ((0, 2), (2, 2), 9),
    }
    for name, (idem, witness, size) in expected.items():
        sg = by_name(name)
        cert = lemma5_check(sg)
        assert isinstance(cert, Certificate)
        assert cert.kind == "ChainWitness"
        assert cert.idempotents == idem
        assert cert.witness == witness
        assert cert.closure_size == size
        validate_certificate(sg, cert)


def test_lemma5_chain2_union_closes_to_the_whole_square():
    cert = lemma5_check(C2)
    assert cert.union.members == {(0, 0), (0, 1), (1, 0)}
    assert cert.closure_size == 4


def test_rosenblatt_on_chain2():
    cert = rosenblatt_check(C2)
    assert isinstance(cert, Certificate)
    assert len(cert.union.members) == 12
    assert cert.closure_size == 16
    assert cert.witness == (0, 1, 0, 1)
    assert cert.exact is True
    validate_certificate(C2, cert)


def test_rosenblatt_on_the_trivial_group_is_algebraic():
    assert rosenblatt_check(by_name("trivial")) is None


def test_rosenblatt_union_is_not_algebraic_over_z2_either():
    cert = rosenblatt_check(by_name("z2"))
    assert isinstance(cert, Certificate)
    assert len(cert.union.members) == 12
    assert cert.witness == (0, 1, 0, 1)
    validate_certificate(by_name("z2"), cert)


def test_rosenblatt_respects_the_point_bound():
    result = rosenblatt_check(by_name("sim3"))
    assert isinstance(result, Unknown)
    assert "bound" in result.reason


def test_ed_verdict_for_groups():
    for name in ("trivial", "z2", "z3", "z5"):
        v = ed_verdict(by_name(name))
        assert v.status == "GroupOutOfScope"
        assert len(v.certificates) == 1
        assert v.certificates[0].kind == "GroupOutOfScope"
        validate_verdict(by_name(name), v)
        with pytest.raises(CertificateError, match="status NotED does not fit"):
            validate_verdict(by_name(name), Verdict("NotED", v.certificates, ()))


def test_ed_verdict_kinds_for_non_groups():
    expected = {
        "chain2": ["ZeroPresent", "ChainWitness"],
        "chain3": ["ZeroPresent", "ChainWitness"],
        "z2_zero": ["ZeroPresent", "ChainWitness"],
        "brandt_b2": ["ZeroPresent", "IncomparableWitness"],
        "sim2": ["ZeroPresent", "IncomparableWitness"],
        "sim3": ["ZeroPresent", "IncomparableWitness"],
    }
    for name, kinds in expected.items():
        sg = by_name(name)
        v = ed_verdict(sg)
        assert v.status == "NotED"
        assert [c.kind for c in v.certificates] == kinds
        assert v.truncated == ()
        validate_verdict(sg, v)
        with pytest.raises(CertificateError, match="status GroupOutOfScope does not fit"):
            validate_verdict(sg, Verdict("GroupOutOfScope", v.certificates, ()))


def test_ed_verdict_sim3_is_certified_by_the_zero():
    # a cap below |S| cells truncates every closure
    sg = by_name("sim3")
    v = ed_verdict(sg, max_cells=10)
    assert v.status == "NotED"
    assert [c.kind for c in v.certificates] == ["ZeroPresent"]
    assert v.truncated == ("clone truncated; closure is not exact",)
    assert v.certified
    validate_verdict(sg, v)


def test_ed_verdict_on_sim4():
    # 209 elements: one order past the catalog
    sg = symmetric_inverse_monoid(4)
    assert sg.order == 209
    v = ed_verdict(sg)
    assert v.status == "NotED"
    assert [c.kind for c in v.certificates] == ["ZeroPresent", "IncomparableWitness"]
    witness = v.certificates[1]
    assert [sg.names[i] for i in witness.witness] == ["12__"]
    assert witness.closure_size == 3
    validate_verdict(sg, v)


@pytest.mark.parametrize("a, b, kind, idempotents, witness, size", [
    ("z2", "chain2", "ChainWitness", ["1_e", "1_f"], ["1_f", "1_f"], 16),
    ("z2", "chain3", "ChainWitness", ["1_e", "1_g"], ["1_g", "1_g"], 36),
    ("z3", "chain2", "ChainWitness", ["1_e", "1_f"], ["1_f", "1_f"], 36),
    ("z2", "z2_zero", "ChainWitness", ["1_1", "1_0"], ["1_0", "1_0"], 36),
    ("z2", "brandt_b2", "IncomparableWitness", ["1_e11", "1_e22"], ["1_0"], 3),
    ("z2", "sim2", "IncomparableWitness", ["1_1_", "1__2"], ["1___"], 3),
], ids=["z2xchain2", "z2xchain3", "z3xchain2", "z2xz2_zero", "z2xbrandt_b2", "z2xsim2"])
def test_ed_verdict_on_zero_free_products(a, b, kind, idempotents, witness, size):
    # a group times a non-group has no zero, so a witness kind alone certifies it
    sg = direct_product(by_name(a), by_name(b))
    assert sg.zero is None
    v = ed_verdict(sg)
    assert v.status == "NotED" and v.truncated == ()
    (cert,) = v.certificates
    assert cert.kind == kind
    assert [sg.names[e] for e in cert.idempotents] == idempotents
    assert [sg.names[c] for c in cert.witness] == witness
    assert cert.closure_size == size
    validate_verdict(sg, v)


def test_format_certificate_is_stable():
    assert format_certificate(BRANDT, lemma4_check(BRANDT)) == (
        "kind: IncomparableWitness\n"
        "semigroup: brandt_b2\n"
        "idempotents: e11, e22\n"
        "union: (e11), (e22)\n"
        "witness: (0)\n"
        "closure-size: 3\n"
        "exact: true"
    )


def _cited(sg):
    # GroupOutOfScope on a group, ZeroPresent on a non-group with zero
    return ed_verdict(sg).certificates[0]


def test_tampered_certificates_fail_revalidation():
    cases = {
        ("brandt_b2", lemma4_check): (
            ("witness", (0,)),
            ("closure_size", 4),
            ("idempotents", (0, 4)),
            ("union", PointSet(1, frozenset({(0,)}))),
            ("kind", "nonsense"),
            ("exact", False),
            ("exact", None),
        ),
        ("chain2", lemma5_check): (
            ("witness", (0, 0)),
            ("closure_size", 3),
            ("idempotents", (1, 0)),
            ("union", PointSet(2, frozenset({(0, 0), (0, 1)}))),
            ("kind", "IncomparableWitness"),
        ),
        # (f,f) lies in closure minus union too, but the rule names (g,g)
        ("chain3", lemma5_check): (("witness", (1, 1)),),
        # the cited kinds, GroupOutOfScope and ZeroPresent, record nothing more
        **{(name, _cited): (
            ("union", PointSet(1, frozenset({(0,), (1,)}))),
            ("witness", (0,)),
            ("closure_size", 99),
            ("exact", False),
            ("exact", True),
        ) for name in ("z2", "chain2")},
        ("z2", rosenblatt_check): (
            ("witness", (0, 0, 0, 0)),
            ("witness", (0, 1, 0)),
            ("witness", (0, 1, 0, 2)),
            ("closure_size", 15),
            ("idempotents", (0,)),
            ("union", PointSet(4, frozenset({(0, 0, 0, 0)}))),
            ("kind", "ChainWitness"),
        ),
    }
    for (name, check), tampered in cases.items():
        sg = by_name(name)
        cert = check(sg)
        validate_certificate(sg, cert)
        for field, value in tampered:
            bad = cert.replace(**{field: value})
            with pytest.raises(CertificateError):
                validate_certificate(sg, bad)
    # the union {(e11), (e22)} has 3 vectors on 2 points, past a 4-cell cap
    with pytest.raises(CertificateError, match="closure no longer exact"):
        validate_certificate(BRANDT, lemma4_check(BRANDT), max_cells=4)
    # the sim3 Rosenblatt union has 1,336,336 points, past the point bound
    sim3 = by_name("sim3")
    forged = Certificate("RosenblattWitness", (), None, (0, 0, 0, 1), 5, True)
    for recheck in (
        lambda: validate_certificate(sim3, forged),
        lambda: validate_verdict(sim3, Verdict("NotED", (forged,), ())),
    ):
        with pytest.raises(CertificateError, match="needs 1336336 points, bound is 20000"):
            recheck()


@pytest.mark.parametrize("point, recheck", [
    ((0,), "witness lies inside the union"),
    ((1,), "witness is not in the closure of the union"),
], ids=["union-point", "outside-closure"])
def test_wrong_witness_rule_fails_its_membership_facts(monkeypatch, point, recheck):
    # on brandt_b2 the union is {(e11), (e22)} and its closure adds only (0):
    # (e11) lies in the union, (e12) outside the closure.  The builder records
    # the wrong rule's point unchecked; revalidation is what rejects it
    genuine = lemma4_check(BRANDT)
    kind = CERTIFICATE_KINDS["IncomparableWitness"].replace(
        witness=lambda sg, ef: point
    )
    monkeypatch.setitem(CERTIFICATE_KINDS, "IncomparableWitness", kind)
    cert = lemma4_check(BRANDT)
    assert cert == genuine.replace(witness=point)
    verdict = ed_verdict(BRANDT)
    assert verdict.certificates[1] == cert
    with pytest.raises(CertificateError, match=recheck):
        validate_certificate(BRANDT, cert)
    with pytest.raises(CertificateError, match=recheck):
        validate_verdict(BRANDT, verdict)


@pytest.mark.parametrize("name, check, changes", [
    ("chain2", rosenblatt_check, {"witness": [0, 1, 0, 1]}),
    ("chain2", rosenblatt_check, {"witness": ("x",) * 4}),
    ("chain2", rosenblatt_check, {"witness": (0.0, 1, 0, 1)}),
    ("chain2", rosenblatt_check, {"witness": (False, True, False, True)}),
    ("chain2", rosenblatt_check, {"witness": None}),
    ("chain2", rosenblatt_check, {"union": frozenset(
        p for p in all_points(2, 4) if p[0] == p[1] or p[2] == p[3])}),
    ("chain2", rosenblatt_check, {"union": PointSet(4, frozenset(
        (0.0, 0, 0, 0) if p == (0, 0, 0, 0) else p
        for p in all_points(2, 4) if p[0] == p[1] or p[2] == p[3]))}),
    ("chain2", rosenblatt_check, {"closure_size": 16.0}),
    ("chain2", rosenblatt_check, {"kind": ["RosenblattWitness"]}),
    ("chain2", rosenblatt_check, {"exact": 1}),
    ("brandt_b2", lemma4_check, {"witness": [4]}),
    ("brandt_b2", lemma4_check, {"witness": ("x",)}),
    ("brandt_b2", lemma4_check, {"witness": (4.0,)}),
    ("brandt_b2", lemma4_check, {"union": frozenset({(0,), (3,)})}),
    ("brandt_b2", lemma4_check, {"union": PointSet(True, frozenset({(0,), (3,)}))}),
    ("brandt_b2", lemma4_check, {"union": PointSet(1, frozenset({(0.0,), (3,)}))}),
    ("brandt_b2", lemma4_check, {"union": PointSet(1, frozenset({(False,), (3,)}))}),
    ("brandt_b2", lemma4_check, {"closure_size": 3.0}),
    ("brandt_b2", lemma4_check, {"kind": ["IncomparableWitness"]}),
    ("brandt_b2", lemma4_check, {"idempotents": (0.0, 3)}),
    ("brandt_b2", lemma4_check, {"idempotents": [0, 3]}),
    ("brandt_b2", lemma4_check, {"exact": 1}),
    ("chain2", _cited, {"witness": (0,)}),
    ("chain2", _cited, {"idempotents": (True,)}),
], ids=lambda v: ",".join(f"{k}={w!r}".replace(" ", "")[:32] for k, w in v.items())
    if isinstance(v, dict) else None)
def test_malformed_certificates_raise_only_certificate_error(name, check, changes):
    # chain2's Rosenblatt certificate, brandt_b2's IncomparableWitness and
    # chain2's ZeroPresent, each with one field of the wrong shape or type:
    # equal values of another type (16.0, True, a list, a float or bool
    # coordinate of a union point) do not pass, and a bad union is named
    sg = by_name(name)
    cert = check(sg)
    validate_certificate(sg, cert)
    with pytest.raises(CertificateError, match="union" if "union" in changes else None):
        validate_certificate(sg, cert.replace(**changes))


@pytest.mark.parametrize("entry", ["junk", None, (), PointSet(1, frozenset({(0,), (3,)}))])
def test_verdict_entries_that_are_not_certificates_fail_revalidation(entry):
    with pytest.raises(CertificateError, match="not a certificate"):
        validate_verdict(BRANDT, Verdict("NotED", (entry,), ()))


def test_union_of_trusts_only_well_formed_triples():
    # for each witness kind on every catalog entry: the kind's arity is one
    # more than the highest coordinate its triples name, and every c indexes
    # each idempotent tuple the kind may name
    for sg in map(by_name, CATALOG_NAMES):
        for name, kind in CERTIFICATE_KINDS.items():
            if kind.equations is None:
                continue
            named = [k for i, j, _ in kind.equations for k in (i, j) if k is not None]
            assert kind.arity == max(named) + 1, name
            for i, j, c in kind.equations:
                assert (c is None) == (j is not None), name
                for idem in kind.choices(sg):
                    assert c is None or 0 <= c < len(idem), (sg.label, name, idem)


def test_revalidation_accepts_every_valid_witness_choice():
    # any incomparable pair, in either order, with its own product as witness
    for e, f in ((0, 3), (3, 0)):
        union_ef = PointSet(1, frozenset({(e,), (f,)}))
        cert = Certificate("IncomparableWitness", (e, f), union_ef, (4,), 3, True)
        validate_certificate(BRANDT, cert)
    # any point of closure minus union, not only the least
    cert = rosenblatt_check(C2)
    for p in all_points(2, 4):
        if p not in cert.union.members:
            validate_certificate(C2, cert.replace(witness=p))


def test_zero_and_group_certificates_recheck_the_laws():
    with pytest.raises(CertificateError):
        validate_certificate(C2, Certificate(
            kind="GroupOutOfScope", idempotents=(0,),
            union=None, witness=None, closure_size=None, exact=None,
        ))
    with pytest.raises(CertificateError):
        validate_certificate(by_name("z2"), Certificate(
            kind="ZeroPresent", idempotents=(0,),
            union=None, witness=None, closure_size=None, exact=None,
        ))
    with pytest.raises(CertificateError, match="ZeroPresent cannot name these idempotents"):
        validate_certificate(C2, Certificate("ZeroPresent", (1, 0)))
    with pytest.raises(CertificateError, match="GroupOutOfScope cannot name these idempotents"):
        validate_certificate(by_name("z2"), Certificate("GroupOutOfScope", (1,)))
    # a zero field that names a non-absorbing element fails the law itself
    with pytest.raises(CertificateError, match="ZeroPresent cannot name these idempotents"):
        validate_certificate(C2.replace(zero=0), Certificate("ZeroPresent", (0,)))
    # the genuine zero certificate passes
    v = ed_verdict(C2)
    zero_cert = v.certificates[0]
    assert zero_cert.kind == "ZeroPresent"
    validate_certificate(C2, zero_cert)


@pytest.mark.parametrize("name, kind_name, idempotents", [
    ("chain2", "GroupOutOfScope", (0,)),
    ("trivial", "ZeroPresent", (0,)),
    ("z2", "ZeroPresent", (0,)),
    ("chain3", "IncomparableWitness", (0, 2)),
    ("brandt_b2", "ChainWitness", (0, 4)),
    ("z2", "ChainWitness", (0, 0)),
], ids=["group-on-chain2", "zero-on-trivial", "zero-on-z2", "incomparable-on-chain3",
        "chain-on-brandt_b2", "chain-on-z2"])
def test_each_kind_is_rejected_where_it_does_not_apply(name, kind_name, idempotents):
    # the kind has no choices here; a witness certificate is filled in by its
    # own rule, and the choices recheck must be what rejects it
    sg = by_name(name)
    kind = CERTIFICATE_KINDS[kind_name]
    assert kind.choices(sg) == ()
    cert = Certificate(kind_name, idempotents)
    if kind.equations is not None:
        parts = [solution_set(sg, EquationSystem((eq,)))
                 for eq in kind_equations(kind, idempotents)]
        union = PointSet(parts[0].arity, parts[0].members | parts[1].members)
        size = len(closure(sg, union).points.members)
        cert = Certificate(kind_name, idempotents, union, kind.witness(sg, idempotents), size, True)
    with pytest.raises(CertificateError, match=f"{kind_name} cannot name these idempotents"):
        validate_certificate(sg, cert)


def test_every_catalog_name_loads_and_gets_a_verdict():
    for name in CATALOG_NAMES:
        v = ed_verdict(by_name(name))
        assert v.status in ("GroupOutOfScope", "NotED")
        assert v.certified


def test_parse_point_reads_back_point_text():
    # every point of each catalog entry of order at most 7 at arities 1 and
    # 2, and of sim3 at arity 1
    cases = [(sg, arity) for sg in map(by_name, CATALOG_NAMES) if sg.order <= 7
             for arity in (1, 2)]
    cases.append((by_name("sim3"), 1))
    assert len(cases) == 19
    for sg, arity in cases:
        for p in all_points(sg.order, arity):
            assert parse_point(sg, point_text(sg, p)) == p, (sg.label, p)


def test_parse_point_takes_bare_and_spaced_forms():
    for text in ("(e,f)", "e,f", "( e , f )", " (e, f) "):
        assert parse_point(C2, text) == (0, 1)
    for text in ("(e)", "e", "( e )"):
        assert parse_point(C2, text) == (0,)
    for text, message in (
        ("()", "empty point: '()'"),
        ("  ", "empty point: '  '"),
        ("(e,,f)", "empty coordinate in point: '(e,,f)'"),
        ("(e,)", "empty coordinate in point: '(e,)'"),
        ("(g)", "unknown element name: 'g'"),
        ("((e))", "unknown element name: '(e)'"),
    ):
        with pytest.raises(ValueError) as info:
            parse_point(C2, text)
        assert str(info.value) == message


# the inferred arity, as the old command-line regex \bx([0-9]+)\b found it
# on ASCII text: the largest K of an identifier xK, at least 1
@pytest.mark.parametrize("text, arity", [
    ("x01 = x01", 1), ("ax1 = e", 1), ("x1_ = e", 1), ("x0 = e", 1), ("x1^-2 = e", 1),
    ("(x3 x1)^2 = e", 3),
    # the exponent's digits run into x3, so no identifier x3 is read here,
    # though the lexer itself would read e ^2 x3
    ("e^2x3 = e", 1),
    # the lexer's identifiers are ASCII runs, so x2 is one beside a
    # non-ASCII letter; that side fails to lex, so only an earlier side's
    # message can show the arity
    ("éx2 = e", 2),
])
def test_parse_equations_infers_the_arity(text, arity):
    # an earlier equation with x0 reports the inferred arity
    with pytest.raises(ParseError) as info:
        parse_equations(C2, ["x0 = e", text])
    assert str(info.value) == f"variable x0 out of range for arity {arity} (at position 0)"


def test_parse_equations_checks_every_equal_sign_first():
    for texts in (["x1 = (e", "x1 x1"], ["x0 = e", "e = e = e"], ["x1 = e", "x1"]):
        with pytest.raises(ValueError) as info:
            parse_equations(C2, texts)
        assert str(info.value) == f"equation must contain exactly one '=': {texts[1]!r}"
    with pytest.raises(ValueError, match="a system needs at least one equation"):
        parse_equations(C2, [])
    # a given arity is used as it is
    assert parse_equations(C2, ["x1 = e"], 3).arity == 3
    with pytest.raises(ParseError, match="variable x2 out of range for arity 1"):
        parse_equations(C2, ["x2 = e"], 1)
    assert [parse_equations(C2, [t]).arity for t in ("x01 = x01", "(x3 x1)^2 = e")] == [1, 3]


def test_equation_text_reads_back_through_parse_equations():
    sg = by_name("sim2")
    system = parse_equations(sg, ["(x1 1_ x2)^-1 _1 2_ = 12 x2^-1 x1^-1", "x3 = x3"])
    texts = [equation_text(sg, eq) for eq in system.equations]
    assert texts == ["x2^-1 1_ x1^-1 _2 = 12 x2^-1 x1^-1", "x3 = x3"]
    again = parse_equations(sg, texts, system.arity)
    assert [equation_text(sg, eq) for eq in again.equations] == texts
    assert solution_set(sg, again) == solution_set(sg, system)
