"""Solution sets, algebraic closure, and the certificate-producing checks."""

import dataclasses
import itertools
import random

import pytest

from eqdom.catalog import CATALOG_NAMES, by_name
from eqdom.geometry import (
    BoundExceededError,
    Certificate,
    CertificateError,
    Equation,
    EquationSystem,
    PointSet,
    Unknown,
    closure,
    ed_verdict,
    format_certificate,
    is_algebraic,
    lemma4_check,
    lemma5_check,
    rosenblatt_check,
    solution_set,
    union,
    validate_certificate,
    validate_verdict,
)
from eqdom.terms import Const, Var, all_points, clone_closure, parse

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
    with pytest.raises(ValueError, match="arities"):
        union(_points(1, (0,)), _points(2, (0, 0)))


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
    assert report.clone_size == 62


def test_is_algebraic_verdicts():
    assert is_algebraic(C2, _points(1, (0,))).status == "yes"
    v = is_algebraic(BRANDT, _points(1, (0,), (3,)))
    assert v.status == "no"
    assert v.witness == (4,)
    trunc = is_algebraic(by_name("sim3"), _points(1, (0,)), max_cells=1000)
    assert trunc.status == "unknown"
    assert trunc.witness is None


def test_closure_bound_exceeded():
    sim3 = by_name("sim3")
    with pytest.raises(BoundExceededError) as exc:
        closure(sim3, PointSet(3, frozenset({(0, 0, 0)})))
    assert exc.value.required == 34 ** 3
    with pytest.raises(BoundExceededError) as exc:
        solution_set(sim3, _system(sim3, 3, "x1 x2 = x3"))
    assert exc.value.required == 34 ** 3


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


def _in_subpower_closure(sg, arity, y, p):
    """Subpower membership (Bulatov, Mayr and Steindl, IJAC 2016): p lies in
    the closure of y iff the subalgebra of S^(y + [p]) generated by the
    literal and constant columns projects injectively onto the y coordinates."""
    coords = sorted(y) + [p]
    gens = [(c,) * len(coords) for c in range(sg.order)]
    for i in range(arity):
        gens.append(tuple(q[i] for q in coords))
        gens.append(tuple(sg.inv[q[i]] for q in coords))
    queue = list(set(gens))
    seen = set(queue)
    for v in queue:
        for g in gens:
            w = tuple(sg.table[a][b] for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len({v[:-1] for v in seen}) == len(seen)


@pytest.mark.parametrize("name, arity", [
    *((name, 1) for name in CATALOG_NAMES if name != "sim3"),
    ("brandt_b2", 2), ("chain3", 2), ("z3", 2),
])
def test_closure_matches_subpower_membership(name, arity):
    sg = by_name(name)
    pts = list(all_points(sg.order, arity))
    rng = random.Random(f"subpower/{name}/{arity}")
    for size in range(4):
        y = frozenset(rng.sample(pts, min(size, len(pts))))
        report = closure(sg, PointSet(arity, y))
        assert report.exact
        expected = {p for p in pts if _in_subpower_closure(sg, arity, y, p)}
        assert report.points.members == expected, sorted(y)


@pytest.mark.parametrize("name, arity, max_cells", [
    ("sim2", 1, 7 * 40), ("brandt_b2", 2, 25 * 120),
])
def test_truncated_closure_follows_the_pairwise_definition(name, arity, max_cells):
    # a point is kept unless two clone functions agree on y and differ there
    sg = by_name(name)
    clone = clone_closure(sg, arity, max_cells)
    assert not clone.complete
    pts = list(all_points(sg.order, arity))
    rng = random.Random(f"pairwise/{name}/{arity}")
    for size in range(4):
        y = frozenset(rng.sample(pts, size))
        y_idx = [pts.index(q) for q in y]
        keep = set(pts)
        for f, g in itertools.combinations(clone.functions, 2):
            if all(f[i] == g[i] for i in y_idx):
                keep -= {q for q, a, b in zip(pts, f, g) if a != b}
        report = closure(sg, PointSet(arity, y), max_cells=max_cells)
        assert not report.exact
        assert report.clone_size == len(clone.functions)
        assert report.points.members == keep, sorted(y)


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


def test_ed_verdict_kinds_for_non_groups():
    expected = {
        "chain2": ["ZeroPresent", "ChainWitness"],
        "chain3": ["ZeroPresent", "ChainWitness"],
        "z2_zero": ["ZeroPresent", "ChainWitness"],
        "brandt_b2": ["ZeroPresent", "IncomparableWitness"],
        "sim2": ["ZeroPresent", "IncomparableWitness"],
    }
    for name, kinds in expected.items():
        sg = by_name(name)
        v = ed_verdict(sg)
        assert v.status == "NotED"
        assert [c.kind for c in v.certificates] == kinds
        assert v.truncated == ()
        validate_verdict(sg, v)


def test_ed_verdict_sim3_is_certified_by_the_zero():
    sg = by_name("sim3")
    v = ed_verdict(sg)
    assert v.status == "NotED"
    assert [c.kind for c in v.certificates] == ["ZeroPresent"]
    assert v.truncated == ("clone truncated; closure is not exact",)
    assert v.certified
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


def test_tampered_certificates_fail_revalidation():
    cases = {
        ("brandt_b2", lemma4_check): (
            ("witness", (0,)),
            ("closure_size", 4),
            ("idempotents", (0, 4)),
            ("union", PointSet(1, frozenset({(0,)}))),
            ("kind", "nonsense"),
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
        ("z2", rosenblatt_check): (
            ("witness", (0, 0, 0, 0)),
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
            bad = dataclasses.replace(cert, **{field: value})
            with pytest.raises(CertificateError):
                validate_certificate(sg, bad)


def test_revalidation_accepts_every_valid_witness_choice():
    # any incomparable pair, in either order, with its own product as witness
    for e, f in ((0, 3), (3, 0)):
        union_ef = PointSet(1, frozenset({(e,), (f,)}))
        cert = Certificate("IncomparableWitness", "brandt_b2", (e, f), union_ef, (4,), 3, True)
        validate_certificate(BRANDT, cert)
    # any point of closure minus union, not only the least
    cert = rosenblatt_check(C2)
    for p in all_points(2, 4):
        if p not in cert.union.members:
            validate_certificate(C2, dataclasses.replace(cert, witness=p))


def test_zero_and_group_certificates_recheck_the_laws():
    with pytest.raises(CertificateError):
        validate_certificate(C2, Certificate(
            kind="GroupOutOfScope", semigroup="chain2", idempotents=(0,),
            union=None, witness=None, closure_size=None, exact=None,
        ))
    with pytest.raises(CertificateError):
        validate_certificate(by_name("z2"), Certificate(
            kind="ZeroPresent", semigroup="z2", idempotents=(0,),
            union=None, witness=None, closure_size=None, exact=None,
        ))
    # the genuine zero certificate passes
    v = ed_verdict(C2)
    zero_cert = v.certificates[0]
    assert zero_cert.kind == "ZeroPresent"
    validate_certificate(C2, zero_cert)


def test_every_catalog_name_loads_and_gets_a_verdict():
    for name in CATALOG_NAMES:
        v = ed_verdict(by_name(name))
        assert v.status in ("GroupOutOfScope", "NotED")
        assert v.certified
