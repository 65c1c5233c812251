"""Value semantics of eqdom's frozen value classes: construction, equality,
hash, immutability, replace() and the dataclass repr text."""

import dataclasses

import pytest

import eqdom.goodterms as goodterms
from eqdom._value import Value
from eqdom.catalog import by_name, chain_semilattice
from eqdom.geometry import (
    CERTIFICATE_KINDS,
    Certificate,
    Equation,
    EquationSystem,
    PointSet,
    Unknown,
    ed_verdict,
    is_algebraic,
)
from eqdom.semigroup import IdempotentOrder
from eqdom.terms import Const, Var, clone_closure, flatten, parse

BRANDT = by_name("brandt_b2")


def one_of_each():
    """An instance of every value class, from the paths that build them."""
    term = parse("x1 (e12 x2)^-1", 2, BRANDT)
    verdict = ed_verdict(BRANDT)
    algebraic = is_algebraic(BRANDT, PointSet(1, frozenset({(0,), (3,)})))
    equation = Equation(Var(0), Const(1), 1)
    chain = by_name("chain2")
    unary = goodterms.normalize_unary(chain, flatten(chain, parse("e x1 f x1", 1, chain)))
    binary = goodterms.normalize_binary(chain, flatten(chain, parse("x1 f x2", 2, chain)))
    return [
        term, term.left, term.right, term.right.inner, term.right.inner.left,
        clone_closure(chain, 1),
        equation, EquationSystem((equation,)), algebraic, algebraic.report,
        algebraic.report.points, Unknown("bound"), *verdict.certificates, verdict,
        CERTIFICATE_KINDS["ChainWitness"], BRANDT, BRANDT.idempotent_order,
        unary, unary.good, binary,
    ]


def value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from value_classes(sub)


def test_every_value_class_is_covered():
    assert {type(x) for x in one_of_each()} == set(value_classes())
    assert len(set(value_classes())) == 19


def test_repr_is_the_dataclass_text():
    # a dataclass with the same fields and values prints the same text;
    # IdempotentOrder hides its table, FiniteInverseSemigroup has its own repr
    hidden = {IdempotentOrder: {"table"}}
    for x in one_of_each():
        cls = type(x)
        if "__repr__" in cls.__dict__:
            continue
        names = list(cls.__annotations__)
        twin = dataclasses.make_dataclass(cls.__name__, [
            (f, object, dataclasses.field(repr=f not in hidden.get(cls, ())))
            for f in names
        ])
        assert repr(x) == repr(twin(*(getattr(x, f) for f in names)))
    assert repr(Var(0)) == "Var(index=0)"
    assert repr(Certificate("ZeroPresent", (1,))) == (
        "Certificate(kind='ZeroPresent', idempotents=(1,), union=None, "
        "witness=None, closure_size=None, exact=None)"
    )
    assert repr(BRANDT) == "<FiniteInverseSemigroup brandt_b2 order=5>"


def test_equality_is_by_type_and_fields():
    assert Var(0) != Const(0)
    assert Var(0) == Var(0) and Var(0) != Var(1)
    assert hash(Var(0)) == hash(Var(0))
    assert len({Var(0), Var(0), Const(0)}) == 2
    for x, y in zip(one_of_each(), one_of_each()):
        assert x == y and hash(x) == hash(y)


def test_values_are_frozen():
    v = Var(0)
    with pytest.raises(AttributeError):
        v.index = 1
    with pytest.raises(AttributeError):
        v.other = 1
    with pytest.raises(AttributeError):
        del v.index
    assert v == Var(0)


def test_construction_by_position_keyword_and_default():
    assert Var(index=2) == Var(2)
    cited = Certificate("ZeroPresent", (1,))
    assert cited == Certificate(kind="ZeroPresent", idempotents=(1,), union=None,
                                witness=None, closure_size=None, exact=None)
    assert Certificate("ZeroPresent", (1,), exact=True).exact is True
    for bad in (
        lambda: Var(),  # missing
        lambda: Certificate("ZeroPresent"),  # missing, with defaults after it
        lambda: Var(index=0, sign=1),  # unknown
        lambda: Certificate("ZeroPresent", idem=(1,)),  # unknown and missing
        lambda: Var(0, index=0),  # repeated
        lambda: Var(0, 1),  # too many
    ):
        with pytest.raises(TypeError):
            bad()


def test_post_init_checks_run_on_construction_and_replace():
    with pytest.raises(ValueError):
        Var(-1)
    with pytest.raises(ValueError):
        Var(0).replace(index=-1)
    with pytest.raises(TypeError):
        Var(0).replace(sign=1)
    assert Var(0).replace(index=3) == Var(3)
    cert = ed_verdict(BRANDT).certificates[-1]
    changed = cert.replace(exact=False)
    assert changed.exact is False and changed.witness == cert.witness
    assert cert.exact is True


def test_label_and_generating_set_are_not_compared():
    sg = by_name("chain2")
    other = sg.replace(label="other", generating_set=())
    assert other.label == "other" and other == sg and hash(other) == hash(sg)
    assert sg != by_name("chain3")


def test_cached_properties_stay_out_of_eq_hash_and_repr():
    sg = chain_semilattice(3)
    twin = sg.replace()
    assert "idempotent_order" not in sg.__dict__
    before = (hash(sg), repr(sg))
    order = sg.idempotent_order
    assert sg.idempotent_order is order  # built once
    assert (hash(sg), repr(sg)) == before and sg == twin
    assert repr(order) == "IdempotentOrder(elements=(0, 1, 2))"
    assert "_right" not in sg.__dict__
    right = sg._right
    assert sg._right is right  # built once
    assert right == tuple(tuple(row[c] for row in sg.table) for c in range(sg.order))
    assert (hash(sg), repr(sg)) == before and sg == twin and "_right" not in twin.__dict__
    # k = 256 // 3 = 85 chunks of 3 codes: j 3 + a maps to j 3 + a c
    assert "_right_codes" not in sg.__dict__
    codes = sg._right_codes
    assert sg._right_codes is codes  # built once
    assert codes == tuple(
        bytes(j * 3 + right[c][a] for j in range(85) for a in range(3)) + bytes(1)
        for c in range(3)
    )
    assert (hash(sg), repr(sg)) == before and sg == twin
    assert "_right_codes" not in twin.__dict__ and "codes" not in repr(sg)
    brandt = BRANDT.replace()
    assert "incomparable_pairs" not in brandt.__dict__
    pairs = brandt.incomparable_pairs
    assert brandt.incomparable_pairs is pairs and pairs == ((0, 3), (3, 0))
    assert brandt == BRANDT and hash(brandt) == hash(BRANDT)
    assert repr(brandt) == repr(BRANDT) and "incomparable" not in repr(brandt)
    assert "table" not in repr(order)
    clone = clone_closure(sg, 1)
    before = (hash(clone), repr(clone))
    assert clone.tables == frozenset(clone.functions)
    assert (hash(clone), repr(clone)) == before
    assert clone == clone_closure(sg, 1)
