"""Good terms and the conjugator normal forms on idempotent arguments."""

import hashlib
import random

import pytest

from helpers import random_term, shared_term_batch
from eqdom.catalog import CATALOG_NAMES, by_name
from eqdom.goodterms import (
    VAR_ONLY,
    GoodTerm,
    NormalizedUnary,
    evaluate_good,
    normalize_binary,
    normalize_unary,
)
from eqdom.semigroup import natural_order
from eqdom.terms import evaluate, flatten, parse, variables_of

SIM2 = by_name("sim2")
CHAIN3 = by_name("chain3")
S = SIM2.index("2_")  # the map 1 -> 2, not idempotent
SWAP = SIM2.index("21")


def _nf_value_unary(sg, nf, e):
    got = evaluate_good(sg, nf.good, e)
    return got if nf.tail is None else sg.table[got][nf.tail]


def test_bare_variable_normalizes_to_var_only():
    nf = normalize_unary(SIM2, flatten(SIM2, parse("x1", 1, SIM2)))
    assert nf.good is VAR_ONLY
    assert nf.tail is None


def test_inverted_variable_matches_bare_variable_on_idempotents_only():
    flat = flatten(SIM2, parse("x1^-1", 1, SIM2))
    nf = normalize_unary(SIM2, flat)
    assert nf.good is VAR_ONLY and nf.tail is None
    # off the idempotents the source term is a genuinely different function
    assert evaluate(SIM2, flat, (S,)) != S


def test_conjugator_prefix_rule_unary():
    # s x x normalizes to (s x s^-1)(s x s^-1) * s
    flat = flatten(SIM2, parse("2_ x1 x1", 1, SIM2))
    nf = normalize_unary(SIM2, flat)
    assert nf.good == GoodTerm((S, S))
    assert nf.tail == S
    for e in sorted(SIM2.idempotents):
        assert _nf_value_unary(SIM2, nf, e) == SIM2.table[S][e]


def test_trailing_constants_go_to_the_tail():
    flat = flatten(CHAIN3, parse("x1 f", 1, CHAIN3))
    nf = normalize_unary(CHAIN3, flat)
    assert nf.good == GoodTerm((None,))
    assert nf.tail == CHAIN3.index("f")


def test_binary_splits_by_variable():
    flat = flatten(SIM2, parse("x1 x2 x1", 2, SIM2))
    nf = normalize_binary(SIM2, flat)
    assert nf.good_x == GoodTerm((None, None))
    assert nf.good_y == GoodTerm((None,))
    assert nf.tail is None


def test_binary_prefix_products():
    # 2_ x2 _1 x1: y is conjugated by 2_, x by 2_ _1 = 1_, tail 1_
    flat = flatten(SIM2, parse("2_ x2 _1 x1", 2, SIM2))
    nf = normalize_binary(SIM2, flat)
    prefix = SIM2.table[S][SIM2.index("_1")]
    assert SIM2.names[prefix] == "1_"
    assert nf.good_y == GoodTerm((S,))
    assert nf.good_x == GoodTerm((prefix,))
    assert nf.tail == prefix


def test_normalization_requires_the_variables_to_occur():
    with pytest.raises(ValueError, match="must occur"):
        normalize_unary(SIM2, flatten(SIM2, parse("2_", 1, SIM2)))
    with pytest.raises(ValueError, match="only x1 "):
        normalize_unary(SIM2, flatten(SIM2, parse("x2", 2, SIM2)))
    with pytest.raises(ValueError, match="x2 must occur"):
        normalize_binary(SIM2, flatten(SIM2, parse("x1 x1", 2, SIM2)))
    with pytest.raises(ValueError, match="only x1 and x2"):
        normalize_binary(SIM2, flatten(SIM2, parse("x1 x2 x3", 3, SIM2)))


def test_good_term_needs_conjugators_or_var_only():
    with pytest.raises(ValueError):
        GoodTerm(())


def test_evaluate_good_rejects_non_idempotents():
    with pytest.raises(ValueError, match="not idempotent"):
        evaluate_good(SIM2, VAR_ONLY, SWAP)
    # an index outside S is named in the error, not looked up
    with pytest.raises(ValueError, match="argument index 7 is not an element"):
        evaluate_good(by_name("chain2"), VAR_ONLY, 7)


def test_single_conjugate_is_idempotent():
    for s in range(SIM2.order):
        g = GoodTerm((s,))
        for e in sorted(SIM2.idempotents):
            v = evaluate_good(SIM2, g, e)
            assert v in SIM2.idempotents
            assert v == SIM2.table[SIM2.table[s][e]][SIM2.inv[s]]


def test_good_value_is_multiplicative_over_idempotents():
    idems = sorted(SIM2.idempotents)
    for s in range(SIM2.order):
        for t in range(SIM2.order):
            g = GoodTerm((s, t))
            for e in idems:
                for f in idems:
                    ef = SIM2.table[e][f]
                    assert evaluate_good(SIM2, g, ef) == SIM2.table[
                        evaluate_good(SIM2, g, e)
                    ][evaluate_good(SIM2, g, f)]


def test_good_value_is_monotone():
    order = natural_order(CHAIN3)
    for s in range(CHAIN3.order):
        g = GoodTerm((s, None, s))
        for e in order.elements:
            for f in order.elements:
                if order.leq(e, f):
                    ve = evaluate_good(CHAIN3, g, e)
                    vf = evaluate_good(CHAIN3, g, f)
                    assert CHAIN3.table[ve][vf] == ve


def test_formatting():
    nf = normalize_unary(SIM2, flatten(SIM2, parse("2_ x1 x1", 1, SIM2)))
    assert nf == NormalizedUnary(GoodTerm((S, S)), S)
    bare = normalize_unary(SIM2, flatten(SIM2, parse("x1", 1, SIM2)))
    assert bare.good == VAR_ONLY and bare.tail is None


def test_random_terms_normalize_and_agree_on_idempotents():
    rng = random.Random("goodterm-batch")
    for sg in (CHAIN3, SIM2):
        idems = sorted(sg.idempotents)
        done_u = done_b = 0
        while done_u < 60 or done_b < 60:
            arity = 1 if done_u < 60 else 2
            flat = flatten(sg, random_term(rng, arity, sg.order))
            if arity == 1 and variables_of(flat) == {0}:
                nf = normalize_unary(sg, flat)
                for e in idems:
                    assert _nf_value_unary(sg, nf, e) == evaluate(sg, flat, (e,))
                done_u += 1
            elif arity == 2 and variables_of(flat) == {0, 1}:
                nf = normalize_binary(sg, flat)
                for e in idems:
                    for f in idems:
                        got = sg.table[evaluate_good(sg, nf.good_x, e)][
                            evaluate_good(sg, nf.good_y, f)
                        ]
                        if nf.tail is not None:
                            got = sg.table[got][nf.tail]
                        assert got == evaluate(sg, flat, (e, f))
                done_b += 1


# sha256 over repr() of every normal form of the shared term batches, in
# catalog order: per entry, the unary forms of shared_term_batch(name, 1, 500)
# that use exactly x1, then the binary forms of shared_term_batch(name, 2, 500)
# that use exactly x1 and x2.
NORMAL_FORMS_SHA256 = "6b7c835b2c11fa608dcd2d0aeb7c668c5e9fd11dc31d4066af52fb9cc5dc3df9"


def test_normal_forms_of_the_shared_batches_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for name in CATALOG_NAMES:
        sg = by_name(name)
        for arity, normalize in ((1, normalize_unary), (2, normalize_binary)):
            for term in shared_term_batch(name, arity, 500):
                flat = flatten(sg, term)
                if variables_of(flat) == set(range(arity)):
                    digest.update(repr(normalize(sg, flat)).encode())
                    count += 1
    assert count == 7503
    assert digest.hexdigest() == NORMAL_FORMS_SHA256
