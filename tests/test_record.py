"""The value records compare, hash, print, refuse mutation, validate and
survive pickle and copy as frozen dataclasses do."""

import copy
import pickle

import pytest

from helpers import P5, P7, P13, context, triple_of
from markoff.counting import CountReport, CountTerm, count_finite_field, cumulative_signatures
from markoff.errors import ModulusMismatch
from markoff.field import PrimeModulus
from markoff.oracle import CensusReport, census
from markoff.poly import Polynomial
from markoff.triples import (
    RHO,
    ConstantForm,
    DescentResult,
    DoubleNeg,
    MarkoffContext,
    MarkoffTriple,
    Rho,
    Swap,
    TreeNode,
    ZeroForm,
)

T = Polynomial.t(P13)
CTX = context(P13, "1")
ROOT = triple_of("(t; t+2*i; t^2+2*i*t-2)", P13)
DEEP = triple_of("(t+2*i; t^2+2*i*t-2; t^3+4*i*t^2-7*t-4*i)", P13)

# name -> (builder, a field name, the repr the frozen dataclasses printed);
# each builder makes a new, equal record on every call
RECORDS = {
    "PrimeModulus": (lambda: PrimeModulus(13), "p", "PrimeModulus(13)"),
    "Polynomial": (lambda: Polynomial(P13, [3, 1]), "coeffs", "Polynomial(p=13, 't+3')"),
    "Swap": (lambda: Swap(1, 2), "i", "Swap(i=1, j=2)"),
    "DoubleNeg": (lambda: DoubleNeg(1, 2), "j", "DoubleNeg(i=1, j=2)"),
    "Rho": (lambda: Rho(), None, "Rho()"),
    "MarkoffTriple": (
        lambda: triple_of("(0; 5*t; t)", P13),
        "x",
        "MarkoffTriple(x=Polynomial(p=13, '0'), y=Polynomial(p=13, '5*t'), "
        "z=Polynomial(p=13, 't'))",
    ),
    "ZeroForm": (lambda: ZeroForm(T, -1), "sign", "ZeroForm(f=Polynomial(p=13, 't'), sign=-1)"),
    "ConstantForm": (
        lambda: ConstantForm(T, 1, -1),
        "a",
        "ConstantForm(f=Polynomial(p=13, 't'), a=1, sign=-1)",
    ),
    "MarkoffContext": (
        lambda: context(P13, "t"),
        "A",
        "MarkoffContext(p=PrimeModulus(13), A=Polynomial(p=13, 't'))",
    ),
    "DescentResult": (
        lambda: CTX.descend(DEEP),
        "word",
        "DescentResult(fundamental=MarkoffTriple(x=Polynomial(p=13, '2'), "
        "y=Polynomial(p=13, 't+10'), z=Polynomial(p=13, 't')), "
        "word=(Rho(), Swap(i=2, j=3), Rho(), Swap(i=2, j=3), Swap(i=1, j=2)))",
    ),
    "TreeNode": (
        lambda: TreeNode(ROOT, None, ()),
        "children",
        "TreeNode(triple=MarkoffTriple(x=Polynomial(p=13, 't'), y=Polynomial(p=13, 't+10'), "
        "z=Polynomial(p=13, 't^2+10*t+11')), branch=None, children=())",
    ),
    "CountTerm": (lambda: CountTerm(2, 1, 80), "multiplier", "CountTerm(d=2, e=1, multiplier=80)"),
    "CountReport": (
        lambda: count_finite_field(5, 1, 1),
        "terms",
        "CountReport(value=80, terms=(CountTerm(d=1, e=1, multiplier=80),), empty_field=False)",
    ),
    "CumulativeReport": (
        lambda: cumulative_signatures(2),
        "total",
        "CumulativeReport(total=5, lower=Fraction(7, 2), upper=Fraction(11, 2))",
    ),
    "CensusReport": (
        lambda: census(context(P5, "t"), 1, "degree_sorted"),
        "formula",
        "CensusReport(q=5, A=Polynomial(p=5, 't'), n=1, convention='degree_sorted', "
        "total=48, fundamental_count=40, nonfundamental_count=0, constant_orbit_count=8, "
        "formula=CountReport(value=80, terms=(CountTerm(d=1, e=1, multiplier=80),), "
        "empty_field=False), fundamental_term=80, nonfundamental_term=0, "
        "fundamental_ratio=Fraction(1, 2), nonfundamental_ratio=None)",
    ),
}

NAMES = sorted(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_class_and_fields(name):
    build, _, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    others = [RECORDS[other][0]() for other in NAMES if other != name]
    assert all(a != other and other != a for other in others)


def test_equality_needs_the_same_class():
    assert Swap(1, 2) != DoubleNeg(1, 2)
    assert Swap(1, 2) != Swap(2, 1) and Swap(1, 2) != (1, 2)
    assert RHO == Rho() and RHO is not Rho()
    assert Polynomial(P5, [1, 1]) != Polynomial(P7, [1, 1])
    assert PrimeModulus(5) != 5
    assert CountReport(0, ()) != CountReport(0, (), empty_field=True)


@pytest.mark.parametrize("name", NAMES)
def test_hash_agrees_with_equality(name):
    build, _, _ = RECORDS[name]
    assert hash(build()) == hash(build())
    assert len({build(), build()}) == 1


def test_unequal_records_hash_apart():
    swaps = {Swap(i, j) for i in range(1, 4) for j in range(1, 4)}
    assert len(swaps) == 9
    assert len({Swap(1, 2), DoubleNeg(1, 2), RHO, Rho()}) == 3


def test_equal_over_distinct_but_equal_moduli():
    # records built on two separate PrimeModulus(13) objects compare their
    # moduli field by field, not by identity
    m, n = PrimeModulus(13), PrimeModulus(13)
    assert m is not n and m == n and hash(m) == hash(n)
    f, g = Polynomial(m, [3, 1]), Polynomial(n, [3, 1])
    assert f == g and g == f and not f != g and hash(f) == hash(g)
    assert {f: "f"}[g] == "f" and len({f, g}) == 1
    triple = MarkoffTriple(Polynomial.t(m), Polynomial.t(n), Polynomial.zero(m))
    assert triple == MarkoffTriple(Polynomial.t(n), Polynomial.t(m), Polynomial.zero(n))
    A = Polynomial.constant(PrimeModulus(13), 1)
    assert MarkoffContext(PrimeModulus(13), A).is_solution(triple_of("(t; t+2*i; t^2+2*i*t-2)", m))
    with pytest.raises(ModulusMismatch, match="^triple coordinates use different moduli$"):
        MarkoffTriple(Polynomial.t(m), Polynomial.t(PrimeModulus(17)), Polynomial.t(n))


def test_polynomial_never_equals_its_tuples():
    f = Polynomial(PrimeModulus(13), [3, 1])
    for other in (f.coeffs, (3, 1), (f.modulus, f.coeffs), [3, 1]):
        assert f != other and other != f and not f == other


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    build, field, _ = RECORDS[name]
    record = build()
    before = repr(record)
    for attr in (field, "unknown") if field else ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert repr(record) == before and record == build()


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "round_trip",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, round_trip):
    build, _, text = RECORDS[name]
    record = build()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record) and repr(again) == text


def test_keyword_construction():
    terms = (CountTerm(d=1, e=1, multiplier=8),)
    assert CountReport(value=8, terms=terms) == CountReport(8, terms, False)
    assert CountReport(value=0, terms=(), empty_field=True).empty_field is True
    descent = DescentResult(fundamental=ROOT, word=())
    assert (descent.fundamental, descent.word) == (ROOT, ())
    assert MarkoffTriple(x=ROOT.x, y=ROOT.y, z=ROOT.z) == ROOT
    assert MarkoffContext(p=P13, A=T) == context(P13, "t")
    report = census(context(P5, "t"), 1, "degree_sorted")
    again = CensusReport(
        q=5,
        A=report.A,
        n=1,
        convention="degree_sorted",
        total=48,
        fundamental_count=40,
        nonfundamental_count=0,
        constant_orbit_count=8,
        formula=report.formula,
        fundamental_term=80,
        nonfundamental_term=0,
        fundamental_ratio=report.fundamental_ratio,
        nonfundamental_ratio=None,
    )
    assert again == report and repr(again) == RECORDS["CensusReport"][2]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: MarkoffTriple(T, T, Polynomial.t(P5)), ModulusMismatch,
         "triple coordinates use different moduli"),
        (lambda: ZeroForm(T, 0), ValueError, "sign must be +1 or -1"),
        (lambda: ZeroForm(Polynomial.constant(P13, 2), 1), ValueError, "f must be non-constant"),
        (lambda: ConstantForm(T, 2, 1), ValueError, "a and sign must be +1 or -1"),
        (lambda: ConstantForm(T, 1, -2), ValueError, "a and sign must be +1 or -1"),
        (lambda: ConstantForm(Polynomial.zero(P13), 1, 1), ValueError, "f must be non-constant"),
        (lambda: MarkoffContext(P5, T), ModulusMismatch,
         "A is not a polynomial over the given field"),
        (lambda: MarkoffContext(P13, Polynomial.zero(P13)), ValueError, "A must be nonzero"),
        (lambda: PrimeModulus(13.0), TypeError, "modulus must be an int"),
        (lambda: PrimeModulus(15), ValueError, "modulus must be an odd prime, got 15"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message
