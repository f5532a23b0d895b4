from __future__ import annotations

import contextlib
import io
import itertools
import math
import operator
import pathlib
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wtw import FrameSpec, SpecFormatError, builtin, conditions, load_spec, verify_assignment
from wtw.cli import main
from wtw.polyalg import (_MAX_EXPONENT, _MAX_PRODUCT_PAIRS, ExponentOverflowError,
                         PolynomialParseError, Ring, RingMismatchError, Scalar, _parse_rational,
                         normalize_up_to_unit, normalized_system)

RING = Ring(("a1", "a2", "a3"))
A1, A2, A3 = RING.sym("a1"), RING.sym("a2"), RING.sym("a3")


def test_additive_inverse():
    assert (A1 + (-A1)).is_zero


def test_disjoint_terms_add():
    p = A1 * A2 + A1
    assert dict(p.terms()) == {(1, 1, 0): 1, (1, 0, 0): 1}


def test_mul_identity_and_expansion():
    p = A1 * A2 + 3
    assert RING.one() * p == p
    assert A1 * (A2 - 1) == A1 * A2 - A1


def test_scaled_product_matches_table_entry():
    value = A2 * (A2 + 2) * Fraction(-1, 2)
    assert str(value) == "-1/2*a2^2 - a2"


def test_substitute_solution_point():
    p = A1 * (A2 - 1)
    assert p.substitute({"a1": 0, "a2": 1}).is_zero
    q = A1 ** 2 + (A2 - 1) ** 2
    assert q.substitute({"a1": 0, "a2": 1}).is_zero


def test_substitute_empty_and_partial():
    p = A1 ** 2 + A2 ** 2
    assert p.substitute({}) == p
    assert p.substitute({"a1": 3}) == A2 ** 2 + 9


def test_substitute_unknown_symbol():
    with pytest.raises(KeyError):
        A1.substitute({"b": 1})


def test_sym_refuses_an_undeclared_name():
    with pytest.raises(KeyError, match="symbol 'b' not declared in ring"):
        RING.sym("b")


@pytest.mark.parametrize("exps, message", [
    ((1, 0), r"expected 3 exponents, got \(1, 0\)"),
    ((1, -1, 0), r"negative exponent in \(1, -1, 0\)"),
], ids=["too-few", "negative"])
def test_constructor_refuses_a_malformed_exponent_tuple(exps, message):
    with pytest.raises(ValueError, match=message):
        Scalar(RING, {exps: 1})


def test_total_degree_of_zero_and_of_a_polynomial():
    assert RING.zero().total_degree() == 0
    assert (A1 * A2 ** 2 + A3).total_degree() == 3


def test_constant_value_refuses_a_polynomial():
    assert (A1 - A1 + Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError, match=r"^not a constant polynomial: a1 \+ 1$"):
        (A1 + 1).constant_value()


def test_ring_mismatch():
    other = Ring(("x",))
    with pytest.raises(RingMismatchError):
        A1 + other.sym("x")


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_ring_mismatch_with_zero_or_one_operand(op):
    other = Ring(("x",))
    for left, right in ((A1, other.zero()), (other.zero(), A1),
                        (RING.zero(), other.zero()), (RING.one(), other.one())):
        with pytest.raises(RingMismatchError):
            op(left, right)


def test_equal_rings_interoperate():
    twin = Ring(RING.symbols)
    assert twin is not RING
    assert twin.sym("a1") + A1 == 2 * A1


def test_normalize_content_and_sign():
    p = Fraction(-2) * A1 * (A2 - 1)
    assert normalize_up_to_unit(p) == A1 * A2 - A1


def test_normalize_zero_and_scale_invariance():
    assert normalize_up_to_unit(RING.zero()).is_zero
    q = A1 * A2 - A1 + Fraction(1, 3)
    n = 4
    scaled = q * Fraction(n, 2) - q  # (n/2 - 1) q with n = 4
    assert normalize_up_to_unit(scaled) == normalize_up_to_unit(q)


def test_normalized_system_drops_zeros_and_units():
    polys = [RING.zero(), 2 * A1, Fraction(-1, 3) * A1, A2 - A2]
    assert normalized_system(polys) == ((A1,), 2)


def test_rendering_contract():
    assert str(RING.zero()) == "0"
    assert str(RING.const(Fraction(-3, 4))) == "-3/4"
    assert str(A1 - A2) == "a1 - a2"
    assert str(-A1 + 2 * A2 ** 2) == "-a1 + 2*a2^2"
    assert str(A1 * A2 ** 2 * Fraction(5, 2) + 1) == "5/2*a1*a2^2 + 1"


def test_parse_roundtrip_and_operators():
    p = RING.parse("-1/2*a2^2 - a2")
    assert p == A2 * (A2 + 2) * Fraction(-1, 2)
    assert RING.parse("(a1 + a2)^2") == A1 ** 2 + 2 * A1 * A2 + A2 ** 2
    assert RING.parse("3") == RING.const(3)
    assert str(RING.parse(str(p))) == str(p)


@pytest.mark.parametrize("bad", ["a1 +", "b2", "a1^a2", "1/(a1)", "a1**2", "(a1",
                                 "a1^(2)", "a1^2^3", "a1^-2", "0x10", "1_000", "1e3", "1.5", "1j",
                                 "True", "a1 # c", "a1;a2", "a1\\\n+a2", "a1(a2)", "()", "a1//2"])
def test_parse_errors(bad):
    with pytest.raises(PolynomialParseError):
        RING.parse(bad)


@pytest.mark.parametrize("text", ["\u0663", "a1 + \u0663", "\u0663*a1", "a1^\u0663",
                                  "a1^2\u0663", "\uff11", "\u0661\u0660"])
def test_parse_refuses_non_ascii_digits(text):
    """Digits are ASCII only, as ``_parse_rational`` reads them in brackets, in
    J and in ``--assign``: "\u0663" (ARABIC-INDIC DIGIT THREE) is not 3, and
    the refusal is one line."""
    with pytest.raises(PolynomialParseError) as info:
        RING.parse(text)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError):
        _parse_rational("\u0663")


@pytest.mark.parametrize("symbols, text, expected", [
    (RING.symbols, " a1", "a1"), (RING.symbols, "a1 ^ 2", "a1^2"),
    (RING.symbols, "007*a1", "7*a1"), (RING.symbols, "a1\n+ a2", "a1 + a2"),
    (("lambda", "None"), "lambda + None", "lambda + None"),
    (("True", "_", "e3"), "\tTrue*_ - e3^ 03", "True*_ - e3^3")])
def test_parse_accepts_whitespace_leading_zeros_and_keyword_names(symbols, text, expected):
    """Whitespace, tabs and line breaks separate tokens; a literal may have
    leading zeros; a symbol may be named as a Python keyword or constant."""
    assert str(Ring(symbols).parse(text)) == expected


@pytest.mark.parametrize("depth, ok", [(100, True), (101, False)])
def test_parse_depth_cap(depth, ok):
    # `depth` levels of parentheses, of minus signs, and of signs and parentheses mixed
    half, odd = divmod(depth, 2)
    texts = ["(" * depth + "a1" + ")" * depth, "-" * depth + "a1",
             "+(" * half + "-" * odd + "a1" + ")" * half]
    for text in texts:
        if ok:
            assert RING.parse(text) == A1
        else:
            with pytest.raises(PolynomialParseError, match="nest deeper than 100"):
                RING.parse(text)


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        A1 ** -1
    assert A1 ** 0 == RING.one()


def test_exponent_cap_in_arithmetic():
    top = A1 ** _MAX_EXPONENT
    assert top.total_degree() == _MAX_EXPONENT
    assert dict((A1 ** 20000).terms()) == {(20000, 0, 0): 1}  # no squaring past the last bit
    assert top * A2 * 3 == Scalar(RING, {(_MAX_EXPONENT, 1, 0): 3})
    for overflow in (lambda: top * A1, lambda: A1 ** (_MAX_EXPONENT + 1),
                     lambda: RING.dot([0, top, A2], [A1, A1, A1]),
                     lambda: (top + 1) * (A1 - 1),
                     lambda: Scalar(RING, {(0, _MAX_EXPONENT + 1, 0): 1})):
        with pytest.raises(ExponentOverflowError, match=f"above the cap of {_MAX_EXPONENT}"):
            overflow()
    # a product whose overflowing terms cancel has no exponent above the cap
    assert (top * A2 - A2 * top).is_zero


def test_exponent_cap_in_parse():
    assert RING.parse(f"a1^{_MAX_EXPONENT}") == A1 ** _MAX_EXPONENT
    for text in (f"a1^{_MAX_EXPONENT + 1}", f"2^{_MAX_EXPONENT + 1}",
                 f"a1^{_MAX_EXPONENT} * a1", f"(a1^{_MAX_EXPONENT} + 1)^2"):
        with pytest.raises(PolynomialParseError, match="above the cap"):
            RING.parse(text)


@pytest.mark.parametrize("text", ["(a1 + 1)^1000", "(a1 + a2 + a3)^60", "(a1+1)^999*(a2+1)",
                                  "3^32767*3^32767", "(2^32767)^4", "(7^32767)^2", "9" * 5000,
                                  "a1^" + "9" * 5000])
def test_parse_refuses_oversized_input(text):
    with pytest.raises(PolynomialParseError):
        RING.parse(text)


@pytest.mark.parametrize("text", ["(1/3*a1+2/7)^999", "(a1+1)^999"])
def test_parse_bounds_terms_times_coefficient_bits(text):
    # 1,000 terms of about 8,000 or 2,000 bits: neither count is large on its
    # own, but the power's cost grows with their product
    with pytest.raises(PolynomialParseError, match="terms times coefficient bits"):
        RING.parse(text)
    value = RING.parse("(a1+1)^20")
    assert [c for _, c in value.terms()] == [math.comb(20, k) for k in range(21)]


# -- randomized ring laws ---------------------------------------------------

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
scalars = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Scalar(RING, {e: Fraction(c) for e, c in terms.items()}))


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_substitute_is_a_homomorphism(p, q):
    point = {"a1": Fraction(2, 3), "a3": -1}
    assert (p * q).substitute(point) == p.substitute(point) * q.substitute(point)
    assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)


@given(scalars, st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(lambda c: c != 0))
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent_and_scale_invariant(p, c):
    n = normalize_up_to_unit(p)
    assert normalize_up_to_unit(n) == n
    assert normalize_up_to_unit(p * c) == n


points = st.fixed_dictionaries({name: coeffs for name in RING.symbols})
specials = st.sampled_from([RING.zero(), RING.one(), -RING.one(), RING.const(Fraction(-3, 2))])


@given(scalars, st.one_of(scalars, specials), points,
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
@settings(max_examples=80, deadline=None)
def test_results_are_canonical_and_agree_with_substitute(p, q, point, frac):
    def at(x):
        return x.substitute(point).constant_value() if isinstance(x, Scalar) else Fraction(x)

    cases = []
    for a, b in ((p, q), (q, p), (p, -p), (p, p), (p, p + q)):
        cases += [(a + b, at(a) + at(b)), (a - b, at(a) - at(b)), (a * b, at(a) * at(b))]
    for c in (0, 1, -1, frac):
        cases += [(p * c, at(p) * c), (c * p, at(p) * c), (p + c, at(p) + c),
                  (c + p, at(p) + c), (p - c, at(p) - c), (c - p, c - at(p))]
    for result, expected in cases:
        assert all(coeff != 0 for _, coeff in result.terms()), result
        assert at(result) == expected


# Tokens of polynomial strings: declared and undeclared names, operators,
# whitespace, short and over-long integer literals, exponents about the cap,
# and what Python would read as something else: keywords and constants,
# comments, attributes, underscores, exponent, hexadecimal and zero-led
# literals, "**", commas and brackets.
parse_names = st.sampled_from(["a1", "a2", "a3", "b", "a1a2", "lambda", "None", "True", "_"])
parse_literals = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.integers(_MAX_EXPONENT - 2, _MAX_EXPONENT + 2).map(str),
    st.integers(4290, 4310).map(lambda size: "9" * size),
    st.sampled_from(["007", "e3", "0x1"]))
parse_tokens = st.one_of(
    parse_names, parse_literals,
    st.sampled_from(["+", "-", "*", "/", "^", "(", ")", " ", "\t", "\n", "**", "#", ".", ",",
                     "["]))


@given(st.lists(parse_tokens, max_size=24).map("".join))
@settings(max_examples=300, deadline=None)
def test_parse_fuzz_gives_a_scalar_or_a_parse_error(text):
    try:
        value = RING.parse(text)
    except PolynomialParseError:
        return
    assert isinstance(value, Scalar) and value.ring is RING
    assert value.total_degree() <= _MAX_EXPONENT * len(RING.symbols)


# Polynomial strings built from the names, literals and whitespace of
# ``parse_tokens`` by the grammar, so that most of them parse.
_spaces = st.sampled_from(["", " ", "\t", "\n "])
polynomial_strings = st.recursive(
    st.one_of(parse_names, parse_literals),
    lambda inner: st.one_of(
        st.tuples(inner, _spaces, st.sampled_from("+-*/"), _spaces, inner).map("".join),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda pair: f"({pair[0]})^{pair[1]}")),
    max_leaves=8)


@given(polynomial_strings)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_parse_agrees_with_sympy(text):
    """A value oracle: sympy reads the string, once ``^`` is ``**``, whitespace
    runs are single spaces and leading zeros are gone, and expands it; the
    parsed scalar must be that polynomial.  Strings whose coefficients reach
    4,300 digits are skipped, so that no int is printed past its limit."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import parse_expr

    try:
        value = RING.parse(text)
    except PolynomialParseError:
        assume(False)
    assume(all(max(abs(c.numerator), c.denominator) < 10 ** 4299 for _, c in value.terms()))
    symbols = sympy.symbols(RING.symbols)
    built = sum((sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                 for exps, c in value.terms()), sympy.Integer(0))
    written = re.sub(r"\b0+(?=\d)", "", " ".join(text.split())).replace("^", "**")
    local = {name: s for name, s in zip(RING.symbols, symbols)}
    assert sympy.expand(parse_expr(written, local_dict=local) - built) == 0


wide_exponents = st.tuples(*[st.integers(0, _MAX_EXPONENT)] * 3)


@given(st.dictionaries(st.one_of(exponents, wide_exponents), coeffs, max_size=6))
@settings(max_examples=80, deadline=None)
def test_terms_descend_lexicographically_and_coefficients_round_trip(terms):
    p = Scalar(RING, terms)
    listed = list(p.terms())
    keys = [e for e, _ in listed]
    assert keys == sorted((e for e, c in terms.items() if c), reverse=True)
    for e, c in listed:
        assert c == terms[e]
    assert Scalar(RING, dict(listed)) == p


# -- the integer-numerator representation -----------------------------------

mixed = st.fractions(min_value=-6, max_value=6, max_denominator=12)
mixed_terms = st.dictionaries(exponents, mixed, max_size=4)
mixed_scalars = mixed_terms.map(lambda terms: Scalar(RING, terms))


def assert_canonical(p):
    nums = list(p._terms.values())
    assert p._den > 0, p
    assert math.gcd(p._den, *nums) == 1, p
    assert all(nums), p
    assert bool(p) == (not p.is_zero)


@given(mixed_scalars, mixed_scalars, mixed)
@settings(max_examples=80, deadline=None)
def test_every_result_is_canonical(p, q, c):
    assert_canonical(p)
    results = [p + q, p - q, q - p, p * q, p - p, p + (-p), -p, p * p,
               p * c, c * p, p + c, c + p, p - c, c - p, p * 0, p * 1, p * -1,
               p * 6, p * Fraction(1, 6), normalize_up_to_unit(p)]
    for result in results:
        assert_canonical(result)
    assert not RING.zero() and not (p - p) and RING.one() and A1


@given(mixed_terms)
@settings(max_examples=80, deadline=None)
def test_constructor_arithmetic_and_parse_agree(terms):
    built = Scalar(RING, terms)
    summed = sum((c * A1 ** e1 * A2 ** e2 * A3 ** e3 for (e1, e2, e3), c in terms.items()),
                 RING.zero())
    detour = (summed * 6 + A1 * Fraction(1, 4) - Fraction(1, 4) * A1) * Fraction(1, 6)
    parsed = RING.parse(str(built))
    for other in (summed, detour, parsed):
        assert other == built
        assert hash(other) == hash(built)
    negated = Scalar(RING, {e: -c for e, c in terms.items()})
    assert -built == negated and hash(-built) == hash(negated)
    assert dict(built.terms()) == {e: Fraction(c) for e, c in terms.items() if c}


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_a_constant_hashes_as_the_rational_it_equals(value):
    for const in (RING.const(value), Ring(()).const(value)):
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1
    assert len({RING.zero(), 0}) == 1 and len({RING.const(Fraction(1, 2)), Fraction(1, 2)}) == 1


@pytest.mark.parametrize("value", [0, 1, Fraction(-2, 3)])
def test_constants_of_different_rings_are_equal_in_every_order(value):
    """Two constants are equal when their rationals are, whatever their rings,
    as their hashes already are: equality is transitive, so a set of equal
    constants has one element in every insertion order."""
    a, b = Ring(("a1",)).const(value), Ring(("b1",)).const(value)
    assert a == value == b and a == b and b == a and hash(a) == hash(b)
    for order in itertools.permutations((a, value, b, Fraction(value))):
        assert len(set(order)) == 1, order
        assert len(dict.fromkeys(order)) == 1, order
    assert a != Ring(("b1",)).const(value + 1)


def test_non_constants_of_different_rings_stay_unequal():
    assert Ring(("x",)).sym("x") != Ring(("y",)).sym("y")
    assert Ring(("x",)).sym("x") != Ring(("x", "y")).sym("x")
    assert Ring(("x",)).parse("x + 1") != Ring(("x", "y")).parse("x + 1")
    assert Ring(("x",)).sym("x") != Ring(("y",)).const(1)


# -- the multiply-accumulate kernel ------------------------------------------

operands = st.one_of(mixed_scalars, st.sampled_from([RING.zero(), 0, Fraction(0)]),
                     st.integers(-6, 6), mixed)


@given(st.lists(operands, max_size=8), st.lists(operands, max_size=8))
@settings(max_examples=120, deadline=None)
def test_dot_equals_the_sum_of_products(u, v):
    """Mixed scalars, ints and Fractions with denominators up to 12, zeros on
    either side, empty and unequal-length inputs."""
    fused = RING.dot(u, v)
    summed = sum((a * b for a, b in zip(u, v)), RING.zero())
    assert isinstance(fused, Scalar)
    assert fused == summed and hash(fused) == hash(summed)
    assert_canonical(fused)
    assert RING.sum(u) == sum(u, RING.zero())


def test_dot_skips_zeros_and_keeps_the_common_denominator():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert RING.dot([], []).is_zero
    assert RING.dot([A1, 0, RING.zero()], [RING.zero(), A2, Fraction(5)]).is_zero
    assert RING.dot([A1 * half, third, A2], [2, A1 * 3, 0, 7]) == A1 * 2
    assert RING.dot([half, half], [1, 1]) == RING.one()
    assert_canonical(RING.dot([half, half], [1, 1]))


def test_dot_rejects_a_foreign_ring_zero_or_not():
    other = Ring(("x",))
    for u, v in (([A1], [other.sym("x")]), ([other.sym("x")], [A1]),
                 ([other.zero()], [A1]), ([0], [other.one()])):
        with pytest.raises(RingMismatchError):
            RING.dot(u, v)


@given(st.lists(operands, min_size=1, max_size=6), st.lists(operands, min_size=1, max_size=6),
       st.fractions(max_denominator=12).filter(bool), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_a_constant_scalar_acts_as_its_rational_in_either_position(u, v, q, at):
    """``ring.const(q)`` in place of ``q``, on either side of any pair, gives
    the same canonical result: the kernel scales by a constant scalar as by
    the rational it equals."""
    at %= min(len(u), len(v))
    for side, other in ((u, v), (v, u)):
        rational = [*side[:at], q, *side[at + 1:]]
        constant = [*side[:at], RING.const(q), *side[at + 1:]]
        for expected, got in ((RING.dot(rational, other), RING.dot(constant, other)),
                              (RING.dot(other, rational), RING.dot(other, constant))):
            assert got._terms == expected._terms and got._den == expected._den
            assert_canonical(got)


def test_the_kernel_checks_rings_and_caps_with_constants_as_rationals(monkeypatch):
    """A zero scalar of another ring raises in either position, whatever the
    other side; a product past the exponent cap raises, with or without a
    constant factor; and a constant factor counts for no product-pair cap,
    while a product of two polynomials past it still raises."""
    foreign = Ring(("x",)).zero()
    for other in (0, Fraction(0), 3, RING.zero(), RING.const(2), A1 + A2):
        for u, v in (([foreign], [other]), ([other], [foreign]),
                     ([A1, foreign], [A2, other]), ([A1, other], [A2, foreign])):
            with pytest.raises(RingMismatchError):
                RING.dot(u, v)
    top = A1 ** _MAX_EXPONENT
    for u, v in (([top], [A1]), ([A1], [top]), ([RING.const(3), top], [A2, A1 * 2]),
                 ([A1 + A2 ** _MAX_EXPONENT], [A2]),  # past the cap in a lower field
                 ([top * 2, A2], [A1 + 1, RING.const(Fraction(1, 2))])):
        with pytest.raises(ExponentOverflowError, match=f"above the cap of {_MAX_EXPONENT}"):
            RING.dot(u, v)
    assert RING.dot([RING.const(3)], [top]) == top * 3
    monkeypatch.setattr("wtw.polyalg._MAX_PRODUCT_PAIRS", 4)
    wide = A1 + A2 + A3 + 1
    assert RING.dot([RING.const(5), wide], [wide, RING.const(Fraction(-1, 3))]) == \
        RING.dot([5, wide], [wide, Fraction(-1, 3)])
    for u, v in (([wide], [A1 + A2]), ([A1 - A3], [wide]), ([RING.const(2), wide], [A1, A2 + 1])):
        with pytest.raises(ValueError, match="passes the cap of 4 term pairs"):
            RING.dot(u, v)

# -- the product against an independent reference ------------------------------
#
# Every operator is one call of ``Ring.dot``, so the kernel test above compares
# the kernel with itself; the independent references are substitution at a
# rational point (``test_results_are_canonical_and_agree_with_substitute``) and
# this one, which multiplies and adds exponent-tuple dictionaries of Fractions
# term by term.

def _naive_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return out


def _naive_sum(*terms: dict) -> dict:
    out: dict = {}
    for t in terms:
        for e, c in t.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


@given(mixed_terms, mixed_terms, mixed_terms, mixed_terms)
@settings(max_examples=150, deadline=None)
def test_products_match_the_naive_product_of_term_dicts(p, q, r, s):
    """p * q, and the kernel's p*q + r*s, against term-by-term products of
    exponent tuples and Fractions, zero coefficients and all."""
    P, Q, R, S = (Scalar(RING, t) for t in (p, q, r, s))
    product = P * Q
    assert dict(product.terms()) == _naive_sum(_naive_product(p, q))
    assert_canonical(product)
    assert product == Q * P
    fused = RING.dot((P, R), (Q, S))
    assert dict(fused.terms()) == _naive_sum(_naive_product(p, q), _naive_product(r, s))
    assert_canonical(fused)


# -- substitution, rendering and rational constants against Fraction oracles --
#
# ``substitute``, ``str`` and ``_parse_rational`` work on int numerators and
# never form a Fraction per term; these references do everything in Fractions
# from exponent tuples, ``terms()`` and ``Fraction(text)``.

def _naive_substitute(terms: dict, point: dict) -> dict:
    """sum c * prod(v^e) over the terms, the assigned symbols evaluated and the
    others kept, as an exponent-tuple dictionary without zero coefficients."""
    out: dict = {}
    for exps, c in terms.items():
        coeff = Fraction(c)
        rest = list(exps)
        for idx, name in enumerate(RING.symbols):
            if name in point:
                coeff *= Fraction(point[name]) ** exps[idx]
                rest[idx] = 0
        out[tuple(rest)] = out.get(tuple(rest), Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


deep_terms = st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3), mixed, max_size=6)
point_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, Fraction(-3, 2), Fraction(5, 7)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=9))
partial_points = st.dictionaries(st.sampled_from(RING.symbols), point_values)


@given(deep_terms, partial_points)
@settings(max_examples=200, deadline=None)
def test_substitute_matches_a_naive_fraction_evaluator(terms, point):
    """Full, partial and empty assignments; zero, negative and non-integer
    values; exponents up to 5."""
    value = Scalar(RING, terms).substitute(point)
    assert value.ring is RING
    assert dict(value.terms()) == _naive_substitute(terms, point)
    assert_canonical(value)


@given(deep_terms, point_values, partial_points)
@settings(max_examples=100, deadline=None)
def test_substitute_cancels_to_zero_at_a_root(terms, root, rest):
    """p * (a1 - root)^2 vanishes with a1 = root, whatever else is assigned;
    p * (a1 - root) + root * a2 keeps only what the root leaves of it."""
    p = Scalar(RING, terms)
    point = {**rest, "a1": root}
    value = (p * (A1 - root) ** 2).substitute(point)
    assert value.is_zero and value == 0
    assert_canonical(value)
    shifted = (p * (A1 - root) + A2 * root).substitute(point)
    assert shifted == (A2 * root).substitute(point)
    assert_canonical(shifted)


def _reference_render(p: Scalar) -> str:
    """The rendering contract, from ``terms()`` and Fraction coefficients."""
    text = ""
    for exps, c in p.terms():
        monomial = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(p.ring.symbols, exps) if e)
        mag = str(abs(c))
        body = mag if not monomial else monomial if mag == "1" else f"{mag}*{monomial}"
        if not text:
            text = f"-{body}" if c < 0 else body
        else:
            text += f" - {body}" if c < 0 else f" + {body}"
    return text or "0"


@given(st.dictionaries(st.one_of(exponents, wide_exponents),
                       st.one_of(mixed, st.fractions(max_denominator=10 ** 12)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_rendering_matches_a_reference_built_from_terms(terms):
    p = Scalar(RING, terms)
    assert str(p) == _reference_render(p)
    assert str(-p) == _reference_render(-p)


def test_rendering_a_coefficient_past_the_int_digit_limit_names_its_size():
    """Python converts at most 4,300 digits of an int to a string by default."""
    assert str(RING.const(10 ** 4299) * A1) == "1" + "0" * 4299 + "*a1"
    for value in (10 ** 4300 * A1 + 1, A1 * Fraction(1, 10 ** 4400)):
        with pytest.raises(ValueError, match=r"^cannot print a coefficient of 14\d{3} bits: "
                                             r"it has more decimal digits than"):
            str(value)


@given(st.integers(-10 ** 40, 10 ** 40), st.one_of(st.none(), st.integers(1, 10 ** 40)),
       st.booleans(), st.sampled_from(["", " ", "  ", "\t", "\n "]),
       st.sampled_from(["", " ", "\t "]))
@settings(max_examples=200, deadline=None)
def test_parse_rational_matches_fraction(num, den, plus, lead, trail):
    """Signs, an optional denominator and surrounding spaces, as Fraction reads them."""
    text = f"{lead}{'+' if plus and num >= 0 else ''}{num}{'' if den is None else f'/{den}'}{trail}"
    value = _parse_rational(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize("text", ["1/0", "-0/0", " 5/00 ", "1.5", "1e3", "1 /2", "", "+-1",
                                  "1_000", "0x1", "9" * 5000, "1/" + "9" * 5000])
def test_parse_rational_refuses_what_fraction_would_not_read_exactly(text):
    """A zero denominator, a part past int()'s 4,300 digits and anything but
    ``[+-]digits[/digits]`` raise ValueError."""
    with pytest.raises(ValueError):
        _parse_rational(text)


@pytest.mark.parametrize("text", ["1e3", "1.5", "1_000"])
def test_const_and_substitute_refuse_rational_strings_in_other_notations(text):
    """A string constant is read as ``[+-]digits[/digits]``, as documents and
    ``--assign`` read it, never by ``Fraction``, which takes these."""
    with pytest.raises(ValueError, match="not a rational constant"):
        RING.const(text)
    with pytest.raises(ValueError, match="not a rational constant"):
        (A1 + A2).substitute({"a1": text})


def test_const_and_substitute_read_rational_strings_exactly():
    assert RING.const("-1/2") == RING.const(Fraction(-1, 2)) == Fraction(-1, 2)
    assert (A1 * A2 + 1).substitute({"a1": "-1/2"}) == A2 * Fraction(-1, 2) + 1


def _frame(bracket=-1, phi=(0, 0, 0, 0)) -> FrameSpec:
    """[E1, E2] = bracket E1 with the standard J on four vectors."""
    return FrameSpec.create(4, ("a1",), {(0, 1): {0: bracket}},
                            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], phi)


_ENTRY_POINTS = {
    "Ring.const": RING.const,
    "Scalar.substitute": lambda value: (A1 + A2).substitute({"a1": value}),
    "Scalar": lambda value: Scalar(RING, {(1, 0, 0): value}),
    "FrameSpec.create-phi": lambda value: _frame(phi=(value, 0, 0, 0)),
    "FrameSpec.create-bracket": lambda value: _frame(bracket=value),
    "verify_assignment": lambda value: verify_assignment(
        conditions(builtin("kodaira", (1, 1))), {"a1": value}),
}


@pytest.mark.parametrize("value", [0.1, Decimal("0.1")], ids=["float", "Decimal"])
@pytest.mark.parametrize("enter", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS)
def test_entry_points_refuse_floats_and_decimals(enter, value):
    """There is no floating point anywhere: a float or a Decimal is not a
    rational constant, so every library entry point that reads one raises
    TypeError naming it, where ``Fraction`` would read 0.1 as
    3602879701896397/36028797018963968."""
    with pytest.raises(TypeError, match=re.escape(f"not a rational constant: {value!r}")):
        enter(value)


def test_scalar_reads_its_coefficients_as_constants():
    """The constructor reads each coefficient as ``Ring.const`` does, so
    exponent notation is refused and a zero, written as a string, is
    dropped."""
    with pytest.raises(ValueError, match="not a rational constant"):
        Scalar(RING, {(1, 0, 0): "1e3"})
    assert Scalar(RING, {(1, 0, 0): "-1/2", (0, 1, 0): "0"}) == A1 * Fraction(-1, 2)


_LEE_DOC = (pathlib.Path(__file__).parent / "data" / "inoue_lee.toml").read_text()


@pytest.mark.parametrize("text, value", [
    (" -7/2 ", Fraction(-7, 2)), ("+3", 3), ("-14/4", Fraction(-7, 2)), ("0/5", 0),
    ("9" * 4300, 10 ** 4300 - 1), ("1/0", None), ("-0/0", None), ("9" * 5000, None), ("1/" + "9" * 5000, None)])
def test_rational_constants_through_load_spec_and_assign(text, value):
    """A bracket constant through ``load_spec`` and an ``--assign`` value
    through ``verify``: read as Fraction reads it, or refused with
    SpecFormatError and exit status 2."""
    doc = _LEE_DOC.replace('{ E3 = "-1/2" }', f'{{ E3 = "{text}" }}')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["verify", "--builtin", "inoue-s0", "--assign", f"a1={text}"])
    if value is None:
        with pytest.raises(SpecFormatError, match="not a rational constant"):
            load_spec(doc)
        assert status == 2 and out.getvalue() == ""
        assert err.getvalue().endswith("does not have a rational value\n")
    else:
        assert load_spec(doc).c[1][2][2] == value
        assert status in (0, 1) and err.getvalue() == ""


def test_product_of_polynomials_is_bounded_in_term_pairs():
    assert _MAX_PRODUCT_PAIRS == 400 * 250
    wide = RING.sum(A1 ** i for i in range(400))
    narrow = RING.sum(A2 ** j for j in range(250))
    assert len(list((wide * narrow).terms())) == _MAX_PRODUCT_PAIRS  # at the bound
    past = narrow + A3
    for product in (lambda: wide * past, lambda: past * wide,
                    lambda: RING.dot([1, wide], [A1, past])):
        with pytest.raises(ValueError, match="(400 by 251|251 by 400) terms passes the cap"):
            product()
    # a rational factor multiplies no term pairs
    assert RING.dot([wide, 3], [Fraction(1, 2), past]) == wide * Fraction(1, 2) + past * 3


def test_product_of_polynomials_checks_the_cap_and_the_ring():
    top = A1 ** _MAX_EXPONENT + A2
    assert (top * (A2 + A3)).total_degree() == _MAX_EXPONENT + 1
    with pytest.raises(ExponentOverflowError, match=f"above the cap of {_MAX_EXPONENT}"):
        top * (A1 + A3)
    with pytest.raises(ExponentOverflowError):
        (A1 + A3) * top
    foreign = Ring(("a1", "b")).parse("a1 + b")
    for left, right in (((A1 + A2), foreign), (foreign, (A1 + A2)), (A1 * A2, foreign)):
        with pytest.raises(RingMismatchError):
            left * right


# -- the operators are one kernel call each -----------------------------------

@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [1.5, "a1", None])
def test_operators_refuse_other_types_in_both_orders(op, other):
    """A float, a str or None is neither a scalar nor a rational constant, so
    both operand orders return NotImplemented and Python raises TypeError."""
    with pytest.raises(TypeError):
        op(A1 + 1, other)
    with pytest.raises(TypeError):
        op(other, A1 + 1)


@pytest.mark.parametrize("name", ["__add__", "__radd__", "__sub__", "__rsub__",
                                  "__mul__", "__rmul__"])
def test_each_operator_is_one_kernel_call(name, monkeypatch):
    """Ring checks, canonical form and both caps live in Ring.dot alone, so
    every operator on two non-constant scalars makes exactly one call of it."""
    p, q = A1 * A2 + 1, A2 - Fraction(1, 3) * A3
    calls = []
    dot = Ring.dot

    def counted(ring, u, v):
        calls.append(name)
        return dot(ring, u, v)

    monkeypatch.setattr(Ring, "dot", counted)
    result = getattr(p, name)(q)
    assert len(calls) == 1
    monkeypatch.undo()
    expected = {"__add__": p.ring.dot((p, q), (1, 1)), "__radd__": p.ring.dot((q, p), (1, 1)),
                "__sub__": p.ring.dot((p, q), (1, -1)), "__rsub__": p.ring.dot((q, p), (1, -1)),
                "__mul__": p.ring.dot((p,), (q,)), "__rmul__": p.ring.dot((q,), (p,))}[name]
    assert result == expected
    assert_canonical(result)
