"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`Scalar` is a sparse polynomial with rational coefficients over a
fixed, ordered tuple of symbols (a :class:`Ring`).  It stores integer
numerators over one positive common denominator: a dictionary mapping
packed monomials to nonzero ``int`` numerators, and an ``int`` denominator,
kept in lowest terms (no integer above 1 divides the denominator and every
numerator).  The zero polynomial has an empty map and denominator 1, and it
is the only falsy scalar; each ring hands out one shared zero.  All
arithmetic keeps this canonical form, so equality of polynomials is equality
of denominators and dictionaries.

Packed monomials
----------------
A monomial is one ``int``: each symbol's exponent sits in a field of
``_FIELD_BITS`` bits, the first symbol most significant, so the order of the
ints is the lexicographic order of the exponent tuples and the product of two
monomials is the sum of their ints.  The top bit of each field is a guard:
exponents are at most ``_MAX_EXPONENT``, the sum of two such fields never
carries into the next one, and a product whose result has a guard bit set
raises :class:`ExponentOverflowError`.  :meth:`Ring.parse` rejects a written
exponent above the cap with a :class:`PolynomialParseError`, as it does a
product or power whose estimated term count times coefficient bits would
pass ``_MAX_PARSE_SIZE``.  The public interface speaks exponent
tuples: :meth:`Scalar.terms`, ``Scalar(ring, {exps: c})``,
:meth:`Scalar.substitute` and :meth:`Scalar.total_degree`.

:meth:`Ring.dot` is the one multiply-accumulate kernel and the one arithmetic
path: every contraction is one call of it, and so is each operator, ``p + q``
being ``dot((p, q), (1, 1))``, ``p - q`` being ``dot((p, q), (1, -1))`` and
``p * q`` being ``dot((p,), (q,))``.  It takes two sequences of scalars, ints
and Fractions and resolves each operand with one type dispatch: a scalar's
ring is checked, and a constant scalar acts as the rational it equals.  It
skips every pair with a zero side, multiplies integer numerators straight
into one accumulator over one common denominator (rescaled only when a
product brings a new denominator) and reduces the sum once, so it builds no
scalar per product and never runs ``Fraction.__mul__``; the result is built
in one step by :meth:`Scalar._reduced`.  It refuses a product
of two non-constant polynomials whose term counts multiply past
``_MAX_PRODUCT_PAIRS``, as the parser refuses a written one past
``_MAX_PARSE_SIZE``; a constant scales the other side, as a rational does,
and counts for no cap.  The contractions of :class:`wtw.frame.FrameSpec`
hand it only the nonzero positions of their fixed factor, and make no call
when those positions hold only zeros.  :meth:`Ring.sum` is a dot against
ones.

:meth:`Scalar.substitute` and ``str()`` read the int numerators over the one
denominator as well: substitution multiplies each numerator by a power table
of each assigned value and reduces the sum once, and rendering reduces each
coefficient by one gcd, so neither forms a Fraction per term.
:meth:`Ring.const` reads the numerator and denominator of an int or a
Fraction, and the rational constants of specs and assignments are read as two
ints.  :func:`_fraction` is the one reader of a rational constant in any
other form: a string must be ``[+-]digits[/digits]`` (:func:`_parse_rational`),
so ``Ring.const``, ``Scalar.substitute``, the ``Scalar`` constructor,
``FrameSpec.create`` and ``verify_assignment`` refuse ``"1e3"``, ``"1.5"``
and ``"1_000"``, and a float or a ``Decimal`` raises TypeError.  The
accessors :meth:`Scalar.terms` and :meth:`Scalar.constant_value` still return
:class:`fractions.Fraction` coefficients.  There is no floating point
anywhere: identity tests are exact.

Polynomial strings
------------------
:meth:`Ring.parse` reads a string with :func:`ast.parse` once ``^`` is
rewritten to ``**``, and a walker that accepts only ``+ - * / **`` between
terms, unary ``+ -``, declared symbols and integer literals.  Whitespace
separates tokens, literals may have leading zeros, and symbols may be named
like Python keywords (``lambda``, ``None``).  Refused: any other character
(``#``, ``.``, ``;``, a backslash), ``**``, an exponent that is not one integer
literal (``a^(2)``, ``a^-2``, ``a^2^3``), Python's other literal forms
(``0x10``, ``1_000``, ``1e3``, ``1j``), division by anything but a nonzero
constant, and nesting past the depth cap; see :func:`_parse`.

Rendering contract
------------------
``str(scalar)`` lists terms in descending lexicographic order of their
exponent tuples (symbol order is the ring's declared order), coefficients as
``p`` or ``p/q``, powers with ``^``, e.g. ``-1/2*a2^2 - a2``.  This string is
part of the golden-output contract of the command line tool, so it must stay
byte-stable.  A coefficient with more decimal digits than the interpreter
converts to a string (4,300 by default) raises a one-line ``ValueError`` that
names its size in bits.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Iterable, Iterator, Mapping, Union

Exponents = tuple[int, ...]
RationalLike = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*")
# a character that no polynomial string holds, or "**"
_REFUSED_RE = re.compile(r"[^\s0-9A-Za-z_+\-*/^()]|\*\*")
# a "^" not followed by an integer literal, or whose literal is raised in turn
_BAD_EXPONENT_RE = re.compile(r"\^(?!\s*+[0-9]++(?!\s*\^))")
# a name or an integer literal of a polynomial string
_WORD_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|[0-9]+")
# the token at a syntax error in the rewritten string, without a name's "_"
_TOKEN_RE = re.compile(r"_?(\w+|\S?)")
# deepest nesting of parentheses and unary signs that Ring.parse accepts
_MAX_PARSE_DEPTH = 100
# bits per symbol in a packed monomial; the top bit of each field is a guard
_FIELD_BITS = 16
_MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1
# the largest term count times coefficient size (numerator plus denominator
# bits) that one product or power in a polynomial string may reach: its cost
# grows with both, so one bound on their product caps its time
_MAX_PARSE_SIZE = 100_000
# the most term pairs one product of two non-constant polynomials in Ring.dot
# may multiply, so that arithmetic on large polynomials ends in an error, not
# in unbounded time
_MAX_PRODUCT_PAIRS = 100_000


class RingMismatchError(ValueError):
    """Raised when combining scalars that belong to different rings."""


class PolynomialParseError(ValueError):
    """Raised for malformed polynomial strings."""


class ExponentOverflowError(ValueError):
    """Raised when a monomial's exponent would pass ``_MAX_EXPONENT``."""

    def __init__(self):
        super().__init__(f"exponent above the cap of {_MAX_EXPONENT}")


def _parse_rational(text: str) -> Fraction:
    """A rational constant ``[+-]digits[/digits]``, surrounding spaces allowed;
    anything else, a zero denominator or a part longer than ``int()`` converts
    raises ValueError.  ``Fraction`` alone takes exponent notation and spends
    unbounded time on ``"1e9999999"``."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational constant: {text!r}")
    num, _, den = text.partition("/")  # int() reads the sign and the spaces
    den = int(den) if den else 1
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def _fraction(value) -> Fraction:
    """The one reader of rational constants: a Fraction is kept, not rebuilt,
    an int is converted, a string is read by ``_parse_rational``, so exponent
    and decimal notation are refused, and anything else, a float or a
    ``Decimal`` among them, raises TypeError."""
    if isinstance(value, str):
        return _parse_rational(value)
    if not isinstance(value, _RATIONALS):
        raise TypeError(f"not a rational constant: {value!r}")
    return value if type(value) is Fraction else Fraction(value)


class Ring:
    """An ordered set of symbol names; the context all scalars live in.

    The declared order fixes the packed-monomial layout, the lexicographic
    monomial order used for canonical rendering, and the meaning of
    :func:`normalize_up_to_unit`.  Rings with the same symbols are equal.
    """

    def __init__(self, symbols: tuple[str, ...]):
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols!r}")
        for name in symbols:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid symbol name {name!r}")
        count = len(symbols)
        # symbol s sits at bit _shifts[s]; _guard has the top bit of every field
        shifts = tuple(_FIELD_BITS * (count - 1 - s) for s in range(count))
        guard = sum(1 << (shift + _FIELD_BITS - 1) for shift in shifts)
        for name, value in (("symbols", symbols), ("_shifts", shifts), ("_guard", guard),
                            ("_zero", Scalar._canonical(self, {}, 1))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __reduce__(self):
        return Ring, (self.symbols,)

    def __eq__(self, other) -> bool:
        if type(other) is not Ring:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Ring(symbols={self.symbols!r})"

    def zero(self) -> Scalar:
        return self._zero

    def one(self) -> Scalar:
        return self.const(1)

    def const(self, value: RationalLike) -> Scalar:
        if not isinstance(value, _RATIONALS):
            value = _fraction(value)
        if not value:
            return self._zero
        return Scalar._canonical(self, {0: value.numerator}, value.denominator)

    def sym(self, name: str) -> Scalar:
        try:
            idx = self.symbols.index(name)
        except ValueError:
            raise KeyError(f"symbol {name!r} not declared in ring {self.symbols}") from None
        return Scalar._canonical(self, {1 << self._shifts[idx]: 1}, 1)

    def parse(self, text: str) -> Scalar:
        """Parse ``text`` using ``+ - * / ^``, integer literals and symbols:
        see :func:`_parse`."""
        return _parse(self, text)

    def _pack(self, exps: Exponents) -> int:
        """The packed monomial of an exponent tuple."""
        if len(exps) != len(self._shifts):
            raise ValueError(f"expected {len(self._shifts)} exponents, got {exps!r}")
        key = 0
        for e, shift in zip(exps, self._shifts):
            if not 0 <= e <= _MAX_EXPONENT:
                if e > _MAX_EXPONENT:
                    raise ExponentOverflowError()
                raise ValueError(f"negative exponent in {exps!r}")
            key |= e << shift
        return key

    def _unpack(self, key: int) -> Exponents:
        """The exponent tuple of a packed monomial."""
        return tuple((key >> shift) & _MAX_EXPONENT for shift in self._shifts)

    def dot(self, u: Iterable, v: Iterable) -> Scalar:
        """sum_p u[p] * v[p] for scalars of this ring, ints and Fractions.

        The multiply-accumulate kernel of every contraction.  Each operand
        is resolved by one type dispatch, and a constant scalar is scaled like
        the int or Fraction it equals.  Pairs with a zero side are skipped;
        the integer numerators of each product go straight into one
        accumulator over one common denominator, which is rescaled only when
        a new denominator appears, and the sum is reduced once.  No
        intermediate scalar is built.  These checks live here alone, for every
        contraction and every operator: a scalar of another ring raises
        :class:`RingMismatchError`, zero or not and in either position, a
        product past the exponent cap raises :class:`ExponentOverflowError`,
        and a product of two non-constant polynomials whose term counts
        multiply past ``_MAX_PRODUCT_PAIRS`` raises ``ValueError`` before it
        is formed.
        """
        acc: dict[int, int] = {}
        get = acc.get
        den = 1
        product = False  # whether two polynomials were multiplied
        for a, b in zip(u, v):
            # one type dispatch per operand: an integer factor k (0 for a
            # zero), numerators t (None for a rational) and a denominator d; a
            # scalar's ring is checked before a zero on either side skips the pair
            if type(a) is Scalar:
                if a.ring is not self:
                    self._check(a)
                ta, da = a._terms, a._den
                ka = 1 if ta else 0
            else:
                ka, ta, da = a.numerator, None, a.denominator
            if type(b) is Scalar:
                if b.ring is not self:
                    self._check(b)
                tb = b._terms
                if not (ka and tb):
                    continue
                kb, db = 1, b._den
            elif ka:
                kb, tb, db = b.numerator, None, b.denominator
                if not kb:
                    continue
            else:
                continue
            d = da * db
            if den % d:  # a new denominator: rescale to the lcm
                up = d // math.gcd(den, d)
                for e in acc:
                    acc[e] *= up
                den *= up
            k = ka * kb * (den // d)
            if ta is None:
                ta, tb = tb, ta
            elif tb is not None:  # two scalars: a constant acts as its rational
                if len(tb) == 1 and 0 in tb:
                    k, tb = k * tb[0], None
                elif len(ta) == 1 and 0 in ta:
                    k, ta, tb = k * ta[0], tb, None
            if ta is None:  # both rational
                acc[0] = get(0, 0) + k
            elif tb is None:  # a rational times a polynomial
                if not acc:  # the first term: one copy, no lookups
                    acc.update(ta if k == 1 else {e: c * k for e, c in ta.items()})
                else:
                    for e, c in ta.items():
                        acc[e] = get(e, 0) + c * k
            else:
                if len(ta) * len(tb) > _MAX_PRODUCT_PAIRS:
                    raise ValueError(f"a product of {len(ta)} by {len(tb)} terms passes "
                                     f"the cap of {_MAX_PRODUCT_PAIRS} term pairs")
                product = True
                for e1, c1 in ta.items():
                    c1 *= k
                    for e2, c2 in tb.items():
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
        if not acc:  # every pair had a zero side
            return self._zero
        if 0 in acc.values():  # terms cancelled
            acc = {e: c for e, c in acc.items() if c}
            if not acc:
                return self._zero
        # a guard bit set in any monomial of a product: an exponent passed the cap
        if product and reduce(or_, acc) & self._guard:
            raise ExponentOverflowError()
        return Scalar._reduced(self, acc, den)

    def sum(self, values: Iterable) -> Scalar:
        """sum_p values[p] through :meth:`dot`: one reduction for the whole sum."""
        return self.dot(values, repeat(1))

    def _check(self, p: Scalar) -> None:
        if p.ring != self:
            raise RingMismatchError(
                f"symbol-set mismatch: {self.symbols} vs {p.ring.symbols}")


class Scalar:
    """Immutable sparse polynomial over a :class:`Ring`.

    Stored as nonzero ``int`` numerators per packed monomial over one
    positive ``int`` denominator in lowest terms; ``Scalar(ring, {exps:
    Fraction})`` builds one from exponent tuples and rational coefficients,
    and the accessors return exponent tuples and ``Fraction`` coefficients.
    Zero is falsy and every other scalar truthy.  A constant equals, and
    hashes as, the rational it holds, so two constants of different rings
    are equal when their values are; other scalars of different rings never.
    Supports ``+ - * **`` with other scalars of the same ring and with plain
    integers or Fractions, which act as constants.  Each of ``+ - *`` is one
    call of :meth:`Ring.dot`, which reads ``_terms`` and ``_den`` directly, so
    a sum of products written as one dot and the same sum written with the
    operators give the same canonical result.
    """

    __slots__ = ("ring", "_terms", "_den")

    def __init__(self, ring: Ring, terms: Mapping[Exponents, RationalLike]):
        coeffs = {ring._pack(e): c for e, c in zip(terms, map(_fraction, terms.values())) if c}
        # the lcm of lowest-terms denominators leaves no common factor
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        _set_ring(self, ring)
        _set_terms(self, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()})
        _set_den(self, den)

    def __reduce__(self):
        return Scalar._canonical, (self.ring, self._terms, self._den)

    @staticmethod
    def _canonical(ring: Ring, nums: dict[int, int], den: int) -> Scalar:
        """Wrap ``nums`` over ``den`` without copying; they must already be in
        canonical form (no zero numerator, ``den > 0``, lowest terms)."""
        self = _new(Scalar)
        _set_ring(self, ring)
        _set_terms(self, nums)
        _set_den(self, den)
        return self

    @staticmethod
    def _reduced(ring: Ring, nums: dict[int, int], den: int) -> Scalar:
        """Wrap nonzero numerators over a positive ``den``, cancelling their
        common factor with it: every kernel result is built here, in one step."""
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        self = _new(Scalar)
        _set_ring(self, ring)
        _set_terms(self, nums)
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Scalar is immutable")

    def _halved(self) -> Scalar:
        """self / 2 without a kernel call: the numerators over twice the
        denominator, reduced once; for a fixed operand of many kernel calls."""
        return Scalar._reduced(self.ring, self._terms, 2 * self._den) if self._terms else self

    # -- inspection ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not any(self._terms)  # the constant monomial packs to 0

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if symbols remain)."""
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(next(iter(self._terms.values())), self._den)

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in descending lexicographic order of exponent tuples."""
        den, unpack = self._den, self.ring._unpack
        return ((unpack(e), Fraction(c, den))
                for e, c in sorted(self._terms.items(), reverse=True))

    def total_degree(self) -> int:
        if self.is_zero:
            return 0
        return max(sum(self.ring._unpack(e)) for e in self._terms)

    # -- ring operations -------------------------------------------------
    #
    # Each of ``+ - *`` is one call of :meth:`Ring.dot`, which checks the
    # rings, the exponent cap and the product-pair cap and builds the
    # canonical result; an operand that is not a scalar, an int or a Fraction
    # is left to the other side.

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.ring.dot((self, other), (1, 1))

    __radd__ = __add__

    def __neg__(self):
        if not self._terms:
            return self
        return Scalar._canonical(self.ring, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.ring.dot((self, other), (1, -1))

    def __rsub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.ring.dot((other, self), (1, -1))

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self.ring.dot((self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # squaring past the last bit could overflow for nothing
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        # two constants are equal when their rationals are, whatever their
        # rings, as their hashes are; other scalars only within one ring
        return ((self.ring is other.ring or self.ring == other.ring
                 or (self.is_constant and other.is_constant))
                and self._den == other._den and self._terms == other._terms)

    def __hash__(self) -> int:
        if self.is_constant:  # equal to its rational, so hashed as it
            return hash(Fraction(self._terms.get(0, 0), self._den))
        return hash((self.ring.symbols, self._den, tuple(sorted(self._terms.items()))))

    # -- substitution ----------------------------------------------------

    def substitute(self, assignment: Mapping[str, RationalLike]) -> Scalar:
        """Partial evaluation; keys must be declared symbols.

        Substitution is a ring homomorphism, so it commutes with ``+``/``*``.
        The result lives in the same ring (a polynomial in the remaining
        symbols).  It is formed on the int numerators: for each assigned
        symbol, of value p/q and highest exponent ``top`` here, a term's
        numerator is multiplied by ``p^e q^(top - e)`` for its exponent e, the
        symbol's field is masked out of the monomial, and the sum is reduced
        once over ``den * prod(q^top)``.
        """
        ring, terms, den = self.ring, self._terms, self._den
        mask, tables = 0, []  # tables: (shift, [p^e q^(top - e) for e <= top])
        for name, value in assignment.items():
            if name not in ring.symbols:
                raise KeyError(f"unknown symbol {name!r}")
            shift = ring._shifts[ring.symbols.index(name)]
            top = max(((key >> shift) & _MAX_EXPONENT for key in terms), default=0)
            if top:
                if not isinstance(value, _RATIONALS):
                    value = _fraction(value)
                p, q = value.numerator, value.denominator
                tables.append((shift, [p ** e * q ** (top - e) for e in range(top + 1)]))
                mask |= _MAX_EXPONENT << shift
                den *= q ** top
        if not tables:  # no assigned symbol occurs
            return self
        acc: dict[int, int] = {}
        get = acc.get
        keep = ~mask
        for key, num in terms.items():
            for shift, table in tables:
                num *= table[(key >> shift) & _MAX_EXPONENT]
            key &= keep
            acc[key] = get(key, 0) + num
        acc = {e: c for e, c in acc.items() if c}  # zero values and cancellations
        return Scalar._reduced(ring, acc, den) if acc else ring._zero

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den, symbols, unpack = self._den, self.ring.symbols, self.ring._unpack
        parts: list[str] = []
        for key, num in sorted(self._terms.items(), reverse=True):
            monomial = "*".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(symbols, unpack(key)) if power)
            g = math.gcd(num, den)  # |num| / den in lowest terms
            try:
                mag = f"{abs(num) // g}" if g == den else f"{abs(num) // g}/{den // g}"
            except ValueError:  # past the interpreter's limit on int-to-str digits
                size = max(abs(num) // g, den // g).bit_length()
                raise ValueError(f"cannot print a coefficient of {size} bits: it has more "
                                 "decimal digits than the interpreter converts") from None
            if not monomial:
                body = mag
            elif mag == "1":
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            if not parts:
                parts.append(f"-{body}" if num < 0 else body)
            else:
                parts.append(f"- {body}" if num < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


# Scalar's fields are written through their slot descriptors, which the
# immutability guard's __setattr__ does not intercept.
_new = object.__new__
_set_ring, _set_terms, _set_den = Scalar.ring.__set__, Scalar._terms.__set__, Scalar._den.__set__
# the rationals read through their numerator and denominator, and what the
# operators take as their other operand
_RATIONALS = (int, Fraction)
_OPERANDS = (Scalar, *_RATIONALS)


def normalize_up_to_unit(p: Scalar) -> Scalar:
    """Divide by the rational content and make the leading coefficient positive.

    The leading term is the lexicographically largest exponent tuple.  The
    result is idempotent and invariant under scaling by nonzero rationals;
    zero maps to zero.  Two polynomial systems are compared as sets of
    normalized scalars.
    """
    if p.is_zero:
        return p
    # the content is gcd(numerators) / denominator
    content = math.gcd(*p._terms.values())
    if p._terms[max(p._terms)] < 0:
        content = -content
    return Scalar._canonical(p.ring, {e: c // content for e, c in p._terms.items()}, 1)


def normalized_system(polys) -> tuple[tuple[Scalar, ...], int]:
    """The distinct nonzero normalized scalars of an iterable, sorted by
    (total degree, rendering), and the number of entries that were zero."""
    normalized = [normalize_up_to_unit(p) for p in polys]
    nonzero = {q for q in normalized if not q.is_zero}
    return (tuple(sorted(nonzero, key=lambda q: (q.total_degree(), str(q)))),
            sum(q.is_zero for q in normalized))


def _bits(p: Scalar) -> int:
    """Bits of the largest numerator plus those of the denominator."""
    return max((c.bit_length() for c in p._terms.values()), default=0) + p._den.bit_length()


def _parse(ring: Ring, text: str) -> Scalar:
    """The scalar a polynomial string writes, read by :func:`ast.parse`.

    Grammar, as Python reads it once ``^`` is ``**``: sums and differences of
    products and quotients of signed powers; a power is an integer literal, a
    declared symbol or a parenthesized expression, raised by ``^`` to at most
    one integer literal of at most ``_MAX_EXPONENT``; division is only by a
    nonzero constant.

    Refused before ``ast`` reads the text: any character but names, digits,
    ``+ - * / ^ ( )`` and whitespace, and ``**``; an exponent that is not one
    integer literal (``a^(2)``, ``a^-2``, ``a^2^3``), which also keeps
    ``ast`` from nesting a chain of powers; a literal longer than ``int()``
    converts, leading zeros counted.  Then whitespace runs become one space,
    each literal loses its leading zeros and each name gets a leading ``_``,
    so that a symbol may be named ``lambda`` or ``None`` while ``0x10``,
    ``1_000``, ``1e3`` and ``1j`` are syntax errors.  :func:`_terms` refuses
    nesting past ``_MAX_PARSE_DEPTH`` and cuts the text into its terms outside
    parentheses.  Each term is read by its own ``ast.parse``, so a sum of any
    length meets no recursion limit, and :func:`_walk` accepts only a
    ``BinOp`` with ``+ - * / **``, a ``UnaryOp`` with ``+ -``, a ``Name`` and
    an int ``Constant``.  A chain of products or of parenthesized sums long
    enough to reach the interpreter's recursion limit (about 900 operators)
    is refused.  A product or power is refused before it is formed if its
    term count times its coefficient size could pass ``_MAX_PARSE_SIZE``, so
    that no short input takes unbounded time.  Every refusal is a one-line
    :class:`PolynomialParseError`; input that ends early reads ``unexpected
    token ''``.
    """
    refused = _REFUSED_RE.search(text)
    if refused:
        raise PolynomialParseError(f"unexpected {refused[0]!r} in {text!r}")
    if _BAD_EXPONENT_RE.search(text):
        raise PolynomialParseError(f"exponent must be an integer in {text!r}")
    try:
        source = " ".join(_WORD_RE.sub(
            lambda word: f" _{word[0]} " if word[1] else f" {int(word[0])} ", text).split())
    except ValueError:  # longer than int() converts
        raise PolynomialParseError(f"integer literal too long in {text!r}") from None
    try:
        return ring.sum(_walk(ring, text, _tree(term, text))
                        for term in _terms(source.replace("^", "**"), text))
    except ExponentOverflowError as exc:
        raise PolynomialParseError(f"{exc} in {text!r}") from None
    except RecursionError:  # a chain of products, or of sums in parentheses
        raise PolynomialParseError(f"too long a chain of operators in {text!r}") from None


def _terms(source: str, text: str) -> list[str]:
    """The terms of the rewritten ``source``, cut before each binary ``+`` or
    ``-`` outside parentheses, by one scan that refuses ``(`` after an
    operand (a call to Python), ``)`` after an operator, and parentheses and
    unary signs nested past ``_MAX_PARSE_DEPTH``: as in the grammar, a run of
    signs stays open until the operand after it ends, and a parenthesis until
    it closes.  Unbalanced parentheses are left to ``ast``."""
    outer: list[int] = []  # the depth outside each open parenthesis
    depth = run = 0  # open parentheses with the signs before them; the current run
    operand = False  # whether the last token ends an operand
    cuts = [0]
    for at, ch in enumerate(source):
        if ch == " ":
            continue
        if ch in "+-" and not operand:
            run += 1
        else:
            if ch in "()" and operand == (ch == "("):  # a call, or ")" after an operator
                raise PolynomialParseError(f"unexpected token {ch!r} in {text!r}")
            if ch == "(":
                outer.append(depth)
                depth += run + 1
            elif ch == ")":  # an unbalanced one is left to ast
                depth = outer.pop() if outer else 0
            elif ch in "+-" and not outer:
                cuts.append(at)
            run = 0
        if depth + run > _MAX_PARSE_DEPTH:
            raise PolynomialParseError(
                f"parentheses and signs nest deeper than {_MAX_PARSE_DEPTH} in {text!r}")
        operand = ch.isalnum() or ch in "_)"
    return [source[start:end] for start, end in zip(cuts, [*cuts[1:], None])]


def _tree(term: str, text: str) -> ast.expr:
    """The expression ``ast.parse`` reads from one term of a rewritten string."""
    try:
        return ast.parse(term, mode="eval").body
    except SyntaxError as exc:  # offset 0: the input ended early
        token = _TOKEN_RE.match(term, exc.offset - 1 if exc.offset else len(term))[1]
        raise PolynomialParseError(f"unexpected token {token!r} in {text!r}") from None


def _walk(ring: Ring, text: str, node: ast.expr) -> Scalar:
    """The scalar of one whitelisted node; any other node is refused."""
    kind = type(node)
    if kind is ast.Constant and type(node.value) is int:
        return ring.const(node.value)
    if kind is ast.Name:  # without the "_" put before each name
        if node.id[1:] not in ring.symbols:
            raise PolynomialParseError(f"undeclared symbol {node.id[1:]!r} in {text!r}")
        return ring.sym(node.id[1:])
    op = type(getattr(node, "op", None))
    if kind is ast.UnaryOp and op in (ast.UAdd, ast.USub):
        value = _walk(ring, text, node.operand)
        return -value if op is ast.USub else value
    if kind is not ast.BinOp or op not in (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow):
        raise PolynomialParseError(f"unexpected operator in {text!r}")
    left = _walk(ring, text, node.left)
    if op is ast.Pow:  # _BAD_EXPONENT_RE leaves only an int literal after ``^``
        k = node.right.value
        if k > _MAX_EXPONENT:
            raise PolynomialParseError(f"exponent {k} above the cap of {_MAX_EXPONENT} in {text!r}")
        if left:  # at most comb(k + t - 1, k) terms for t terms to the power k
            _limit(text, math.comb(k + len(left._terms) - 1, k), k * _bits(left))
        return left ** k
    right = _walk(ring, text, node.right)
    if op is ast.Mult:
        _limit(text, len(left._terms) * len(right._terms), _bits(left) + _bits(right))
        return left * right
    if op is ast.Div:
        if not right.is_constant or right.is_zero:
            raise PolynomialParseError(f"division only by nonzero constants in {text!r}")
        return left * (1 / right.constant_value())
    return left + right if op is ast.Add else left - right


def _limit(text: str, terms: int, bits: int) -> None:
    """Refuse a product or power in ``text`` that could pass the size cap."""
    if terms * bits > _MAX_PARSE_SIZE:
        raise PolynomialParseError(f"a product or power passes {_MAX_PARSE_SIZE} terms times "
                                   f"coefficient bits in {text!r}")
