"""Input model for a homogeneous geometry and constant-coefficient exterior calculus.

A :class:`FrameSpec` packages the data of a left-invariant orthonormal frame
``E_1, ..., E_n`` on a Lie group: structure constants ``c[i][j][k]`` with
``[E_i, E_j] = sum_k c[i][j][k] E_k``, an orthogonal complex structure ``J``
(column convention ``J(E_j) = sum_i J[i][j] E_i``), and a 1-form ``phi``
with polynomial coefficients in the declared parameter symbols.  The metric
is the identity Gram matrix in this frame: ``g(E_i, E_j) = delta_ij``.

Central modeling assumption: every tensor handled here has *constant*
components in the frame, so all directional derivatives of components vanish
and the whole calculus is pointwise algebra over the scalar ring.  Structure
constants and ``J`` must be rational constants; parameter symbols may appear
only in ``phi``.

Conventions (pinned by the worked examples and tested):
  * wedge normalization ``(eta_i ^ eta_j)(E_i, E_j) = 1``;
  * ``d omega (X, Y) = -omega([X, Y])`` for invariant 1-forms;
  * a 2-form evaluates on a bivector ``sum_{i<j} b[i][j] E_i ^ E_j`` as
    ``sum_{i<j} b[i][j] F(E_i, E_j)``.

Indices are 0-based internally; renderings are 1-based.

Contractions: a vector is a sequence of n components and a matrix is a
sequence of n rows, ``M[i][j] = M(E_i, E_j)`` for a bilinear form; entries
may be scalars or rationals.  An endomorphism S is such a matrix too, in the
column convention ``S E_j = sum_i S[i][j] E_i``.  Pairings, J-twists and
products go through seven :class:`FrameSpec` methods, valid for any rational
J.  Each entry they produce, and each entry of the vectors M(., J E_k) that
``twist`` forms on the way, is at most one call of the ring's
multiply-accumulate kernel :meth:`wtw.polyalg.Ring.dot`, which skips zero
entries, rational or scalar, and reduces the sum once:

  * ``dot(u, v)``    sum_p u[p] v[p];
  * ``left(u, M)``   the vector M(u, .), that is sum_p u[p] M[p][k];
  * ``right(M, u)``  the vector M(., u), that is sum_q M[k][q] u[q];
  * ``twist(M)``     the matrix M(J., J.), through the vectors M(., J E_k);
  * ``j_pair(M)``    the matrix M(J., .) + M(., J.);
  * ``j_apply(v)``   the vector J v;
  * ``compose(a, b)`` the endomorphism a o b, that is sum_m a[i][m] b[m][j].

All but ``dot`` walk a support.  ``left`` and ``right`` pass the kernel only
the nonzero positions of their fixed vector, and ``compose`` is ``right`` on
each column of its right factor.  The three J contractions read the supports
of J's columns and rows (see below) with weights built once per spec:
``twist`` forms each M(., J E_k) over the support of J E_k and pairs it with
J E_i over the support of J E_i, so a dense J costs 2n^3 products, an entry
of ``j_pair`` walks the union of the supports of ``J E_i`` and ``J E_k``, and
one of ``j_apply`` the support of row k of J.  An entry with only zero values,
or with one scalar of weight 1 or -1, is the shared zero or that scalar or its
negation, with no call; so on a J that is a signed permutation ``twist`` and
``j_apply`` make none.  The fiber pairing of :mod:`wtw.twistor` walks its
fixed endomorphism's support.

As ``J E_j`` is column j of ``J``, ``right(J, v)`` is ``J v`` (``j_apply``)
and ``left(omega, J)`` is the 1-form ``omega o J``.  J has one array,
``spec.J``, of rationals: the later layers pass it as it is wherever they
take an endomorphism, and the values derived from it are kept under that
key, which compares and hashes as a copy of constant scalars would.

Sparse supports: each spec keeps the nonzero part of its rational data once,
as int numerators over one common denominator: ``bracket_rows()`` lists
``(k, c_ijk)`` for each pair (i, j), and ``j_columns()`` lists ``(p, J[p][i])``
for each column ``J E_i``, from ``_j_ints``, the dense int J later layers read
too.  The symbol-free layer walks only these supports: ``validate`` and, in
the later layers, the Levi-Civita gammas, their curvature and its traces, the
Lee form and the Nijenhuis tensor accumulate ints and lift each nonzero result
to a scalar once (:meth:`FrameSpec.lift`), leaving the ring's shared zero
everywhere else.  ``d_oneform`` calls the kernel only where a bracket row is
nonzero.
Endomorphisms, 2-forms and bivectors are all n x n nested tuples, with no
class of their own: an endomorphism S as above, a 2-form F with ``F[i][j] =
F(E_i, E_j)``, and a bivector ``b`` the array of its components, ``sum_{i<j}
b[i][j] E_i ^ E_j``.  A sum or difference of such arrays is formed entry by
entry, each entry one kernel call.

Kept values: every quantity derived from a spec, a connection or a curvature
tensor, here and in the later layers, is one function decorated with
:func:`_kept`, which computes it on the first call with its arguments and
keeps it on the object; the decorated function is the value's one name.

An array formed entry by entry, here or in a later layer, is built by
``_antisymmetric`` when its antisymmetry in a pair of indices follows from
its formula and from input symmetries that are checked: the antisymmetric c
that ``validate`` checks, and the ``_is_skew`` guards.  ``_antisymmetric``
forms the entry of each pair i < j once, stores its negation at (j, i)
(``_negative`` for n x n blocks) and zero on the diagonal.  So the 2-forms
and bivectors built here, the torsion residual of :mod:`wtw.connection` and
the vertical basis and the brackets [J, D_Y J] of :mod:`wtw.twistor` are
antisymmetric with a zero diagonal, and the functions that take such an
array, the R(c) and dphi(c) terms of the fiber-pairing identity, read only
the entries with i < j.  Two kinds of array are formed in full: the
products that ``FrameSpec`` walks form a row at a time (``compose``,
``twist``, ``j_pair`` and the commutator of :mod:`wtw.twistor`), and the
arrays whose antisymmetry is what a check tests (D J, J o nabla J,
``v_trace`` and the blocks of the action on endomorphisms).  Mirroring the second kind would hide the defects those
checks exist to catch.
Arrays alternating in three indices, the 3-forms of :mod:`wtw.hermitian` and
the first Bianchi residual of :mod:`wtw.curvature`, are built by
``_alternating``, which forms the entry of each triple i < j < k once.

One name of a later layer lives here so that the command line need not load
that layer: :class:`GateError`, which the gate of :mod:`wtw.hermitian` raises
and the command line catches for every verb.
"""

from __future__ import annotations

import functools
import math
import tomllib
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .polyalg import Ring, Scalar, RationalLike, _fraction

Vector = tuple[Scalar, ...]


class FrameError(ValueError):
    """A frame document violates a structural invariant."""


class SpecFormatError(ValueError):
    """A spec document is malformed (syntax or unknown/missing keys)."""


# the largest dimension accepted; per-dimension data is built only below it
_MAX_DIMENSION = 16


def _check_dimension(dimension: int) -> None:
    if dimension % 2 != 0 or not 4 <= dimension <= _MAX_DIMENSION:
        raise FrameError("dimension must be an even integer from 4 to "
                         f"{_MAX_DIMENSION}, got {dimension}")


def _kron(i: int, j: int) -> int:
    return 1 if i == j else 0


_MISSING = object()


class GateError(Exception):
    """A standing assumption of the condition machinery is violated."""

    def __init__(self, assumption: str, message: str):
        super().__init__(f"{assumption}: {message}")
        self.assumption = assumption


class Memo:
    """Mixin for an immutable object that keeps the values derived from it.

    Assigning an attribute raises ``AttributeError``, so a subclass's
    ``__init__`` stores its fields in ``__dict__`` directly.  The values
    derived from the object are kept by the functions decorated with
    :func:`_kept`, in the object's own ``__dict__``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _kept(compute):
    """``compute(obj, *args)`` for a :class:`Memo` ``obj``, computed only on the
    first call with those arguments and kept on ``obj``.

    The key is the decorated function with its arguments, never a label, so
    two independent routes to one quantity never share an entry.  The values
    live in the object's ``__dict__``: they are freed with the object, and
    every new object, a spec made by ``with_phi`` included, starts with none.
    A compute that raises keeps nothing, so it raises again on the next call;
    a ``None`` result is kept.  The keys pickle by qualified name, so an
    object pickles and deep-copies with its kept values.  On a miss the
    decorated function calls its ``__wrapped__``, so replacing that attribute
    replaces the compute for every reader, however it imported the name.
    """
    @functools.wraps(compute)
    def kept(obj, *args):
        store = obj.__dict__.setdefault("_memo", {})
        key = (kept, *args)
        value = store.get(key, _MISSING)
        if value is _MISSING:
            value = store[key] = kept.__wrapped__(obj, *args)
        return value

    return kept


class FrameSpec(Memo):
    """Validated frame data; immutable after construction.

    Quantities derived from the frame (connections, the Nijenhuis tensor,
    the Lee data, d(phi), ...) are computed once and kept on the spec; see
    :func:`_kept`.  Specs with equal fields are equal and hash alike.
    """

    def __init__(self, dimension: int, ring: Ring, basis: tuple[str, ...],
                 c: tuple[tuple[tuple[Fraction, ...], ...], ...],
                 J: tuple[tuple[Fraction, ...], ...], phi: Vector, name: str = "custom"):
        self.__dict__.update(dimension=dimension, ring=ring, basis=basis, c=c, J=J, phi=phi,
                             name=name)

    def _key(self) -> tuple:
        return (self.dimension, self.ring, self.basis, self.c, self.J, self.phi, self.name)

    def __eq__(self, other) -> bool:
        if type(other) is not FrameSpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FrameSpec(name={self.name!r}, dimension={self.dimension})"

    # -- constructors ----------------------------------------------------

    @staticmethod
    def create(dimension: int,
               symbols: Sequence[str],
               brackets: Mapping[tuple[int, int], Mapping[int, RationalLike]],
               J: Sequence[Sequence[RationalLike]],
               phi: Sequence[Scalar | str | RationalLike],
               basis: Sequence[str] | None = None,
               name: str = "custom") -> "FrameSpec":
        """Build and validate a spec from bracket data ``{(i,j): {k: c_ijk}}``.

        Bracket keys use 0-based ``i < j``; antisymmetry is filled in.  A key
        ``(j, i)`` gives ``[E_j, E_i]``, and naming a pair in both orders is an
        error.  ``phi`` entries may be scalars, parse strings, or rational
        constants.
        """
        _check_dimension(dimension)
        ring = Ring(tuple(symbols))
        if basis is None:
            basis = tuple(f"E{i+1}" for i in range(dimension))
        else:
            basis = tuple(basis)
            if len(basis) != dimension or len(set(basis)) != dimension:
                raise FrameError("basis must list n distinct vector names")
        n = dimension
        zero = Fraction(0)
        c = [[[zero] * n for _ in range(n)] for _ in range(n)]
        key_of_pair: dict[frozenset[int], tuple[int, int]] = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < n and 0 <= j < n):
                raise FrameError(f"bracket index out of range: {(i, j)}")
            first = key_of_pair.setdefault(frozenset((i, j)), (i, j))
            if first != (i, j):
                raise FrameError(f"brackets {first} and {(i, j)} name the same pair")
            if any(not (0 <= k < n) for k in comps):
                raise FrameError(f"bracket component index out of range in {(i, j)}")
            if i == j and any(_fraction(v) for v in comps.values()):
                raise FrameError(f"[E_{i+1}, E_{i+1}] must vanish")
            for k, value in comps.items():
                value = _fraction(value)
                c[i][j][k] = value
                c[j][i][k] = -value
        jm = tuple(tuple(map(_fraction, row)) for row in J)
        if len(jm) != n or any(len(row) != n for row in jm):
            raise FrameError("complex structure must be an n x n matrix")
        spec = FrameSpec(dimension=n, ring=ring, basis=basis,
                         c=tuple(tuple(tuple(row) for row in plane) for plane in c),
                         J=jm, phi=_coerce_phi(ring, n, phi), name=name)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Check antisymmetry, the Jacobi identity and J^2 = -I, J^T J = I on
        the nonzero structure constants and entries of J."""
        n = self.dimension
        _, rows = self.bracket_rows()
        # The failing (i, j, k) are symmetric in i and j: the first has i <= j
        # and the least k where row (i, j) and minus row (j, i) differ.
        for i, j in combinations_with_replacement(range(n), 2):
            minus = {(k, -v) for k, v in rows[j][i]}
            if minus != set(rows[i][j]):
                k = min(k for k, _ in minus.symmetric_difference(rows[i][j]))
                raise FrameError(
                    f"structure constants not antisymmetric at ({i+1},{j+1},{k+1})")
        # Once c is antisymmetric the Jacobiator alternates in (i, j, k) and
        # vanishes on repeated indices, so increasing triples suffice; the
        # first failing one is the first failing ordered triple.
        for i, j, k in combinations(range(n), 3):
            jacobiator: dict = {}  # sum_m c_ijm c_mkl + c_jkm c_mil + c_kim c_mjl at l
            for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in rows[a][b]:
                    _accumulate(jacobiator, x, rows[m][z])
            if any(jacobiator.values()):
                raise FrameError(
                    "Jacobi identity fails on "
                    f"({self.basis[i]},{self.basis[j]},{self.basis[k]})")
        den, J = _j_ints(self)
        _, cols = self.j_columns()
        gram = [[sum(v * J[p][k] for p, v in col) for k in range(n)] for col in cols]
        if gram != [[den * den * (i == k) for k in range(n)] for i in range(n)]:
            raise FrameError("J is not g-orthogonal (J^T J = Identity fails)")
        # J^T = -J, which with J^T J = Identity means J^2 = -Identity
        if not _is_skew(J):
            raise FrameError("J^2 = -Identity fails")

    # -- small helpers ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.dimension

    def zero(self) -> Scalar:
        return self.ring.zero()

    def const(self, value: RationalLike) -> Scalar:
        return self.ring.const(value)

    def lift(self, entries: Iterable[tuple[int, int]], den: int) -> Vector:
        """The vector with ``v / den`` at each ``(k, v)`` of ``entries``, int
        numerators over a positive ``den``, and the ring's shared zero
        elsewhere; each constant is reduced by one gcd, with no Fraction."""
        out = [self.ring.zero()] * self.n
        for k, v in entries:
            if v:
                out[k] = Scalar._reduced(self.ring, {0: v}, den)
        return tuple(out)

    @_kept
    def dphi(self) -> tuple[Vector, ...]:
        """d(phi) of the spec's Weyl form, as an n x n array."""
        return d_oneform(self, self.phi)

    @_kept
    def bracket_rows(self) -> tuple[int, list]:
        """The nonzero structure constants as ``(den, rows)``: ``rows[i][j]``
        lists ``(k, den * c[i][j][k])`` for each nonzero ``c[i][j][k]``, ints
        over one positive denominator."""
        den = math.lcm(*(v.denominator for plane in self.c for row in plane for v in row))
        return den, [[[(k, v.numerator * (den // v.denominator)) for k, v in enumerate(row) if v]
                      for row in plane] for plane in self.c]

    @_kept
    def j_columns(self) -> tuple[int, list]:
        """The nonzero entries of J as ``(den, cols)``: ``cols[i]`` lists
        ``(p, den * J[p][i])``, the column ``J E_i``, ints over one positive
        denominator, read from :func:`_j_ints`."""
        den, J = _j_ints(self)
        return den, [[(p, v) for p, v in enumerate(col) if v] for col in zip(*J)]

    # -- contractions (see the module docstring) --------------------------

    def dot(self, u: Sequence, v: Sequence) -> Scalar:
        """sum_p u[p] v[p]: a 1-form on a vector, or g(u, v)."""
        return self.ring.dot(u, v)

    def left(self, u: Sequence, M: Sequence[Sequence]) -> Vector:
        """M(u, .): the vector sum_p u[p] M[p][k] over k, read only at the
        rows where u is nonzero."""
        support = [p for p, a in enumerate(u) if a]
        if not support:
            return (self.ring.zero(),) * len(M[0])
        dot = self.ring.dot
        values = [u[p] for p in support]
        return tuple(dot(values, col) for col in zip(*[M[p] for p in support]))

    def right(self, M: Sequence[Sequence], u: Sequence) -> Vector:
        """M(., u): the vector sum_q M[k][q] u[q] over k, read only at the
        columns where u is nonzero."""
        support = [q for q, a in enumerate(u) if a]
        dot = self.ring.dot
        values = [u[q] for q in support]
        return tuple(dot(values, map(row.__getitem__, support)) for row in M)

    def compose(self, a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[Vector, ...]:
        """The endomorphism a o b: column j is ``right(a, .)`` on column j of b."""
        return tuple(zip(*[self.right(a, col) for col in zip(*b)]))

    def twist(self, M: Sequence[Sequence]) -> tuple[Vector, ...]:
        """M(J., J.): entries sum_p J[p][i] m_k[p] with m_k = M(., J E_k), each
        m_k[p] = sum_q M[p][q] J[q][k] a ``_walk`` over the support of J E_k and
        each entry a ``_walk`` of m_k over the support of J E_i."""
        ring, cols = self.ring, _j_weights(self)
        m_j = [[_walk(ring, [row[q] for q in at_k], w_k) for row in M] for at_k, w_k in cols]
        return tuple(tuple(_walk(ring, [m_k[p] for p in at_i], w_i) for m_k in m_j)
                     for at_i, w_i in cols)

    def j_pair(self, M: Sequence[Sequence]) -> tuple[Vector, ...]:
        """M(J., .) + M(., J.): entries sum_p J[p][i] M[p][k] + sum_q M[i][q] J[q][k],
        each a ``_walk`` over the supports of J E_i and J E_k."""
        ring, cols = self.ring, _j_weights(self)
        return tuple(tuple(
            _walk(ring, [M[p][k] for p in at_i] + [row[q] for q in at_k], w_i + w_k)
            for k, (at_k, w_k) in enumerate(cols)) for row, (at_i, w_i) in zip(M, cols))

    def j_apply(self, vec: Sequence[Scalar]) -> Vector:
        """Componentwise J(v) for a vector of scalars: entry k is
        sum_q J[k][q] v[q], a ``_walk`` over the support of row k of J."""
        ring = self.ring
        return tuple(_walk(ring, [vec[q] for q in at], weights)
                     for at, weights in _j_row_weights(self))

    def with_phi(self, phi: Sequence[Scalar | str | RationalLike]) -> "FrameSpec":
        """Spec with a replacement Weyl form: c and J are kept as validated, and
        only phi is checked, as ``create`` checks it."""
        return FrameSpec(dimension=self.dimension, ring=self.ring, basis=self.basis,
                         c=self.c, J=self.J, phi=_coerce_phi(self.ring, self.n, phi),
                         name=self.name)


def _coerce_phi(ring: Ring, n: int,
                phi: Sequence[Scalar | str | RationalLike]) -> Vector:
    """Weyl-form coefficients as scalars of ``ring``: scalars are kept, strings
    parsed and rational constants lifted."""
    vec = []
    for idx, entry in enumerate(phi):
        if isinstance(entry, Scalar):
            if entry.ring != ring:
                raise FrameError(f"phi[{idx}] lives in a foreign ring")
            vec.append(entry)
        elif isinstance(entry, str):
            vec.append(ring.parse(entry))
        else:
            vec.append(ring.const(entry))
    if len(vec) != n:
        raise FrameError("phi must have one coefficient per basis vector")
    return tuple(vec)


def _is_skew(a: Sequence[Sequence[Scalar]]) -> bool:
    """Whether the endomorphism a is skew, ``a[i][j] = -a[j][i]``."""
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(i, n))


# -- supports of the rational data -----------------------------------------

@_kept
def _j_ints(spec: FrameSpec) -> tuple[int, list]:
    """J as dense ints ``(den, J)``, ``J[p][q]`` = den * J[p][q]."""
    den = math.lcm(*(v.denominator for row in spec.J for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in spec.J]


def _weights(den: int, supports: list) -> list[tuple[list[int], list]]:
    """``(positions, weights)`` for each support of ``(position, den * value)``
    lists: the values as ints when ``den`` is 1 and as Fractions otherwise."""
    return [([p for p, _ in sup], [v if den == 1 else Fraction(v, den) for _, v in sup])
            for sup in supports]


@_kept
def _j_weights(spec: FrameSpec) -> list[tuple[list[int], list]]:
    """The rows p where J[p][i] is nonzero and those entries, for each column
    ``J E_i``."""
    return _weights(*spec.j_columns())


@_kept
def _j_row_weights(spec: FrameSpec) -> list[tuple[list[int], list]]:
    """The columns q where J[k][q] is nonzero and those entries, for each row k
    of J."""
    den, J = _j_ints(spec)
    return _weights(den, [[(q, v) for q, v in enumerate(row) if v] for row in J])


def _walk(ring: Ring, values: list, weights: list) -> Scalar:
    """``ring.dot(values, weights)`` against nonzero weights, without a kernel
    call when every value is zero (the shared zero) or when the one value is a
    scalar of the ring and its weight is 1 or -1 (the value or its negation)."""
    if len(values) == 1 and type(values[0]) is Scalar and values[0].ring is ring:
        if weights[0] == 1:
            return values[0]
        if weights[0] == -1:
            return -values[0]
    return ring.dot(values, weights) if any(values) else ring.zero()


def _accumulate(acc: dict, weight: int, row) -> None:
    """``acc[k] += weight * v`` for each ``(k, v)`` of a support row."""
    get = acc.get
    for k, v in row:
        acc[k] = get(k, 0) + weight * v


# -- exterior calculus (constant components) ------------------------------

def d_oneform(spec: FrameSpec, omega: Sequence[Scalar]) -> tuple[Vector, ...]:
    """d omega with ``(d omega)(E_i, E_j) = -omega([E_i, E_j])``, as an n x n
    array, contracted over the nonzero bracket rows i < j only."""
    _, rows = spec.bracket_rows()
    zero = spec.zero()
    return _antisymmetric(spec.n, zero,
                          lambda i, j: -spec.dot(spec.c[i][j], omega) if rows[i][j] else zero)


def _antisymmetric(n: int, zero, entry, negate=lambda x: -x):
    """The n x n array with entry(i, j) for i < j, its ``negate`` for i > j and
    ``zero`` on the diagonal; entry is called once per pair i < j.  The module
    docstring says which arrays are built here."""
    out = [[zero] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        out[i][j] = entry(i, j)
        out[j][i] = negate(out[i][j])
    return tuple(tuple(row) for row in out)


def _alternating(n: int, zero, entry, negate=lambda x: -x):
    """The n x n x n array with entry(i, j, k) for i < j < k and at its cyclic
    images, its ``negate`` at the odd images and ``zero`` where two indices
    agree; entry is called once per increasing triple.  The 3-forms and the
    first Bianchi residual are built here."""
    out = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in combinations(range(n), 3):
        value = entry(i, j, k)
        minus = negate(value)
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            out[a][b][d], out[b][a][d] = value, minus
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def _negative(a: Sequence[Sequence]) -> tuple[Vector, ...]:
    """-a for an n x n array, the ``negate`` of arrays of n x n blocks."""
    return tuple(tuple(-x for x in row) for row in a)


# -- built-in geometries ---------------------------------------------------

def builtin(name: str, signs: tuple[int, int] | None = None) -> FrameSpec:
    """The two built-in frame geometries.

    ``inoue-s0``: solvable frame with ``[E1,E2] = -E1``,
    ``[E2,E3] = -1/2 E3``, ``[E2,E4] = -1/2 E4``, standard J
    (``J E1 = E2``, ``J E3 = E4``) and ``phi = a1 eta1 + ... + a4 eta4``.

    ``kodaira``: nilpotent frame with ``[A1,A2] = -2 A4``, complex structure
    ``J A1 = e1 A2``, ``J A3 = e2 A4`` for the required ``signs`` in
    ``{+1,-1}^2``, and ``phi = a1 alpha1 + ... + a4 alpha4``.
    """
    if name == "inoue-s0":
        if signs is not None:
            raise FrameError("inoue-s0 takes no signs")
        half = Fraction(1, 2)
        return FrameSpec.create(
            dimension=4,
            symbols=("a1", "a2", "a3", "a4"),
            brackets={(0, 1): {0: -1}, (1, 2): {2: -half}, (1, 3): {3: -half}},
            J=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
            phi=("a1", "a2", "a3", "a4"),
            name="inoue-s0")
    if name == "kodaira":
        if signs is None:
            raise FrameError("kodaira requires signs (e1, e2) in {+1,-1}^2")
        e1, e2 = signs
        if e1 not in (1, -1) or e2 not in (1, -1):
            raise FrameError(f"signs must be +1 or -1, got {signs}")
        return FrameSpec.create(
            dimension=4,
            symbols=("a1", "a2", "a3", "a4"),
            brackets={(0, 1): {3: -2}},
            J=[[0, -e1, 0, 0], [e1, 0, 0, 0], [0, 0, 0, -e2], [0, 0, e2, 0]],
            phi=("a1", "a2", "a3", "a4"),
            basis=("A1", "A2", "A3", "A4"),
            name=f"kodaira({e1:+d},{e2:+d})")
    raise FrameError(f"unknown builtin {name!r} (available: inoue-s0, kodaira)")


# -- structured-text loader ------------------------------------------------

_FRAME_KEYS = {"dimension", "symbols", "basis"}
_SECTIONS = {"frame", "brackets", "complex_structure", "weyl_form"}


def load_spec(text: str, name: str = "custom") -> FrameSpec:
    """Load a frame document (format described in the README).

    Strict mode: unknown sections or keys are errors, as are non-constant
    structure constants, malformed matrices and any failed frame invariant.
    TOML booleans are rejected wherever an integer is accepted, although
    Python counts them as integers.  Values nested too deeply for the parser
    make the document malformed.
    """
    try:
        doc = tomllib.loads(text)
    except ValueError as exc:  # TOMLDecodeError, or an integer too long to convert
        raise SpecFormatError(str(exc)) from None
    except RecursionError:  # arrays or inline tables nested past the parser's stack
        raise SpecFormatError("values nest too deeply to parse") from None
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise SpecFormatError(f"unknown sections: {sorted(unknown)}")
    for section in ("frame", "brackets", "complex_structure", "weyl_form"):
        if section not in doc:
            raise SpecFormatError(f"missing section [{section}]")
        if not isinstance(doc[section], dict):
            raise SpecFormatError(f"[{section}] must be a table")

    frame = doc["frame"]
    unknown = set(frame) - _FRAME_KEYS
    if unknown:
        raise SpecFormatError(f"unknown keys in [frame]: {sorted(unknown)}")
    if "dimension" not in frame or "symbols" not in frame:
        raise SpecFormatError("[frame] requires dimension and symbols")
    dimension = frame["dimension"]
    if not _is_int(dimension):
        raise SpecFormatError("dimension must be an integer")
    _check_dimension(dimension)
    symbols = frame["symbols"]
    if (not isinstance(symbols, list)
            or not all(isinstance(s, str) for s in symbols)):
        raise SpecFormatError("symbols must be a list of strings")
    basis = frame.get("basis")
    if basis is not None and (not isinstance(basis, list)
                              or not all(isinstance(s, str) for s in basis)):
        raise SpecFormatError("basis must be a list of strings")
    if basis is None:
        basis = [f"E{i+1}" for i in range(dimension)]
    index = {bname: i for i, bname in enumerate(basis)}

    def to_fraction(value, where: str) -> Fraction:
        if not (_is_int(value) or isinstance(value, str)):
            raise SpecFormatError(f"{where}: expected integer or rational string, got {value!r}")
        try:
            return _fraction(value)
        except ValueError:
            raise SpecFormatError(f"{where}: not a rational constant: {value!r}") from None

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    key_of_pair: dict[frozenset[int], str] = {}
    for key, table in doc["brackets"].items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or any(p not in index for p in parts):
            raise SpecFormatError(f"[brackets] key must name two basis vectors, got {key!r}")
        i, j = index[parts[0]], index[parts[1]]
        first = key_of_pair.setdefault(frozenset((i, j)), key)
        if first != key:
            raise SpecFormatError(f"[brackets] {first!r} and {key!r} name the same pair")
        if not isinstance(table, dict):
            raise SpecFormatError(f"[brackets] {key!r} must map basis vectors to constants")
        comps = {}
        for bname, value in table.items():
            if bname not in index:
                raise SpecFormatError(f"[brackets] {key!r}: unknown basis vector {bname!r}")
            comps[index[bname]] = to_fraction(value, f"[brackets] {key!r}")
        brackets[(i, j)] = comps

    cs = doc["complex_structure"]
    unknown = set(cs) - {"matrix"}
    if unknown:
        raise SpecFormatError(f"unknown keys in [complex_structure]: {sorted(unknown)}")
    rows = cs.get("matrix")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SpecFormatError("[complex_structure] requires matrix = [[...], ...]")
    matrix = [[to_fraction(x, "[complex_structure]") for x in row] for row in rows]

    phi: list[str] = []
    weyl = doc["weyl_form"]
    for bname in weyl:
        if bname not in index:
            raise SpecFormatError(f"[weyl_form]: unknown basis vector {bname!r}")
    for bname in basis:
        phi.append(weyl.get(bname, "0"))
    for entry in phi:
        if not isinstance(entry, str):
            raise SpecFormatError("[weyl_form] coefficients must be strings")

    try:
        return FrameSpec.create(dimension=dimension, symbols=symbols,
                                brackets=brackets, J=matrix, phi=phi,
                                basis=basis, name=name)
    except FrameError:
        raise
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_spec_file(path) -> FrameSpec:
    import os
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return load_spec(text, name=os.path.basename(str(path)))
