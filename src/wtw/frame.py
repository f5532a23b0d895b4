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
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .polyalg import Ring, Scalar, RationalLike

Vector = tuple[Scalar, ...]


class FrameError(ValueError):
    """A frame document violates a structural invariant."""


class SpecFormatError(ValueError):
    """A spec document is malformed (syntax or unknown/missing keys)."""


def _kron(i: int, j: int) -> int:
    return 1 if i == j else 0


_MISSING = object()


class Memo:
    """Mixin for an immutable object that keeps the values derived from it.

    ``obj.memo(compute, *args)`` returns ``compute(obj, *args)``, computing it
    only on the first call with that key.  The key is the compute function
    with its arguments, never a label, so two independent routes to one
    quantity never share an entry.  The values live in the object's own
    ``__dict__``: they are freed with the object, and every new object,
    including one made by ``restrict`` or ``with_phi``, starts with none.
    """

    def memo(self, compute, *args):
        store = self.__dict__.setdefault("_memo", {})
        key = (compute, *args)
        value = store.get(key, _MISSING)
        if value is _MISSING:
            value = store[key] = compute(self, *args)
        return value


@dataclass(frozen=True)
class FrameSpec(Memo):
    """Validated frame data; immutable after construction.

    Quantities derived from the frame (connections, the Nijenhuis tensor,
    the Lee data, d(phi), ...) are computed once and kept on the spec; see
    :class:`Memo`.
    """

    dimension: int
    ring: Ring
    basis: tuple[str, ...]
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    J: tuple[tuple[Fraction, ...], ...]
    phi: Vector
    name: str = "custom"

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

        Bracket keys use 0-based ``i < j``; antisymmetry is filled in.
        ``phi`` entries may be scalars, parse strings, or rational constants.
        """
        if dimension % 2 != 0 or dimension < 4:
            raise FrameError(f"dimension must be an even integer >= 4, got {dimension}")
        ring = Ring(tuple(symbols))
        if basis is None:
            basis = tuple(f"E{i+1}" for i in range(dimension))
        else:
            basis = tuple(basis)
            if len(basis) != dimension or len(set(basis)) != dimension:
                raise FrameError("basis must list n distinct vector names")
        n = dimension
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            if not (0 <= i < n and 0 <= j < n):
                raise FrameError(f"bracket index out of range: {(i, j)}")
            if any(not (0 <= k < n) for k in comps):
                raise FrameError(f"bracket component index out of range in {(i, j)}")
            if i == j and any(Fraction(v) != 0 for v in comps.values()):
                raise FrameError(f"[E_{i+1}, E_{i+1}] must vanish")
            for k, value in comps.items():
                value = Fraction(value)
                c[i][j][k] = value
                c[j][i][k] = -value
        jm = tuple(tuple(Fraction(x) for x in row) for row in J)
        if len(jm) != n or any(len(row) != n for row in jm):
            raise FrameError("complex structure must be an n x n matrix")
        spec = FrameSpec(dimension=n, ring=ring, basis=basis,
                         c=tuple(tuple(tuple(row) for row in plane) for plane in c),
                         J=jm, phi=_coerce_phi(ring, n, phi), name=name)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Check antisymmetry, the Jacobi identity and J^2 = -I, J^T J = I."""
        n = self.dimension
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise FrameError(
                            f"structure constants not antisymmetric at ({i+1},{j+1},{k+1})")
        # Once c is antisymmetric the Jacobiator alternates in (i, j, k) and
        # vanishes on repeated indices, so increasing triples suffice; the
        # first failing one is the first failing ordered triple.
        for i, j, k in combinations(range(n), 3):
            for l in range(n):
                acc = Fraction(0)
                for m in range(n):
                    acc += (self.c[i][j][m] * self.c[m][k][l]
                            + self.c[j][k][m] * self.c[m][i][l]
                            + self.c[k][i][m] * self.c[m][j][l])
                if acc != 0:
                    raise FrameError(
                        "Jacobi identity fails on "
                        f"({self.basis[i]},{self.basis[j]},{self.basis[k]})")
        for i in range(n):
            for j in range(n):
                jj = sum(self.J[i][m] * self.J[m][j] for m in range(n))
                if jj != -_kron(i, j):
                    raise FrameError("J^2 = -Identity fails")
                jtj = sum(self.J[m][i] * self.J[m][j] for m in range(n))
                if jtj != _kron(i, j):
                    raise FrameError("J is not g-orthogonal (J^T J = Identity fails)")
        for idx, entry in enumerate(self.phi):
            if entry.ring != self.ring:
                raise FrameError(f"phi[{idx}] lives in a foreign ring")

    # -- small helpers ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.dimension

    def zero(self) -> Scalar:
        return self.ring.zero()

    def const(self, value: RationalLike) -> Scalar:
        return self.ring.const(value)

    def j_endo(self) -> "Endo":
        """The complex structure as an endomorphism with scalar entries."""
        return self.memo(_j_endo)

    def dphi(self) -> "TwoForm":
        """d(phi) of the spec's Weyl form."""
        return self.memo(_dphi)

    def j_apply(self, vec: Sequence[Scalar]) -> Vector:
        """Componentwise J(v) for a vector of scalars."""
        n = self.n
        return tuple(sum((self.J[l][p] * vec[p] for p in range(n)), self.zero())
                     for l in range(n))

    def restrict(self, assignment: Mapping[str, RationalLike]) -> "FrameSpec":
        """Spec with the assignment substituted into phi (same ring)."""
        new_phi = tuple(p.substitute(assignment) for p in self.phi)
        return FrameSpec(dimension=self.dimension, ring=self.ring, basis=self.basis,
                         c=self.c, J=self.J, phi=new_phi, name=self.name)

    def with_phi(self, phi: Sequence[Scalar | str | RationalLike]) -> "FrameSpec":
        """Spec with a replacement Weyl form (revalidated)."""
        return FrameSpec(dimension=self.dimension, ring=self.ring, basis=self.basis,
                         c=self.c, J=self.J, phi=_coerce_phi(self.ring, self.n, phi),
                         name=self.name)


def _coerce_phi(ring: Ring, n: int,
                phi: Sequence[Scalar | str | RationalLike]) -> Vector:
    """Weyl-form coefficients as scalars of ``ring``: scalars are kept, strings
    parsed and rational constants lifted."""
    vec = []
    for entry in phi:
        if isinstance(entry, Scalar):
            vec.append(entry)
        elif isinstance(entry, str):
            vec.append(ring.parse(entry))
        else:
            vec.append(ring.const(entry))
    if len(vec) != n:
        raise FrameError("phi must have one coefficient per basis vector")
    return tuple(vec)


class Endo:
    """An endomorphism of the frame with scalar entries.

    Column convention: ``S(E_j) = sum_i comps[i][j] E_i``; composition is
    ``@``.  Used for J, covariant derivatives of J, curvature actions and
    vertical twistor vectors.
    """

    __slots__ = ("spec", "comps")

    def __init__(self, spec: FrameSpec, comps: Sequence[Sequence[Scalar]]):
        self.spec = spec
        self.comps = tuple(tuple(row) for row in comps)

    @staticmethod
    def from_rational(spec: FrameSpec, matrix: Sequence[Sequence[RationalLike]]) -> "Endo":
        return Endo(spec, [[spec.const(x) for x in row] for row in matrix])

    @staticmethod
    def zero(spec: FrameSpec) -> "Endo":
        z = spec.zero()
        return Endo(spec, [[z] * spec.n for _ in range(spec.n)])

    @staticmethod
    def identity(spec: FrameSpec) -> "Endo":
        return Endo(spec, [[spec.const(_kron(i, j)) for j in range(spec.n)]
                           for i in range(spec.n)])

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.comps[i][j]

    def __add__(self, other: "Endo") -> "Endo":
        return Endo(self.spec, [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.comps, other.comps)])

    def __sub__(self, other: "Endo") -> "Endo":
        return Endo(self.spec, [[a - b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.comps, other.comps)])

    def __neg__(self) -> "Endo":
        return Endo(self.spec, [[-a for a in row] for row in self.comps])

    def __matmul__(self, other: "Endo") -> "Endo":
        n = self.spec.n
        z = self.spec.zero()
        rows = []
        for row in self.comps:
            # skip zero entries: J and the vertical basis are mostly zeros
            entries = [(m, a) for m, a in enumerate(row) if not a.is_zero]
            rows.append([sum((a * other.comps[m][j] for m, a in entries), z)
                         for j in range(n)])
        return Endo(self.spec, rows)

    def scale(self, value) -> "Endo":
        return Endo(self.spec, [[a * value for a in row] for row in self.comps])

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        n = self.spec.n
        z = self.spec.zero()
        return tuple(sum((self.comps[i][j] * vec[j] for j in range(n)), z)
                     for i in range(n))

    def transpose(self) -> "Endo":
        n = self.spec.n
        return Endo(self.spec, [[self.comps[j][i] for j in range(n)] for i in range(n)])

    def trace(self) -> Scalar:
        return sum((self.comps[i][i] for i in range(self.spec.n)), self.spec.zero())

    def commutator(self, other: "Endo") -> "Endo":
        return (self @ other) - (other @ self)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.comps for a in row)

    @property
    def is_skew(self) -> bool:
        n = self.spec.n
        return all((self.comps[i][j] + self.comps[j][i]).is_zero
                   for i in range(n) for j in range(n))

    def anticommutes_with(self, other: "Endo") -> bool:
        return ((self @ other) + (other @ self)).is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, Endo) and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(str(a) for a in row) + "]" for row in self.comps)
        return f"Endo({rows})"


class TwoForm:
    """Antisymmetric scalar matrix: the 2-form F with ``F(E_i, E_j) = comps[i][j]``,
    or the bivector ``sum_{i<j} comps[i][j] E_i ^ E_j`` (alias :data:`Bivector`)."""

    __slots__ = ("spec", "comps")

    def __init__(self, spec: FrameSpec, comps: Sequence[Sequence[Scalar]]):
        self.spec = spec
        self.comps = tuple(tuple(row) for row in comps)
        n = spec.n
        for i in range(n):
            for j in range(n):
                if not (self.comps[i][j] + self.comps[j][i]).is_zero:
                    raise FrameError(f"2-form not antisymmetric at ({i+1},{j+1})")

    @staticmethod
    def wedge_vectors(spec: FrameSpec, u: Sequence[Scalar], v: Sequence[Scalar]) -> "TwoForm":
        """The decomposable bivector u ^ v."""
        n = spec.n
        return TwoForm(spec, [[u[p] * v[q] - u[q] * v[p] for q in range(n)]
                              for p in range(n)])

    def __call__(self, i: int, j: int) -> Scalar:
        return self.comps[i][j]

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.spec, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.comps, other.comps)])

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.spec, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.comps, other.comps)])

    def scale(self, value) -> "TwoForm":
        return TwoForm(self.spec, [[a * value for a in row] for row in self.comps])

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.comps for a in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoForm) and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)


Bivector = TwoForm


class ThreeForm:
    """Fully antisymmetric 3-slot tensor of scalars."""

    __slots__ = ("spec", "comps")

    def __init__(self, spec: FrameSpec, comps):
        self.spec = spec
        self.comps = tuple(tuple(tuple(row) for row in plane) for plane in comps)

    def __call__(self, i: int, j: int, k: int) -> Scalar:
        return self.comps[i][j][k]

    def __sub__(self, other: "ThreeForm") -> "ThreeForm":
        n = self.spec.n
        return ThreeForm(self.spec, [[[self.comps[i][j][k] - other.comps[i][j][k]
                                       for k in range(n)] for j in range(n)]
                                     for i in range(n)])

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for plane in self.comps for row in plane for a in row)


def _j_endo(spec: FrameSpec) -> Endo:
    return Endo.from_rational(spec, spec.J)


def _dphi(spec: FrameSpec) -> "TwoForm":
    return d_oneform(spec, spec.phi)


# -- exterior calculus (constant components) ------------------------------

def d_oneform(spec: FrameSpec, omega: Sequence[Scalar]) -> TwoForm:
    """d omega with ``(d omega)(E_i, E_j) = -omega([E_i, E_j])``."""
    n = spec.n
    z = spec.zero()
    comps = [[-sum((spec.c[i][j][k] * omega[k] for k in range(n)), z)
              for j in range(n)] for i in range(n)]
    return TwoForm(spec, comps)


def d_twoform(spec: FrameSpec, F: TwoForm) -> ThreeForm:
    """dF(X,Y,Z) = -F([X,Y],Z) + F([X,Z],Y) - F([Y,Z],X) for invariant F."""
    n = spec.n
    z = spec.zero()

    def bracket_slot(i, j, k):
        return sum((spec.c[i][j][m] * F.comps[m][k] for m in range(n)), z)

    comps = [[[-bracket_slot(i, j, k) + bracket_slot(i, k, j) - bracket_slot(j, k, i)
               for k in range(n)] for j in range(n)] for i in range(n)]
    return ThreeForm(spec, comps)


def eval_on_bivector(F: TwoForm, b: Bivector) -> Scalar:
    """``sum_{i<j} b[i][j] F(E_i, E_j)`` (pairing normalized so that
    ``eta_1 ^ eta_2`` on ``E_1 ^ E_2`` gives 1)."""
    n = F.spec.n
    return sum((b.comps[i][j] * F.comps[i][j]
                for i in range(n) for j in range(i + 1, n)), F.spec.zero())


def sharp(spec: FrameSpec, omega: Sequence[Scalar]) -> Vector:
    """Index raising; the identity on components in an orthonormal frame."""
    return tuple(omega)


def wedge_oneforms(spec: FrameSpec, alpha: Sequence[Scalar], beta: Sequence[Scalar]) -> TwoForm:
    """(alpha ^ beta)(X, Y) = alpha(X) beta(Y) - alpha(Y) beta(X)."""
    n = spec.n
    return TwoForm(spec, [[alpha[i] * beta[j] - alpha[j] * beta[i]
                           for j in range(n)] for i in range(n)])


def wedge_one_two(spec: FrameSpec, alpha: Sequence[Scalar], F: TwoForm) -> ThreeForm:
    """(alpha ^ F)(X,Y,Z) = alpha(X)F(Y,Z) - alpha(Y)F(X,Z) + alpha(Z)F(X,Y)."""
    n = spec.n
    comps = [[[alpha[i] * F.comps[j][k] - alpha[j] * F.comps[i][k] + alpha[k] * F.comps[i][j]
               for k in range(n)] for j in range(n)] for i in range(n)]
    return ThreeForm(spec, comps)


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
    Python counts them as integers.
    """
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecFormatError(str(exc)) from None
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
        if _is_int(value):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise SpecFormatError(f"{where}: not a rational constant: {value!r}") from None
        raise SpecFormatError(f"{where}: expected integer or rational string, got {value!r}")

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for key, table in doc["brackets"].items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or any(p not in index for p in parts):
            raise SpecFormatError(f"[brackets] key must name two basis vectors, got {key!r}")
        i, j = index[parts[0]], index[parts[1]]
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
    except (FrameError, ValueError) as exc:
        if isinstance(exc, FrameError):
            raise
        raise SpecFormatError(str(exc)) from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_spec_file(path) -> FrameSpec:
    import os
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return load_spec(text, name=os.path.basename(str(path)))
