"""Pointwise twistor-fiber algebra and the two second-fundamental-form traces.

Everything here is evaluated at the single fiber point I = J of the section
defined by the complex structure; no chart of the twistor manifold is ever
built.  The fiber metric on endomorphisms is

    G(a, b) = 1/2 Trace{X -> g(aX, bX)} = 1/2 Trace(a^T b),

which equals -1/2 Trace(a o b) on skew endomorphisms.  The wedge isomorphism
sends a skew endomorphism ``a`` to the bivector a^ with components
``g(a E_i, E_j)``, the transpose of ``a``, normalized so that
``2 g(a^, X ^ Y) = g(aX, Y)`` under the halved metric on bivectors.
Endomorphisms, bivectors and 2-forms are n x n nested tuples, as in
:mod:`wtw.frame`: products are read through ``FrameSpec.left`` and ``dot``,
each entry of a sum or difference of endomorphisms is one kernel call, and
so is each entry of a commutator, over the terms of both products.
``_is_vertical`` tests that V is skew and J^T V J = -V (``FrameSpec.twist``),
which for an orthogonal J says that V anticommutes with J.

The curvature of the induced connection on endomorphism sections acts as the
commutator ``R(X, Y) a = R(X, Y) o a - a o R(X, Y)``, with R(E_i, E_j) the
transpose of the stored block ``R.r[i][j]``; this is cross-checked
against D_{[X, Y]} a - D_X D_Y a + D_Y D_X a, read from the derivative D a
kept on the connection, and any mismatch raises.  Each row of the
cross-check's residual at a pair i < j is one ``FrameSpec.left`` over four
terms: the bracket term, the gamma expansions of -D_i(D_j a) and
+D_j(D_i a) (``wtw.connection._along_terms``) and the action, so no second
derivative is formed as an array; ``v_trace`` reads the trace of D2 J formed
the same way (:func:`wtw.connection.traced_second_cov_deriv_endo`).
The action on an endomorphism is kept on its curvature tensor, and the
cross-check runs once per connection and endomorphism, its ``None`` kept on
the connection (``wtw.frame._kept``).  Both are antisymmetric in (X, Y), so
they are formed for the frame pairs i < j only.  The action, the vertical
antisymmetry residual and the pairings of the action with a fixed
endomorphism (D_Y J in the DJ pairing, b in the pairing identity) are built
by ``wtw.frame._antisymmetric``, the one builder of arrays antisymmetric in
a pair of indices: as the action at (Y, X) is stored as the negation of the
one at (X, Y), so is its pairing.

The checks form only what they need.  The fiber metric is ad-invariant,
``G([R, a], b) = G(R, [a, b])`` for skew ``a`` and any ``R``, so the one
builder of a skew pair's residuals, ``_pairing_residuals``, reads
``G(R(X, Y)b, a)`` as ``-G(R(X, Y), [a, b])``, which is ``G(r[i][j], [a, b])``
as [a, b] is skew, from the commutator the pairing identity reads too, not
from n^2 commutators, and pairs the stored action on ``a`` with ``b`` once
for both residuals; the antisymmetry's two sides stay different
computations.  A pairing ``G(., b)`` with a fixed ``b`` sums over the
nonzero entries of ``b`` only: ``_g_against`` finds them and halves them
once per ``b``, so that each pairing is one kernel call, and is the one
support walk of this module, as ``b`` is reused across calls; every other
contraction here walks its support in a ``FrameSpec`` contraction (see
:mod:`wtw.frame`).

Both fiber pairings, the identity for G(R(X, Y)a, b) against every vertical
direction and the DJ pairing, are one identity,

    G(R(X, Y)a, b) = g(R([a, b]^) X, Y)
        - 1/2 [dphi([a, b]^) g(X, Y) + dphi([a, b]X, Y) + dphi(X, [a, b]Y)],

and read its one builder, ``_pairing_identity(R, paired, c)``, with the
pairing array and the skew c = [a, b], which read as a bivector array is
-[a, b]^.  Each residual entry [i][j] is one ``FrameSpec.dot`` over the
pairing against 1; entry [i][j] of the block ``R.r[p][q]`` of each plane
p < q where c is nonzero, against c[p][q]; dphi(c), formed once, against -1/2
on the diagonal; and dphi(c E_i, E_j) and dphi(c E_j, E_i) against 1/2 and
-1/2, the latter being dphi(E_i, c E_j) as dphi is antisymmetric.  So
neither R(c) nor a sum of dphi terms is formed as an array, and each
contraction of dphi with c is formed once.  ``_pairing_residuals`` passes
the commutator it forms.  The DJ pairing is the identity at
(a, b) = (J, D_Y J), and per direction Y it forms c_y = [J, D_Y J] from
Levi-Civita data alone,

    c_y = -w,  w = 2 (J nabla_Y J)^ - phi# ^ Y + J phi# ^ JY,

where -(J nabla_Y J)^ is J nabla_Y J itself, as it is skew.  So c_y is
antisymmetric and built by ``_antisymmetric``: its entry (i, j), i < j, is
one ``FrameSpec.dot`` of the int numerator at (i, j) of J o nabla_Y J that
:mod:`wtw.hermitian` keeps, phi_i, phi_j, (J phi)_i and (J phi)_j against
2/den, delta_jy, -delta_iy, -J[j][y] and J[i][y], and no wedge of phi is
formed as an array.

Vertical bases: for m = n/2 the ``m^2 - m`` endomorphisms pairing the J-planes
of a rational orthogonal basis are stored *unnormalized*; expansions divide
by the norm squared instead of normalizing, keeping all arithmetic rational.
The planes come from any orthogonal J: u_r is E_i less its projections onto
the u and J u of each earlier plane, divided by |u|^2, kept where it is
nonzero.  For each pair of planes r < s, with w(a, b) = a b^T - b a^T,

    A[r,s] = w(u_s, u_r) - w(J u_s, J u_r),
    B[r,s] = w(J u_s, u_r) + w(u_s, J u_r),

and the Gram matrix of the family is diagonal, with the entry
2 |u_r|^2 |u_s|^2 in ``norm_sq``.  Each w(a, b) is antisymmetric, so each
element is built by ``_antisymmetric`` from its entries for x < y.  The
vectors are sparse, so on a J that is a signed permutation each u_r is a
frame vector, each element has four nonzero entries and each norm is 2.  The
basis is kept on the spec.

:func:`vertical_checks` calls ``_pairing_residuals`` once per vertical
direction V, for (J, V), after one cross-check of the action on J.  By
ad-invariance it covers the antisymmetry G(R(X, Y)J, V) + G(R(X, Y)V, J) = 0
for every vertical V, as the basis spans the vertical space.  The vertical
Gram and the verticality of each element are checked once, as the basis is
built.

The DJ pairing's left-hand side G(R(E_x, E_z)J, D_{E_y} J) is one array,
``paired[y][x][z]`` (``_curvature_dj_pairing``), formed for x < z and
mirrored from the action on J and D J, and kept on the spec.  ``h_trace`` is
the domain trace of that fiber pairing, ``sum_x paired[x][x][k]``; it forms
no condition term, so comparing it with condition (ii) compares two
computations.  ``v_trace`` is the
anti-invariant part of Tr D2 J.  :func:`equivalence_check` ties both traces to
the conditions, the paper's equivalence, comparing ``v_trace`` with -P, the
negated condition-(i) pairing of :mod:`wtw.pseudoharmonic`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple

from .connection import (Connection, _along_terms, cov_deriv_endo,
                         traced_second_cov_deriv_endo, weyl)
from .curvature import Curvature, curvature
from .frame import (FrameError, FrameSpec, Vector, _accumulate, _antisymmetric, _is_skew, _kept,
                    _kron, _negative)
from .hermitian import _j_nabla_j_ints, require_gate
from .polyalg import Scalar
from .pseudoharmonic import condition_i, condition_i_pairing, condition_ii
from .reports import CheckReport


def g_fiber(spec: FrameSpec, a: tuple[Vector, ...], b: tuple[Vector, ...]) -> Scalar:
    """G(a, b) = 1/2 sum_i g(a E_i, b E_i)."""
    return _g_against(spec, b)(a)


def _g_against(spec: FrameSpec, b: tuple[Vector, ...]):
    """The map a -> G(a, b) for one b, summing over the nonzero entries of b only
    (the vertical directions and J are mostly zeros).  Each is halved once per
    b, a scalar by ``Scalar._divided`` and a rational as a Fraction, so that a
    pairing is one kernel call."""
    values = [x._divided(2) if type(x) is Scalar else Fraction(x, 2)
              for row in b for x in row if x]
    support = [(k, l) for k, row in enumerate(b) for l, x in enumerate(row) if x]
    dot = spec.ring.dot
    return lambda a: dot([a[k][l] for k, l in support], values)


def _commutator(spec: FrameSpec, a: tuple[Vector, ...],
                b: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """[a, b] = a o b - b o a: row i is one ``FrameSpec.left`` of the row
    a[i] + (-b[i]) against the rows of b followed by those of a, so entry
    (i, j) is one kernel call, read only where that row is nonzero."""
    rows = (*b, *a)
    return tuple(spec.left((*row_a, *[-x for x in row_b]), rows) for row_a, row_b in zip(a, b))


def _is_vertical(spec: FrameSpec, V: tuple[Vector, ...]) -> bool:
    """Whether V is vertical at J: skew, and J^T V J = -V, which for an
    orthogonal J says V o J + J o V = 0."""
    return _is_skew(V) and spec.twist(V) == _negative(V)


@_kept
def endo_curvature_action(R: Curvature, S: tuple[Vector, ...]) -> tuple:
    """R(E_i, E_j) acting on an endomorphism section: the commutator action."""
    # R(X, Y) = -R(Y, X); R(E_i, E_j) as an endomorphism is the transpose of r[i][j]
    spec = R.spec
    zero = ((spec.zero(),) * spec.n,) * spec.n
    return _antisymmetric(spec.n, zero, lambda i, j: _commutator(
        spec, tuple(zip(*R.r[i][j])), S), _negative)


@_kept
def endo_curvature_consistency(conn: Connection, S: tuple[Vector, ...]) -> None:
    """Assert the commutator action equals the gamma-based curvature on Hom.

    The gamma route: R(E_i,E_j)S = D_{[E_i,E_j]} S - D_i D_j S + D_j D_i S =
    sum_m c[i][j][m] D_m S - D_i D_j S + D_j D_i S, with every derivative the
    induced one on endomorphisms, read from the D S kept on the connection;
    for each pair i < j, each row of the residual is one contraction
    (``_hom_residual``), and no D_i D_j S is formed as an array.
    Raises on any mismatch (sign conventions are the dominant failure mode).
    A passed check is kept on the connection and not repeated.
    """
    comm = endo_curvature_action(curvature(conn), S)
    first = cov_deriv_endo(conn, S)
    # both sides are antisymmetric in (i, j), so i < j suffices
    for i, j in combinations(range(conn.spec.n), 2):
        if any(chain.from_iterable(_hom_residual(conn, first, comm[i][j], i, j))):
            raise AssertionError(
                "induced curvature mismatch between commutator action and "
                f"double covariant derivative at ({i+1},{j+1})")


def _hom_residual(conn: Connection, first, action: tuple[Vector, ...], i: int, j: int):
    """sum_m c[i][j][m] D_m S - D_i(D_j S) + D_j(D_i S) - action, with ``first``
    = D S: row l is one ``FrameSpec.left`` over the four terms, the second and
    third through their gamma expansions (``connection._along_terms``), so no
    D_i D_j S array is built."""
    minus_i, at_i = _along_terms(conn, first[j], i, -1)
    plus_j, at_j = _along_terms(conn, first[i], j)
    rows = (*minus_i, *plus_j)
    return tuple(conn.spec.left((*conn.spec.c[i][j], *u, *v, -1),
                                (*(d[l] for d in first), *rows, action[l]))
                 for l, (u, v) in enumerate(zip(at_i, at_j)))


class VerticalBasis(NamedTuple):
    """Unnormalized vertical endomorphisms at the fiber point J.

    Every element is skew and anti-commutes with J, and the pairwise fiber
    metric is diagonal, with ``norm_sq[a]`` the G-norm squared of element a.
    """

    elements: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...]
    norm_sq: tuple[Fraction, ...]


@_kept
def vertical_basis(spec: FrameSpec) -> VerticalBasis:
    """The plane-pairing family spanning the vertical space at J, kept on the spec."""
    n, zero = spec.n, spec.zero()
    rows = []  # (element, label, norm squared); n >= 4, so there is one at least
    for (r, (ur, jr, nr)), (s, (us, js, ns)) in combinations(enumerate(_planes(spec)), 2):
        # w(a, b) = a b^T - b a^T, so that -w(J u_s, J u_r) = w(J u_r, J u_s)
        for name, pairs in (("A", ((us, ur), (jr, js))), ("B", ((js, ur), (us, jr)))):
            # the sum of w(a, b) over the pairs, antisymmetric as each w is
            element = _antisymmetric(n, zero, lambda x, y: spec.const(sum(
                a.get(x, 0) * b.get(y, 0) - a.get(y, 0) * b.get(x, 0) for a, b in pairs)))
            rows.append((element, f"{name}[{r+1},{s+1}]", 2 * nr * ns))
    basis = VerticalBasis(*map(tuple, zip(*rows)))
    _validate_vertical(spec, basis)
    return basis


def _planes(spec: FrameSpec) -> list[tuple[dict, dict, Fraction]]:
    """``(u, J u, |u|^2)`` for each J-plane of an orthogonal rational basis, as
    sparse ``{index: Fraction}`` vectors: E_i less its projections onto the u
    and J u of each earlier plane, kept where it is nonzero."""
    den, cols = spec.j_columns()
    planes = []
    for i in range(spec.n):
        u = defaultdict(int, {i: Fraction(1)})
        # the u and J u of the earlier planes where E_i has a component
        for v, norm in [(v, norm) for *pair, norm in planes for v in pair if i in v]:
            for p, x in v.items():
                u[p] -= v[i] * x / norm
        if u := {p: x for p, x in u.items() if x}:
            ju: dict = {}  # J u = sum_q u_q J E_q, over the columns' denominator
            for q, x in u.items():
                _accumulate(ju, x, cols[q])
            ju = {p: y / den for p, y in ju.items() if y}
            planes.append((u, ju, sum(x * x for x in u.values())))
    return planes


def _validate_vertical(spec: FrameSpec, basis: VerticalBasis) -> None:
    count = len(basis.elements)
    m = spec.n // 2
    if count != m * m - m:
        raise AssertionError(f"vertical basis has {count} elements, expected {m*m-m}")
    if not all(_is_vertical(spec, v) for v in basis.elements):
        raise AssertionError("vertical basis element not skew/anti-commuting")
    # one pairing closure per element: G(a, b) is against[b](a)
    against = [_g_against(spec, v) for v in basis.elements]
    for a, v in enumerate(basis.elements):
        for b in range(count):
            expected = basis.norm_sq[a] if a == b else 0
            if against[b](v) != spec.const(expected):
                raise AssertionError("vertical basis is not G-orthogonal with norms norm_sq")


def fiber_pairing_check(spec: FrameSpec, a: tuple[Vector, ...],
                        b: tuple[Vector, ...]) -> CheckReport:
    """Residual of the fiber-curvature pairing identity

    G(R(X,Y)a, b) = g(R([a,b]^) X, Y)
                    - 1/2 [ dphi([a,b]^) g(X,Y) + dphi([a,b]X, Y) + dphi(X, [a,b]Y) ]

    for all frame pairs (X, Y), where R is the Weyl curvature acting on
    endomorphisms by commutator, and the antisymmetry G(R(X,Y)a, b) +
    G(R(X,Y)b, a) = 0, both from one call of ``_pairing_residuals``.
    """
    pairing, antisymmetry = _pairing_residuals(spec, a, b)
    endo_curvature_consistency(weyl(spec), a)
    report = CheckReport(title="fiber curvature pairing")
    axes = (spec.basis,) * 2
    report.require_zero("curvature pairing identity on endomorphisms", pairing, axes)
    report.require_zero("antisymmetry of the fiber curvature pairing", antisymmetry, axes)
    return report


def _pairing_residuals(spec: FrameSpec, a: tuple[Vector, ...], b: tuple[Vector, ...]):
    """Two n x n arrays at (E_i, E_j) for a skew pair (a, b), from one
    commutator [a, b] and one pairing G(R(E_i, E_j)a, b): the pairing identity's
    residual, and G(R(E_i, E_j)a, b) + G(R(E_i, E_j)b, a), whose second term is
    read by ad-invariance as G(r[i][j], [a, b]) (see the module docstring)."""
    if not _is_skew(a) or not _is_skew(b):
        raise FrameError("pairing identity requires skew endomorphisms")
    R = curvature(weyl(spec))
    action = endo_curvature_action(R, a)
    comm = _commutator(spec, a, b)
    against_b, against_comm = _g_against(spec, b), _g_against(spec, comm)
    paired = _antisymmetric(spec.n, spec.zero(), lambda i, j: against_b(action[i][j]))
    # the second is antisymmetric in (X, Y), as both its sides are
    return (_pairing_identity(R, paired, comm),
            _antisymmetric(spec.n, spec.zero(),
                           lambda i, j: paired[i][j] + against_comm(R.r[i][j])))


def _pairing_identity(R: Curvature, paired, c):
    """The residual of the fiber-pairing identity at [i][j], for the pairing
    array ``paired`` of G(R(E_i, E_j)a, b) and the skew c = [a, b]:

        paired[i][j] + g(R(c) E_i, E_j) - 1/2 dphi(c) delta_ij
            + 1/2 dphi(c E_i, E_j) - 1/2 dphi(c E_j, E_i),

    with c read as a bivector array, which is -[a, b]^; each entry is one
    kernel call (see the module docstring)."""
    spec, n = R.spec, R.spec.n
    dphi = spec.dphi()
    planes = [(p, q) for p, q in combinations(range(n), 2) if c[p][q]]
    weights = [c[p][q] for p, q in planes]
    dphi_c = spec.dot(weights, [dphi[p][q] for p, q in planes])
    first = [spec.left(col, dphi) for col in zip(*c)]
    half = Fraction(1, 2)

    def entry(i, j):
        diagonal, dw = ((dphi_c,), (-half,)) if i == j else ((), ())
        return spec.dot((paired[i][j], first[i][j], first[j][i],
                         *(R.r[p][q][i][j] for p, q in planes), *diagonal),
                        (1, half, -half, *weights, *dw))

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def curvature_pairing_with_dj_check(spec: FrameSpec) -> CheckReport:
    """Residual of the expansion of G(R(X,Z)J, D_Y J) through Levi-Civita data.

    The Weyl-connection derivative of J pairs with the fiber curvature as

      G(R(X,Z)J, D_Y J)
        = 2 g(R((J nabla_Y J)^) X, Z) - g(R(phi# ^ Y - J phi# ^ JY) X, Z)
          - dphi((J nabla_Y J)^) g(X,Z) - dphi((J nabla_Y J) X, Z)
          - dphi(X, (J nabla_Y J) Z)
          + 1/2 dphi(phi# ^ Y - J phi# ^ JY) g(X,Z)
          + 1/2 [phi(JX) dphi(JY,Z) + phi(X) dphi(Y,Z)
                 - g(Y,JX) dphi(J phi#, Z) - g(Y,X) dphi(phi#, Z)]
          + 1/2 [phi(JZ) dphi(X,JY) + phi(Z) dphi(X,Y)
                 - g(Y,JZ) dphi(X, J phi#) - g(Y,Z) dphi(X, phi#)]

    checked for every frame triple (X, Y, Z), indexed [Y][X][Z]; nabla is
    Levi-Civita, R and the fiber pairing belong to the Weyl connection.
    The right-hand side is that of the fiber-pairing identity at
    (a, b) = (J, D_Y J), whose bracket is read from Levi-Civita data,

      [J, D_Y J]^ = w = 2 (J nabla_Y J)^ - phi# ^ Y + J phi# ^ JY,

    so each residual plane is ``_pairing_identity`` on the pairing array at Y
    and the endomorphism [J, D_Y J], which is the array -w as J nabla_Y J is
    skew.  Each entry of that array is at most one kernel call, over the terms
    whose value and weight are both nonzero, and none where no term is left,
    as most entries of a sparse J nabla_Y J and phi are.  The left-hand side is the array ``h_trace`` traces, kept on the
    spec; it is antisymmetric in (X, Z), as the action on J is, so it is
    paired for X < Z only and mirrored.  Every residual entry is still formed.
    """
    report = CheckReport(title="fiber pairing of the curvature with DJ")
    phi, J = spec.phi, spec.J
    jphi = [spec.dot(row, phi) for row in J]
    R = curvature(weyl(spec))
    paired = _curvature_dj_pairing(spec)  # G(R(X, Z)J, D_Y J) at [y][x][z]
    den, jd = _j_nabla_j_ints(spec)  # J nabla_Y J, ints over den
    if not all(map(_is_skew, jd)):
        raise FrameError("wedge isomorphism requires a skew endomorphism")
    zero, residual = spec.zero(), []

    def entry(jn, y, i, j):
        # only the terms with a nonzero value and weight; no call if none is left
        terms = [(value, weight) for value, weight in zip(
            (jn[i][j], phi[i], phi[j], jphi[i], jphi[j]),
            (Fraction(2, den), _kron(j, y), -_kron(i, y), -J[j][y], J[i][y])) if value and weight]
        return spec.dot(*zip(*terms)) if terms else zero

    for y, jn in enumerate(jd):
        # [J, D_Y J] = -w as an array, antisymmetric as jn is skew (checked above)
        c = _antisymmetric(spec.n, zero, lambda i, j: entry(jn, y, i, j))
        residual.append(_pairing_identity(R, paired[y], c))
    report.require_zero("pairing of the fiber curvature with DJ through Levi-Civita data",
                        residual, (spec.basis,) * 3)
    return report


def vertical_checks(spec: FrameSpec) -> CheckReport:
    """The fiber-pairing identity for a = J and the vertical antisymmetry, each
    against every V of :func:`vertical_basis`, both from one call of
    ``_pairing_residuals`` per V, after one cross-check of the action on J;
    index 0 of a failing entry names V, as A[r,s] or B[r,s]."""
    report = CheckReport(title="vertical directions")
    vertical = vertical_basis(spec)
    endo_curvature_consistency(weyl(spec), spec.J)
    pairing, antisymmetry = zip(*(_pairing_residuals(spec, spec.J, v)
                                  for v in vertical.elements))
    axes = (vertical.labels, spec.basis, spec.basis)
    report.require_zero("fiber curvature pairing against every vertical direction",
                        pairing, axes)
    report.require_zero("vertical antisymmetry of the fiber curvature", antisymmetry, axes)
    return report


@_kept
def _curvature_dj_pairing(spec: FrameSpec):
    """G(R(E_x, E_z)J, D_{E_y} J) at [y][x][z], with R the Weyl curvature acting
    on J by commutator and D the Weyl connection, kept on the spec: the DJ
    pairing reads it whole and ``h_trace`` its trace.  It is antisymmetric in
    (x, z), as the action on J is, so it is paired for x < z only and
    mirrored."""
    conn = weyl(spec)
    act_j = endo_curvature_action(curvature(conn), spec.J)
    return tuple(_antisymmetric(spec.n, spec.zero(), lambda x, z: against(act_j[x][z]))
                 for against in (_g_against(spec, d) for d in cov_deriv_endo(conn, spec.J)))


def h_trace(spec: FrameSpec):
    """Horizontal trace of the second fundamental form, as an n-vector.

    Component k is the domain trace of the fiber pairing that
    :func:`curvature_pairing_with_dj_check` expands entry by entry,

        Tr{X -> G(R(X, E_k) J, D_X J)},

    with R the Weyl curvature acting on J by commutator and D the Weyl
    connection; it is independent of the fiber scale t.  It reads
    sum_x paired[x][x][k] from the array paired[y][x][z] =
    G(R(E_x, E_z)J, D_{E_y} J) that the DJ pairing reads whole, kept on the
    spec.  Requires the gate (integrability and the Lee identity).
    """
    require_gate(spec)
    paired = _curvature_dj_pairing(spec)
    return tuple(spec.ring.sum(paired[x][x][k] for x in range(spec.n)) for k in range(spec.n))


def v_trace(spec: FrameSpec) -> tuple[Vector, ...]:
    """Vertical-trace residual at (E_k, E_l), from the traced second covariant
    derivative of J for the Weyl connection: the anti-invariant part
    g((Tr D2 J)(Z), U) - g((Tr D2 J)(JZ), JU), with Tr D2 J from
    :func:`wtw.connection.traced_second_cov_deriv_endo`.  Requires the gate."""
    require_gate(spec)
    # the bilinear form (Z, U) -> g((Tr D2 J)(Z), U) is the transpose of Tr D2 J
    form = tuple(zip(*traced_second_cov_deriv_endo(weyl(spec), spec.J)))
    return tuple(tuple(a - b for a, b in zip(*rows)) for rows in zip(form, spec.twist(form)))


def equivalence_check(spec: FrameSpec) -> CheckReport:
    """Tie the trace machinery to the condition systems, exactly.

    * h_trace components equal the condition-(ii) expressions (unit +1);
    * v_trace equals -P, the negated condition-(i) pairing of
      :func:`wtw.pseudoharmonic.condition_i_pairing` (the two paths agree);
    * the condition-(i) residuals are the entries P[k][l], k < l, so v_trace
      at (E_k, E_l) equals them negated (unit -1).

    The first two checks compare two computations: the traced fiber pairing
    with the one builder of condition (ii), which share only the Weyl
    curvature, and the traced D2 J with P.  The last holds by construction,
    as condition (i) reads P.
    """
    report = CheckReport(title="trace-condition equivalence")
    basis = spec.basis
    h = h_trace(spec)
    report.require_zero("horizontal trace equals condition (ii) componentwise",
                        [a - b for a, b in zip(h, condition_ii(spec))], (basis,))
    report.notes["h_unit"] = "+1"
    pairing = condition_i_pairing(spec)
    report.require_zero("vertical trace paths agree",
                        [[a + b for a, b in zip(*rows)] for rows in zip(v_trace(spec), pairing)],
                        (basis,) * 2)
    pairs = list(combinations(range(spec.n), 2))
    report.require_zero("vertical trace equals negated condition (i) residuals",
                        [c - pairing[k][l] for (k, l), c in zip(pairs, condition_i(spec))],
                        ([f"{basis[k]},{basis[l]}" for k, l in pairs],))
    report.notes["v_unit"] = "-1"
    return report
