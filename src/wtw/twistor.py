"""Pointwise twistor-fiber algebra and the two second-fundamental-form traces.

Everything here is evaluated at the single fiber point I = J of the section
defined by the complex structure; no chart of the twistor manifold is ever
built.  The fiber metric on endomorphisms is

    G(a, b) = 1/2 Trace{X -> g(aX, bX)} = 1/2 Trace(a^T b),

which equals -1/2 Trace(a o b) on skew endomorphisms.  The wedge isomorphism
(:func:`wtw.frame.wedge_iso`, re-exported here) sends a skew endomorphism
``a`` to the bivector with components ``g(a E_i, E_j)``, normalized so that
``2 g(a^, X ^ Y) = g(aX, Y)`` under the halved metric on bivectors.
Endomorphisms, bivectors and 2-forms are n x n nested tuples, as in
:mod:`wtw.frame`: products go through ``FrameSpec.compose``, each sum or
difference of endomorphisms is one ``linear_combination``, and each entry of a
commutator is one kernel call over the terms of both products.
``_is_vertical`` tests that V is skew and J^T V J = -V (``FrameSpec.twist``),
which for an orthogonal J says that V anticommutes with J.

The curvature of the induced connection on endomorphism sections acts as the
commutator ``R(X, Y) a = R(X, Y) o a - a o R(X, Y)``; this is cross-checked
against the second covariant derivatives kept on the connection
(:func:`wtw.connection.second_cov_deriv_endo`, the table ``v_trace`` also
reads) and any mismatch raises.
The action on an endomorphism is kept on its curvature tensor, and the
cross-check runs once per connection and endomorphism (see
:class:`wtw.frame.Memo`).  Both are antisymmetric in (X, Y), so they are
formed for the frame pairs i < j only.  The action, the vertical
antisymmetry residual, the dphi terms of ``_endo_terms`` and the pairings
of the action with a fixed endomorphism (D_Y J in the DJ pairing, b in the
pairing identity) are built by ``wtw.frame._antisymmetric``, the one
builder of arrays antisymmetric in a pair of indices: as the action at
(Y, X) is stored as the negation of the one at (X, Y), so is its pairing.

The checks form only what they need.  The fiber metric is ad-invariant,
``G([R, a], b) = G(R, [a, b])`` for skew ``a`` and any ``R``, so the one
builder of a skew pair's residuals, ``_pairing_residuals``, reads
``G(R(X, Y)b, a)`` as ``-G(R(X, Y), [a, b])`` from the commutator the pairing
identity reads too, not from n^2 commutators, and pairs the stored action on
``a`` with ``b`` once for both residuals; the antisymmetry's two sides stay
different computations.  A pairing ``G(., b)`` with a fixed ``b`` sums over
the nonzero entries of ``b`` only: ``_g_against`` finds them and halves them
once per ``b``, so that each pairing is one kernel call, and is the one
support walk of this module, as ``b`` is reused across calls; every other
contraction here walks its support in a ``FrameSpec`` contraction (see
:mod:`wtw.frame`).  R applied to a bivector b is read in the layout the
curvature tensor stores, ``g(R(b) E_k, E_l)`` at ``[k][l]``: one
``linear_combination`` of the blocks ``R.r[p][q]``.  The two fiber pairings,
the identity for G(R(X, Y)a, b) and the DJ pairing, read one builder per term
of their right-hand sides: ``_bivector_terms(R, w)`` is
``g(R(w) X, Y) - 1/2 dphi(w) g(X, Y)``, with R and dphi applied to the
bivector w once each, and ``_endo_terms(spec, c)`` is
``dphi(cX, Y) + dphi(X, cY)``.  As dphi is antisymmetric, ``dphi(X, cY)`` is
read from ``dphi(cY, X)``: each contraction of dphi with an endomorphism c is
formed once.  Each residual entry is then one ``FrameSpec.dot`` over the terms.

Vertical bases: for m = n/2 the ``m^2 - m`` endomorphisms pairing the J-planes
of a rational orthogonal basis are stored *unnormalized*; expansions divide
by the norm squared instead of normalizing, keeping all arithmetic rational.
The planes come from any orthogonal J: u_r is E_i less its projections onto
the u and J u of each earlier plane, divided by |u|^2, kept where it is
nonzero.  For each pair of planes r < s, with w(a, b) = a b^T - b a^T,

    A[r,s] = w(u_s, u_r) - w(J u_s, J u_r),
    B[r,s] = w(J u_s, u_r) + w(u_s, J u_r),

and the Gram matrix of the family is diagonal, with the entry
2 |u_r|^2 |u_s|^2 in ``norm_sq``.  The vectors are sparse, so on a J that is
a signed permutation each u_r is a frame vector, each element sets four
entries and each norm is 2.  The basis is kept on the spec.

Only the DJ pairing reads the wedge images of J o nabla_X J.  Per direction Y
it adds the image and two wedges of phi into one bivector,
``w = 2 (J nabla_Y J)^ - phi# ^ Y + J phi# ^ JY``, and applies R and dphi to
that w alone, through ``_bivector_terms``.

:func:`vertical_checks` calls that builder once per vertical direction V, for
(J, V), after one cross-check of the action on J.  By ad-invariance it covers
the antisymmetry G(R(X, Y)J, V) + G(R(X, Y)V, J) = 0 for every vertical V, as
the basis spans the vertical space.  The vertical Gram and the verticality of
each element are checked once, as the basis is built.

``h_trace`` is the domain trace of the fiber pairing G(R(X, Z)J, D_X J), read
from the action on J and from D J; it forms no condition term, so comparing it
with condition (ii) compares two computations.  ``v_trace``'s closed form is -P
from :mod:`wtw.pseudoharmonic`.  :func:`equivalence_check` ties both traces to
the conditions, the paper's equivalence.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, product
from typing import NamedTuple

from .connection import Connection, cov_deriv_endo, second_cov_deriv_endo, weyl
from .curvature import Curvature, curvature
from .frame import (FrameError, FrameSpec, Vector, _antisymmetric, _is_skew, _kron,
                    _negative, eval_on_bivector, linear_combination, wedge_iso, wedge_oneforms)
from .hermitian import _j_nabla_j, require_gate
from .polyalg import Scalar
from .pseudoharmonic import condition_i, condition_i_pairing, condition_ii
from .reports import CheckReport


def g_fiber(spec: FrameSpec, a: tuple[Vector, ...], b: tuple[Vector, ...]) -> Scalar:
    """G(a, b) = 1/2 sum_i g(a E_i, b E_i)."""
    return _g_against(spec, b)(a)


def _g_against(spec: FrameSpec, b: tuple[Vector, ...]):
    """The map a -> G(a, b) for one b, summing over the nonzero entries of b only
    (the vertical directions and J are mostly zeros).  Each is halved once per
    b, a scalar by ``Scalar._halved`` and a rational as a Fraction, so that a
    pairing is one kernel call."""
    values = [x._halved() if type(x) is Scalar else Fraction(x, 2)
              for row in b for x in row if x]
    support = [(k, l) for k, row in enumerate(b) for l, x in enumerate(row) if x]
    dot = spec.ring.dot
    return lambda a: dot([a[k][l] for k, l in support], values)


def _commutator(spec: FrameSpec, a: tuple[Vector, ...],
                b: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """[a, b] = a o b - b o a: entry (i, j) is one kernel call, the row
    a[i] + (-b[i]) against column j of b followed by column j of a, read only
    where that row is nonzero (``FrameSpec.right``)."""
    cols = [(*col_b, *col_a) for col_b, col_a in zip(zip(*b), zip(*a))]
    return tuple(spec.right(cols, (*row_a, *[-x for x in row_b])) for row_a, row_b in zip(a, b))


def _is_vertical(spec: FrameSpec, V: tuple[Vector, ...]) -> bool:
    """Whether V is vertical at J: skew, and J^T V J = -V, which for an
    orthogonal J says V o J + J o V = 0."""
    return _is_skew(V) and spec.twist(V) == _negative(V)


def curvature_on_bivector(R: Curvature, b):
    """R(b) = sum_{p<q} b[p][q] R(E_p, E_q) for an n x n bivector array b, as
    the n x n array with g(R(b) E_k, E_l) at [k][l], the layout of the blocks
    ``R.r[p][q]``; reads only p < q, and only the planes where b is nonzero
    reach the kernel."""
    planes = list(combinations(range(R.spec.n), 2))
    return linear_combination(R.spec, [b[p][q] for p, q in planes],
                              [R.r[p][q] for p, q in planes])


def endo_curvature_action(R: Curvature, S: tuple[Vector, ...]) -> tuple:
    """R(E_i, E_j) acting on an endomorphism section: the commutator action."""
    return R.memo(_endo_curvature_action, S)


def _endo_curvature_action(R: Curvature, S: tuple[Vector, ...]) -> tuple:
    # R(X, Y) = -R(Y, X)
    spec = R.spec
    zero = ((spec.zero(),) * spec.n,) * spec.n
    return _antisymmetric(spec.n, zero, lambda i, j: _commutator(spec, R.endo(i, j), S), _negative)


def endo_curvature_consistency(conn: Connection, S: tuple[Vector, ...]) -> None:
    """Assert the commutator action equals the gamma-based curvature on Hom.

    The gamma route: R(E_i,E_j)S = D2_{E_j E_i} S - D2_{E_i E_j} S, read from the
    table kept on the connection; torsion-free, this is
    sum_m c[i][j][m] D_m S - D_i D_j S + D_j D_i S, with every derivative the
    induced one on endomorphisms.  Raises on any mismatch (sign conventions
    are the dominant failure mode).  A passed check is kept on the
    connection and not repeated.
    """
    conn.memo(_check_endo_curvature, S)


def _check_endo_curvature(conn: Connection, S: tuple[Vector, ...]) -> None:
    spec = conn.spec
    comm = endo_curvature_action(curvature(conn), S)
    second = second_cov_deriv_endo(conn, S)
    # both sides are antisymmetric in (i, j), so i < j suffices
    for i, j in combinations(range(spec.n), 2):
        residual = linear_combination(spec, (1, -1, -1), (second[j][i], second[i][j], comm[i][j]))
        if any(chain.from_iterable(residual)):
            raise AssertionError(
                "induced curvature mismatch between commutator action and "
                f"double covariant derivative at ({i+1},{j+1})")


class VerticalBasis(NamedTuple):
    """Unnormalized vertical endomorphisms at the fiber point J.

    Every element is skew and anti-commutes with J, and the pairwise fiber
    metric is diagonal, with ``norm_sq[a]`` the G-norm squared of element a.
    """

    elements: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...]
    norm_sq: tuple[Fraction, ...]


def vertical_basis(spec: FrameSpec) -> VerticalBasis:
    """The plane-pairing family spanning the vertical space at J, kept on the spec."""
    return spec.memo(_vertical_basis)


def _vertical_basis(spec: FrameSpec) -> VerticalBasis:
    n, zero = spec.n, spec.zero()
    rows = []  # (element, label, norm squared); n >= 4, so there is one at least
    for (r, (ur, jr, nr)), (s, (us, js, ns)) in combinations(enumerate(_planes(spec)), 2):
        # w(a, b) = a b^T - b a^T, so that -w(J u_s, J u_r) = w(J u_r, J u_s)
        for name, pairs in (("A", ((us, ur), (jr, js))), ("B", ((js, ur), (us, jr)))):
            entries = defaultdict(int)  # the sum of w(a, b) over the pairs
            for a, b in pairs:
                for (x, ax), (y, by) in product(a.items(), b.items()):
                    entries[x, y] += ax * by
                    entries[y, x] -= ax * by
            element = [[zero] * n for _ in range(n)]
            for (x, y), v in entries.items():
                element[x][y] = spec.const(v)
            rows.append((tuple(map(tuple, element)), f"{name}[{r+1},{s+1}]", 2 * nr * ns))
    basis = VerticalBasis(*map(tuple, zip(*rows)))
    _validate_vertical(spec, basis)
    return basis


def _planes(spec: FrameSpec) -> list[tuple[dict, dict, Fraction]]:
    """``(u, J u, |u|^2)`` for each J-plane of an orthogonal rational basis, as
    sparse ``{index: Fraction}`` vectors: E_i less its projections onto the u
    and J u of each earlier plane, kept where it is nonzero."""
    planes = []
    for i in range(spec.n):
        u = defaultdict(int, {i: Fraction(1)})
        # the u and J u of the earlier planes where E_i has a component
        for v, norm in [(v, norm) for *pair, norm in planes for v in pair if i in v]:
            for p, x in v.items():
                u[p] -= v[i] * x / norm
        if u := {p: x for p, x in u.items() if x}:
            ju = {p: y for p, row in enumerate(spec.J) if (y := sum(row[q] * u[q] for q in u))}
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
    endomorphisms by commutator.
    """
    residual = _pairing_residuals(spec, a, b)[0]
    endo_curvature_consistency(weyl(spec), a)
    report = CheckReport(title="fiber curvature pairing")
    report.require_zero("curvature pairing identity on endomorphisms", residual,
                        (spec.basis,) * 2)
    return report


def _pairing_residuals(spec: FrameSpec, a: tuple[Vector, ...], b: tuple[Vector, ...]):
    """Two n x n arrays at (E_i, E_j) for a skew pair (a, b), from one
    commutator [a, b] and one pairing G(R(E_i, E_j)a, b): the pairing identity's
    residual, and G(R(E_i, E_j)a, b) + G(R(E_i, E_j)b, a), whose second term is
    read by ad-invariance as -G(R(E_i, E_j), [a, b])."""
    if not _is_skew(a) or not _is_skew(b):
        raise FrameError("pairing identity requires skew endomorphisms")
    R = curvature(weyl(spec))
    action = endo_curvature_action(R, a)
    comm = _commutator(spec, a, b)
    bivector = _bivector_terms(R, wedge_iso(comm))
    endo = _endo_terms(spec, comm)
    against_b, against_comm = _g_against(spec, b), _g_against(spec, comm)
    paired = _antisymmetric(spec.n, spec.zero(), lambda i, j: against_b(action[i][j]))
    weights = (1, -1, Fraction(1, 2))
    ix = range(spec.n)
    # the second is antisymmetric in (X, Y), as both its sides are
    return ([[spec.dot((paired[i][j], bivector[i][j], endo[i][j]), weights) for j in ix]
             for i in ix],
            _antisymmetric(spec.n, spec.zero(),
                           lambda i, j: paired[i][j] - against_comm(R.endo(i, j))))


def _bivector_terms(R: Curvature, w):
    """g(R(w) E_i, E_j) - 1/2 dphi(w) delta_ij at [i][j], for an n x n bivector
    array w: R and dphi are each applied to w once."""
    half_dphi = eval_on_bivector(R.spec, R.spec.dphi(), w) * Fraction(1, 2)
    return [[r - half_dphi if i == j else r for j, r in enumerate(row)]
            for i, row in enumerate(curvature_on_bivector(R, w))]


def _endo_terms(spec: FrameSpec, c: tuple[Vector, ...]):
    """dphi(c E_i, E_j) + dphi(E_i, c E_j) at [i][j].  As dphi is antisymmetric,
    the second term is the first at [j][i], negated: each is formed once, and
    the sum is antisymmetric in (i, j)."""
    first = [spec.left(col, spec.dphi()) for col in zip(*c)]
    return _antisymmetric(spec.n, spec.zero(), lambda i, j: first[i][j] - first[j][i])


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
    R and dphi are linear in the bivector, so the two R terms and the two
    g(X,Z) terms are read from the one bivector

      w = 2 (J nabla_Y J)^ - phi# ^ Y + J phi# ^ JY

    per Y, as 2 R(b) - R(b') = R(2b - b') and -dphi(b) + 1/2 dphi(b') =
    -1/2 dphi(2b - b'): ``_bivector_terms`` applies R and dphi to w once, and
    ``_endo_terms`` gives the two dphi terms with J nabla_Y J, the builders
    the fiber-pairing identity reads too.  As dphi is antisymmetric, the
    second bracket is minus the first at (Z, X), so it is formed once.  The
    left-hand side is antisymmetric in (X, Z), as the action on J is, so it
    is paired for X < Z only and mirrored; every residual entry is still
    formed.
    """
    report = CheckReport(title="fiber pairing of the curvature with DJ")
    ix = range(spec.n)
    J = spec.J
    phi = spec.phi
    jphi = spec.j_apply(phi)
    conn = weyl(spec)
    R = curvature(conn)
    dj = cov_deriv_endo(conn, J)
    dphi = spec.dphi()
    act_j = endo_curvature_action(R, J)
    phi_j = [-x for x in jphi]                     # phi(J.) = -(J phi), as J^T = -J
    dphi_jphi = spec.left(jphi, dphi)              # dphi(J phi#, .)
    dphi_phi = spec.left(phi, dphi)                # dphi(phi#, .)
    weights = (1, -1, 1, Fraction(-1, 2), Fraction(1, 2))

    residual = []
    for y, (jn, jy) in enumerate(zip(spec.memo(_j_nabla_j), zip(*J))):
        against_dj = _g_against(spec, dj[y])
        ey = tuple(spec.const(1 if l == y else 0) for l in ix)
        bivector = _bivector_terms(R, linear_combination(
            spec, (2, -1, 1),
            (wedge_iso(jn), wedge_oneforms(spec, phi, ey), wedge_oneforms(spec, jphi, jy))))
        endo = _endo_terms(spec, jn)
        dphi_jy = spec.left(jy, dphi)              # dphi(JY, .)
        # [x][z]: the first bracket; -J[y][x] = J[x][y], as J is skew
        bracket = [[spec.dot((phi_j[x], phi[x], dphi_jphi[z], dphi_phi[z]),
                             (dphi_jy[z], dphi[y][z], J[x][y], -_kron(x, y))) for z in ix]
                   for x in ix]
        # G(R(X, Z)J, D_Y J), paired for x < z: act_j[z][x] is -act_j[x][z]
        paired = _antisymmetric(spec.n, spec.zero(), lambda x, z: against_dj(act_j[x][z]))
        residual.append([[spec.dot((paired[x][z], bivector[x][z], endo[x][z],
                                    bracket[x][z], bracket[z][x]), weights) for z in ix]
                         for x in ix])
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


def h_trace(spec: FrameSpec):
    """Horizontal trace of the second fundamental form, as an n-vector.

    Component k is the domain trace of the fiber pairing that
    :func:`curvature_pairing_with_dj_check` expands entry by entry,

        Tr{X -> G(R(X, E_k) J, D_X J)},

    with R the Weyl curvature acting on J by commutator and D the Weyl
    connection; it is independent of the fiber scale t.  It reads the action
    on J kept on the curvature tensor and D J kept on the connection.  Requires
    the gate (integrability and the Lee identity).
    """
    require_gate(spec)
    conn = weyl(spec)
    act_j = endo_curvature_action(curvature(conn), spec.J)
    against_dj = [_g_against(spec, d) for d in cov_deriv_endo(conn, spec.J)]
    return tuple(spec.ring.sum(g(row[k]) for g, row in zip(against_dj, act_j))
                 for k in range(spec.n))


class VTraceData(NamedTuple):
    """Vertical-trace residual (Z, U) -> scalar, computed two independent ways.

    direct: from the traced second covariant derivative of J for the Weyl
      connection, anti-invariant part g((Tr D2 J)(Z), U) - g((Tr D2 J)(JZ), JU),
      read from the table :func:`wtw.connection.second_cov_deriv_endo` keeps.
    closed_form: from the 2-form d(phi - theta) + n(n-4)/(2(n-2)) phi ^ theta
      paired with JZ ^ U + Z ^ JU: the negated condition-(i) pairing P of
      :func:`wtw.pseudoharmonic.condition_i_pairing`, whose 2-form builder owns c(n).
    """

    direct: tuple
    closed_form: tuple


def v_trace(spec: FrameSpec) -> VTraceData:
    require_gate(spec)
    n = spec.n
    second = second_cov_deriv_endo(weyl(spec), spec.J)
    # the bilinear form (Z, U) -> g((Tr D2 J)(Z), U) minus its J-twist
    form = [[spec.ring.sum(second[i][i][k][l] for i in range(n)) for k in range(n)]
            for l in range(n)]
    direct = linear_combination(spec, (1, -1), (form, spec.twist(form)))
    closed = tuple(tuple(-value for value in row) for row in condition_i_pairing(spec))
    return VTraceData(direct=direct, closed_form=closed)


def equivalence_check(spec: FrameSpec) -> CheckReport:
    """Tie the trace machinery to the condition systems, exactly.

    * h_trace components equal the condition-(ii) expressions (unit +1);
    * v_trace residuals at (E_k, E_l) equal the negated condition-(i)
      residuals entrywise (unit -1), and both trace paths agree.

    The first check compares the traced fiber pairing with the one builder
    of condition (ii), two computations that share only the Weyl curvature;
    the last holds by construction, as the closed form reads the
    condition-(i) pairing.
    """
    report = CheckReport(title="trace-condition equivalence")
    basis = spec.basis
    h = h_trace(spec)
    report.require_zero("horizontal trace equals condition (ii) componentwise",
                        [a - b for a, b in zip(h, condition_ii(spec))], (basis,))
    report.notes["h_unit"] = "+1"
    v = v_trace(spec)
    report.require_zero("vertical trace paths agree",
                        linear_combination(spec, (1, -1), (v.direct, v.closed_form)),
                        (basis,) * 2)
    pairs = list(combinations(range(spec.n), 2))
    report.require_zero("vertical trace equals negated condition (i) residuals",
                        [v.closed_form[k][l] + c for (k, l), c in zip(pairs, condition_i(spec))],
                        ([f"{basis[k]},{basis[l]}" for k, l in pairs],))
    report.notes["v_unit"] = "-1"
    return report
