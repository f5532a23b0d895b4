"""Pseudo-harmonicity conditions for the complex structure as a twistor section.

For a Weyl form phi and the Lee form theta of the frame's Hermitian
structure, the section is pseudo-harmonic exactly when

  (i)  the 2-form  d(theta - phi) + n(n-4)/(2(n-2)) theta ^ phi
       is of type (1,1) with respect to J, and
  (ii) L(theta - phi) = 0, where for a 1-form psi and every Z
       L(psi)(Z) = (n/2 - 1) dphi(psi#, Z) - dphi(J psi#, JZ)
                   - psi(JZ) dphi(J^) - rho(psi#, Z) + rho*(J psi#, JZ).

Each formula has one builder here.  The condition-(i) 2-form is built by
``_condition_i_form``, the one place the coefficient c(n) = n(n-4)/(2(n-2))
is written: as theta is symbol-free, each entry i < j is one kernel call over
the nonzero bracket row (i, j) and the two wedge terms, so d(theta - phi)
and theta ^ phi are never formed as arrays of their own.  Its J-pairing P is
kept on the spec (:func:`condition_i_pairing`), and the equivalence check
compares -P with ``v_trace``.  Condition (ii), L(theta - phi), has one
builder, whose value is also kept on the spec (:func:`condition_ii`).  Put
into L, the closed Ricci formulas leave each entry a polynomial of degree at
most 2 in the components of phi, as the cubic terms cancel, so the builder
forms its constant, linear and quadratic coefficients in ints from the
phi-free data kept on the spec (theta, J, the Levi-Civita gammas, the
brackets and the int traces rho_g and rho*_g), forms each product
phi_r phi_m once, and makes each entry one kernel call with int weights,
divided once.  It forms neither rho and rho* nor Phi, which only the checks
of :mod:`wtw.curvature` read.  ``h_trace`` reads none of it, as it traces
the fiber pairing of the curvature with DJ.  This module imports
nothing from :mod:`wtw.twistor`, which owns the trace-condition equivalence
check.

Both conditions are produced as normalized polynomial systems
(:func:`wtw.polyalg.normalized_system`: content and sign stripped, zero
entries dropped with a count).  ``conditions(spec, dim4_mode=True)``
evaluates the rearranged four-dimensional form of condition (ii), which
keeps only the last three terms of L; when dphi is of type (1,1) (true for
both built-in geometries after condition (i) is imposed) it generates the
same normalized system.

The engine never solves systems over the reals; ``verify_assignment``
substitutes a (possibly partial) assignment and reports whether every
polynomial vanishes identically in the remaining symbols.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Mapping, NamedTuple

from .connection import gamma_rows
from .curvature import _ricci_ints
from .frame import FrameSpec, GateError, _accumulate, _antisymmetric, _j_ints, _kept
from .hermitian import _lee_ints, require_gate
from .polyalg import RationalLike, Scalar, _fraction, normalized_system


class ConditionReport(NamedTuple):
    """Normalized polynomial systems for conditions (i) and (ii).

    Every listed polynomial is normalize_up_to_unit-canonical and nonzero;
    identically-zero residuals are dropped and counted.
    """

    condition_i: tuple[Scalar, ...]
    condition_ii: tuple[Scalar, ...]
    dropped_i: int
    dropped_ii: int
    dim4_mode: bool

    @property
    def holds_identically(self) -> bool:
        return not self.condition_i and not self.condition_ii


@_kept
def condition_i_pairing(spec: FrameSpec):
    """P = j_pair(d(theta - phi) + n(n-4)/(2(n-2)) theta ^ phi), the condition-(i)
    2-form paired with J as an n x n array; kept on the spec (gate enforced)."""
    return spec.j_pair(_condition_i_form(spec))


def _condition_i_form(spec: FrameSpec):
    """The condition-(i) 2-form d(theta - phi) + c(n) theta ^ phi, with
    c(n) = n(n-4)/(2(n-2)), as an n x n array.  As theta is symbol-free, the
    entry at i < j is one kernel call over the nonzero bracket row (i, j),

        sum_k c[i][j][k] phi_k + c[j][i][k] theta_k + c(n) (theta_i phi_j - theta_j phi_i),

    the first two terms being -(theta - phi)([E_i, E_j]) as c[j][i] = -c[i][j],
    with the wedge terms only where theta_i or theta_j is nonzero; an entry
    with neither is zero without a call."""
    theta = require_gate(spec)
    n, phi, c = spec.n, spec.phi, spec.c
    coeff = Fraction(n * (n - 4), 2 * (n - 2))
    c_theta = [coeff * t.constant_value() for t in theta]
    _, rows = spec.bracket_rows()
    dot, zero = spec.ring.dot, spec.zero()

    def entry(i, j):
        at = [k for k, _ in rows[i][j]]
        values = [phi[k] for k in at] + [theta[k] for k in at]
        weights = [c[i][j][k] for k in at] + [c[j][i][k] for k in at]
        if c_theta[i] or c_theta[j]:
            values += [phi[j], phi[i]]
            weights += [c_theta[i], -c_theta[j]]
        return dot(values, weights) if values else zero

    return _antisymmetric(n, zero, entry)


def condition_i(spec: FrameSpec) -> list[Scalar]:
    """(1,1)-type residuals of the condition-(i) 2-form: P at (k, l) for k < l."""
    paired = condition_i_pairing(spec)
    return [paired[k][l] for k, l in combinations(range(spec.n), 2)]


def _quadratic(acc: dict, weight: int, a: dict, b: dict, size: int) -> None:
    """acc += weight a b for two linear forms in x = (1, phi_1, ..., phi_n), each
    a dict from the index of x to an int numerator; x_r x_m, r <= m, is kept
    under the key r * size + m."""
    for r, u in a.items():
        u *= weight
        for m, v in b.items():
            key = r * size + m if r <= m else m * size + r
            acc[key] = acc.get(key, 0) + u * v


@_kept
def _condition_ii_values(spec: FrameSpec, dim4_mode: bool) -> tuple[Scalar, ...]:
    """L(psi) at Z = E_k for each k, for psi = theta - phi:

        (n/2 - 1) dphi(psi#, Z) - dphi(J psi#, JZ) - psi(JZ) dphi(J^)
        - rho(psi#, Z) + rho*(J psi#, JZ)

    with rho and rho* the Ricci and *-Ricci tensors of the Weyl connection.
    In ``dim4_mode`` only the last three terms are kept: up to sign they are
    the rearranged four-dimensional form, and normalization strips the sign.

    L is built as a polynomial of degree at most 2 in the components of phi.
    With y = J psi, (J v)_k = sum_q J[k][q] v_q, N[i][k] = (nabla_{E_i} phi)(E_k)
    = -sum_m gamma[i][k][m] phi_m for the Levi-Civita gammas and dphi[i][k] =
    -sum_m c[i][k][m] phi_m, it is

        L_k = - sum_i psi_i rho_g[i][k] - sum_q J[k][q] sum_i y_i rho*_g[i][q]
              - (n-2)/2 sum_i psi_i N[i][k] + 1/2 sum_i N[k][i] psi_i
              - sum_q J[k][q] sum_i y_i N[i][q] + 1/2 sum_q J[k][q] sum_i N[q][i] y_i
              + (n/2 - 1) sum_i psi_i dphi[i][k] + sum_q J[k][q] sum_i y_i dphi[i][q]
              - (n-3)/4 (theta.phi) phi_k + (n-3)/4 |phi|^2 theta_k
              - 1/4 ((J theta).phi) (J phi)_k
              - 1/2 tr(N) psi_k + (1/2 <J, N> + dphi(J^)) y_k

    where the third line is the two dphi terms, dropped in ``dim4_mode``,
    <J, N> = sum_{p,q} J[p][q] N[p][q] and dphi(J^) = sum_{i<j} J[j][i]
    dphi[i][j].  It is the closed formulas of
    :func:`wtw.curvature.ricci_via_formula` put into the five terms, with
    Phi = N + 1/2 phi (x) phi - 1/4 |phi|^2 g:

    * the twisted term of rho*, 1/2 Phi(JX, JZ), read at (J psi#, JZ), is
      1/2 Phi(psi#, Z), as J is orthogonal and J^2 = -1;
    * <Phi, J> = <N, J>, as J is skew;
    * the |phi|^2 phi_k parts of -(n-3)/4 (psi.phi) phi_k and of
      (n-3)/4 |phi|^2 psi_k cancel, so no cubic term is left;
    * (J psi).phi = (J theta).phi, as (J phi).phi = 0.

    Every coefficient is formed in ints from kept phi-free data: theta of
    ``_lee_ints``, J of ``_j_ints``, the gamma rows, the bracket rows and the
    int traces rho_g and rho*_g of ``_ricci_ints``; no Phi, J-twist or lifted
    Levi-Civita value is formed.  The linear forms psi, N and dphi are ints
    over one unit, y is over the unit times den_J, and the sum is taken four
    times over, so every weight is an int: the part without a J[k][q] is
    scaled by den_J^2, and L_k is the sum of int weights times 1, phi_m and
    phi_r phi_m over 4 unit^2 den_J^2.  Each product phi_r phi_m is formed
    once for all k, and each entry is one kernel call, divided once.
    """
    require_gate(spec)
    n, size, phi = spec.n, spec.n + 1, spec.phi
    tden, theta = _lee_ints(spec)
    jden, J = _j_ints(spec)
    gden, g = gamma_rows(spec)
    cden, c = spec.bracket_rows()
    rden, rho, rho_star = _ricci_ints(spec)
    unit = math.lcm(tden, rden)  # gden and cden divide rden
    t = [v * (unit // tden) for v in theta]
    full = not dim4_mode
    # linear forms over unit, x_0 = 1 and x_{m+1} = phi_m: psi, N, dphi
    psi = [{0: t[i], 1 + i: -unit} if t[i] else {1 + i: -unit} for i in range(n)]
    nphi = [[{1 + m: -v * (unit // gden) for m, v in row} for row in plane] for plane in g]
    dphi = [[{1 + m: -v * (unit // cden) for m, v in row} for row in plane] for plane in c]
    y = [{} for _ in range(n)]  # J psi, over unit * jden
    for k, row in enumerate(J):
        for q, w in enumerate(row):
            if w:
                _accumulate(y[k], w, psi[q].items())

    def pairing(v, ricci, w_nabla, w_dphi):
        # 4 sum_i v_i (-ricci[i][k] + w_nabla/4 N[i][k] + w_dphi/4 dphi[i][k])
        # + 2 sum_i N[k][i] v_i for each k
        out, r_weight = [], -4 * (unit // rden)
        for k in range(n):
            acc: dict[int, int] = {}
            for i in range(n):
                form = {0: r_weight * ricci[i][k]} if ricci[i][k] else {}
                _accumulate(form, w_nabla, nphi[i][k].items())
                if w_dphi:
                    _accumulate(form, w_dphi, dphi[i][k].items())
                _quadratic(acc, 1, v[i], form, size)
                _quadratic(acc, 2, nphi[k][i], v[i], size)
            out.append(acc)
        return out

    # the part without J[k][q], over 4 unit^2
    plain = pairing(psi, rho, -2 * (n - 2), 2 * (n - 2) * full)
    theta_phi = {1 + m: v for m, v in enumerate(t) if v}
    trace: dict[int, int] = {}
    for i in range(n):
        _accumulate(trace, 1, nphi[i][i].items())
    for k, acc in enumerate(plain):
        if t[k]:  # (n-3) |phi|^2 theta_k, at the keys of the squares x_a x_a
            _accumulate(acc, (n - 3) * t[k] * unit, ((a * (size + 1), 1) for a in range(1, size)))
        _quadratic(acc, 3 - n, theta_phi, {1 + k: unit}, size)
        _quadratic(acc, -2, trace, psi[k], size)
    # the part read at J[k][q], over 4 unit^2 jden
    twisted = pairing(y, rho_star, -4, 4 * full)
    j_theta_phi = {1 + m: s for m, row in enumerate(J) if (s := sum(map(mul, row, t)))}
    on_j: dict[int, int] = {}  # 2 <J, N> + 4 dphi(J^), over unit * jden
    for p, row in enumerate(J):
        for q, w in enumerate(row):
            if w:
                _accumulate(on_j, 2 * w, nphi[p][q].items())
                if q < p:
                    _accumulate(on_j, 4 * w, dphi[q][p].items())
    for q, acc in enumerate(twisted):
        _quadratic(acc, -1, j_theta_phi, {1 + q: unit}, size)
        _quadratic(acc, 1, on_j, psi[q], size)

    x = (1, *phi)
    products: dict[int, Scalar] = {}  # x_r x_m for 0 < r <= m, each formed once

    def monomial(key):
        r, m = divmod(key, size)
        if r and key not in products:
            products[key] = x[r] * x[m]
        return products[key] if r else x[m]

    scale, den, zero = jden * jden, 4 * unit * unit * jden * jden, spec.zero()
    out = []
    for k, row in enumerate(J):
        total = {key: scale * v for key, v in plain[k].items()}
        for q, w in enumerate(row):
            if w:
                _accumulate(total, w, twisted[q].items())
        weights = [(key, v) for key, v in total.items()
                   if v and x[key // size] and x[key % size]]
        out.append(spec.ring.dot([monomial(key) for key, _ in weights],
                                 [v for _, v in weights])._divided(den) if weights else zero)
    return tuple(out)


def condition_ii(spec: FrameSpec) -> tuple[Scalar, ...]:
    """The condition-(ii) expression L(theta - phi) at Z = E_k for each k (raw,
    unnormalized; gate enforced), kept on the spec."""
    return _condition_ii_values(spec, False)


def conditions(spec: FrameSpec, dim4_mode: bool = False) -> ConditionReport:
    """Assemble both conditions as normalized systems (gate enforced)."""
    require_gate(spec)
    if dim4_mode and spec.n != 4:
        raise GateError("dimension-four mode",
                        f"requires n = 4, got n = {spec.n}")
    sys_i, dropped_i = normalized_system(condition_i(spec))
    sys_ii, dropped_ii = normalized_system(_condition_ii_values(spec, dim4_mode))
    return ConditionReport(condition_i=sys_i, condition_ii=sys_ii,
                           dropped_i=dropped_i, dropped_ii=dropped_ii,
                           dim4_mode=dim4_mode)


class AssignmentVerdict(NamedTuple):
    assignment: tuple[tuple[str, Fraction], ...]
    per_polynomial: tuple[tuple[str, bool], ...]
    holds: bool
    residual_symbols: tuple[str, ...]


def verify_assignment(report: ConditionReport,
                      assignment: Mapping[str, RationalLike]) -> AssignmentVerdict:
    """Substitute an assignment into both systems; holds means every polynomial
    vanishes identically in the remaining symbols (partial assignments allowed)."""
    items = tuple(sorted((name, _fraction(value)) for name, value in assignment.items()))
    point = dict(items)
    per = []
    leftover: set[str] = set()
    for label, system in (("i", report.condition_i), ("ii", report.condition_ii)):
        for idx, poly in enumerate(system, start=1):
            value = poly.substitute(point)
            ok = value.is_zero
            per.append((f"condition_{label}[{idx}]", ok))
            if not ok:
                for exps, _ in value.terms():
                    for name, power in zip(value.ring.symbols, exps):
                        if power:
                            leftover.add(name)
    return AssignmentVerdict(assignment=items, per_polynomial=tuple(per),
                             holds=all(ok for _, ok in per),
                             residual_symbols=tuple(sorted(leftover)))
