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
builder, whose value is also kept on the spec (:func:`condition_ii`): each
entry is one kernel call, and its terms x(JZ) for a 1-form x are read as
-(J x)(Z) through ``FrameSpec.j_apply``, which walks the support of J (see
:mod:`wtw.frame`).  ``h_trace`` reads none of it, as it traces the fiber
pairing of the curvature with DJ.  This module imports nothing
from :mod:`wtw.twistor`, which owns the trace-condition equivalence check.

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

from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple

from .curvature import ricci_via_formula
from .frame import FrameSpec, GateError, _antisymmetric, eval_on_bivector
from .hermitian import fundamental_form, require_gate
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


def condition_i_pairing(spec: FrameSpec):
    """P = j_pair(d(theta - phi) + n(n-4)/(2(n-2)) theta ^ phi), the condition-(i)
    2-form paired with J as an n x n array; kept on the spec (gate enforced)."""
    return spec.memo(_condition_i_pairing)


def _condition_i_pairing(spec: FrameSpec):
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


def _condition_ii_values(spec: FrameSpec, dim4_mode: bool) -> tuple[Scalar, ...]:
    """L(psi) at Z = E_k for each k, for psi = theta - phi:

        (n/2 - 1) dphi(psi#, Z) - dphi(J psi#, JZ) - psi(JZ) dphi(J^)
        - rho(psi#, Z) + rho*(J psi#, JZ)

    with rho and rho* of the Weyl connection read from
    :func:`wtw.curvature.ricci_via_formula`, so neither the Weyl connection nor
    its curvature tensor is formed.  In ``dim4_mode`` only the last
    three terms are kept: up to sign they are the rearranged four-dimensional
    form, and normalization strips the sign.  Each entry is one kernel call
    over its terms, and a term x(JZ) is read as -(J x)(Z), as J^T = -J.
    """
    theta = require_gate(spec)
    psi = tuple(t - p for t, p in zip(theta, spec.phi))
    n = spec.n
    rho, rho_star = ricci_via_formula(spec)
    dphi = spec.dphi()
    dphi_jwedge = eval_on_bivector(spec, dphi, fundamental_form(spec))
    jpsi = spec.j_apply(psi)
    terms = [spec.left(psi, rho),                          # rho(psi#, Z)
             jpsi,                                         # -psi(JZ)
             spec.j_apply(spec.left(jpsi, rho_star))]      # -rho*(J psi#, JZ)
    weights = [-1, dphi_jwedge, -1]
    if not dim4_mode:
        terms += [spec.left(psi, dphi),                    # dphi(psi#, Z)
                  spec.j_apply(spec.left(jpsi, dphi))]     # -dphi(J psi#, JZ)
        weights += [Fraction(n, 2) - 1, 1]
    return tuple(spec.dot([term[k] for term in terms], weights) for k in range(n))


def condition_ii(spec: FrameSpec) -> tuple[Scalar, ...]:
    """The condition-(ii) expression L(theta - phi) at Z = E_k for each k (raw,
    unnormalized; gate enforced), kept on the spec."""
    return spec.memo(_condition_ii_values, False)


def conditions(spec: FrameSpec, dim4_mode: bool = False) -> ConditionReport:
    """Assemble both conditions as normalized systems (gate enforced)."""
    require_gate(spec)
    if dim4_mode and spec.n != 4:
        raise GateError("dimension-four mode",
                        f"requires n = 4, got n = {spec.n}")
    sys_i, dropped_i = normalized_system(condition_i(spec))
    sys_ii, dropped_ii = normalized_system(spec.memo(_condition_ii_values, dim4_mode))
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
