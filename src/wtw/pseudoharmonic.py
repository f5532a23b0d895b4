"""Pseudo-harmonicity conditions for the complex structure as a twistor section.

For a Weyl form phi and the Lee form theta of the frame's Hermitian
structure, the section is pseudo-harmonic exactly when

  (i)  the 2-form  d(theta - phi) + n(n-4)/(2(n-2)) theta ^ phi
       is of type (1,1) with respect to J, and
  (ii) for every Z:
       (n/2 - 1) dphi((theta-phi)#, Z) - dphi(J(theta-phi)#, JZ)
       - (theta-phi)(JZ) dphi(J^) - rho((theta-phi)#, Z)
       + rho*(J(theta-phi)#, JZ) = 0.

Both conditions are produced as normalized polynomial systems (content and
sign stripped, zero entries dropped with a count).  ``dim4`` evaluates the
rearranged four-dimensional form of condition (ii), which keeps only its last
three terms; when dphi is of type (1,1) (true for both built-in geometries
after condition (i) is imposed) it generates the same normalized system.

The engine never solves systems over the reals; ``verify_assignment``
substitutes a (possibly partial) assignment and reports whether every
polynomial vanishes identically in the remaining symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .curvature import curvature, ricci, star_ricci
from .connection import weyl
from .frame import FrameSpec, d_oneform, eval_on_bivector, wedge_oneforms
from .hermitian import GateError, require_gate
from .polyalg import RationalLike, Scalar, normalize_up_to_unit
from .reports import CheckReport
from . import twistor


@dataclass(frozen=True)
class ConditionReport:
    """Normalized polynomial systems for conditions (i) and (ii).

    Every listed polynomial is normalize_up_to_unit-canonical and nonzero;
    identically-zero residuals are dropped and counted.
    """

    spec_name: str
    condition_i: tuple[Scalar, ...]
    condition_ii: tuple[Scalar, ...]
    dropped_i: int
    dropped_ii: int
    dim4_mode: bool
    assignments_checked: tuple = ()

    @property
    def holds_identically(self) -> bool:
        return not self.condition_i and not self.condition_ii

    def with_assignment(self, verdict: "AssignmentVerdict") -> "ConditionReport":
        """A copy of the report with the verdict appended to its history."""
        from dataclasses import replace
        return replace(self, assignments_checked=self.assignments_checked + (verdict,))


def _normalize_list(values) -> tuple[tuple[Scalar, ...], int]:
    seen: list[Scalar] = []
    dropped = 0
    for value in values:
        norm = normalize_up_to_unit(value)
        if norm.is_zero:
            dropped += 1
        elif norm not in seen:
            seen.append(norm)
    seen.sort(key=lambda p: (p.total_degree(), str(p)))
    return tuple(seen), dropped


def condition_i(spec: FrameSpec) -> list[Scalar]:
    """(1,1)-type residuals of the condition-(i) 2-form, for k < l."""
    theta = require_gate(spec).theta
    n = spec.n
    J = spec.J
    coeff = Fraction(n * (n - 4), 2 * (n - 2))
    tmf = tuple(theta[i] - spec.phi[i] for i in range(n))
    F = d_oneform(spec, tmf)
    wedge = wedge_oneforms(spec, theta, spec.phi)
    comps = [[F.comps[i][j] + coeff * wedge.comps[i][j] for j in range(n)]
             for i in range(n)]
    out = []
    for k in range(n):
        for l in range(k + 1, n):
            value = sum((J[p][k] * comps[p][l] for p in range(n)), spec.zero())
            value = value + sum((J[q][l] * comps[k][q] for q in range(n)), spec.zero())
            out.append(value)
    return out


def _condition_ii_values(spec: FrameSpec, theta, dim4_mode: bool) -> list[Scalar]:
    """The condition-(ii) expression at Z = E_k for each k.

    In ``dim4_mode`` only the last three terms are kept: up to sign they are
    the rearranged four-dimensional form, and normalization strips the sign.
    """
    n = spec.n
    J = spec.J
    R = curvature(weyl(spec))
    rho = ricci(R)
    rho_star = star_ricci(R)
    dphi = spec.dphi()
    j_wedge = twistor.wedge_iso(spec.j_endo())
    dphi_jwedge = eval_on_bivector(dphi, j_wedge)
    tmf = tuple(theta[i] - spec.phi[i] for i in range(n))
    jt = spec.j_apply(tmf)
    out = []
    for k in range(n):
        jz = [J[l][k] for l in range(n)]
        value = spec.zero()
        if not dim4_mode:
            value = (Fraction(n, 2) - 1) * sum((tmf[p] * dphi.comps[p][k]
                                                for p in range(n)), spec.zero())
            value = value - sum((jt[p] * jz[q] * dphi.comps[p][q]
                                 for p in range(n) for q in range(n)), spec.zero())
        value = value - sum((tmf[l] * jz[l] for l in range(n)), spec.zero()) * dphi_jwedge
        value = value - sum((tmf[p] * rho[p][k] for p in range(n)), spec.zero())
        value = value + sum((jt[p] * jz[q] * rho_star[p][q]
                             for p in range(n) for q in range(n)), spec.zero())
        out.append(value)
    return out


def condition_ii(spec: FrameSpec) -> list[Scalar]:
    """The condition-(ii) expression at Z = E_k for each k (raw, unnormalized)."""
    theta = require_gate(spec).theta
    return _condition_ii_values(spec, theta, dim4_mode=False)


def conditions(spec: FrameSpec, dim4_mode: bool = False) -> ConditionReport:
    """Assemble both conditions as normalized systems (gate enforced)."""
    lee = require_gate(spec)
    if dim4_mode and spec.n != 4:
        raise GateError("dimension-four mode",
                        f"requires n = 4, got n = {spec.n}")
    sys_i, dropped_i = _normalize_list(condition_i(spec))
    sys_ii, dropped_ii = _normalize_list(_condition_ii_values(spec, lee.theta, dim4_mode))
    return ConditionReport(spec_name=spec.name,
                           condition_i=sys_i, condition_ii=sys_ii,
                           dropped_i=dropped_i, dropped_ii=dropped_ii,
                           dim4_mode=dim4_mode)


def dim4(spec: FrameSpec) -> ConditionReport:
    """Condition report in the rearranged four-dimensional form."""
    return conditions(spec, dim4_mode=True)


@dataclass(frozen=True)
class AssignmentVerdict:
    assignment: tuple[tuple[str, Fraction], ...]
    per_polynomial: tuple[tuple[str, bool], ...]
    holds: bool
    residual_symbols: tuple[str, ...]


def verify_assignment(report: ConditionReport,
                      assignment: Mapping[str, RationalLike]) -> AssignmentVerdict:
    """Substitute an assignment into both systems; holds means every polynomial
    vanishes identically in the remaining symbols (partial assignments allowed)."""
    items = tuple(sorted((name, Fraction(value)) for name, value in assignment.items()))
    per = []
    holds = True
    leftover: set[str] = set()
    for label, system in (("i", report.condition_i), ("ii", report.condition_ii)):
        for idx, poly in enumerate(system, start=1):
            value = poly.substitute(dict(items))
            ok = value.is_zero
            holds = holds and ok
            per.append((f"condition_{label}[{idx}]", ok))
            if not ok:
                for exps, _ in value.terms():
                    for name, power in zip(value.ring.symbols, exps):
                        if power:
                            leftover.add(name)
    return AssignmentVerdict(assignment=items, per_polynomial=tuple(per),
                             holds=holds, residual_symbols=tuple(sorted(leftover)))


def equivalence_check(spec: FrameSpec) -> CheckReport:
    """Tie the trace machinery to the condition systems, exactly.

    * h_trace components equal the condition-(ii) expressions (unit +1);
    * v_trace residuals at (E_k, E_l) equal the negated condition-(i)
      residuals entrywise (unit -1), and both trace paths agree.
    """
    report = CheckReport(title="trace-condition equivalence")
    lee = require_gate(spec)
    n = spec.n
    h = twistor.h_trace(spec)
    cii = _condition_ii_values(spec, lee.theta, dim4_mode=False)
    report.add("horizontal trace equals condition (ii) componentwise",
               all((a - b).is_zero for a, b in zip(h, cii)))
    report.notes["h_unit"] = "+1"
    v = twistor.v_trace(spec)
    report.add("vertical trace paths agree", v.paths_agree)
    ci = condition_i(spec)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    ok = all((v.closed_form[k][l] + ci[idx]).is_zero
             for idx, (k, l) in enumerate(pairs))
    report.add("vertical trace equals negated condition (i) residuals", ok)
    report.notes["v_unit"] = "-1"
    return report
