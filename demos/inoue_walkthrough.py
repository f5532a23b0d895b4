"""Walkthrough: the solvable built-in geometry, end to end.

Builds the `inoue-s0` frame, prints the connection and curvature data, the
Lee form, and the pseudo-harmonicity condition systems, then follows the
two-stage reduction: condition (i) forces two parameters to vanish, and the
reduced condition (ii) pins the remaining ones.

Run:  python demos/inoue_walkthrough.py
"""

from __future__ import annotations

import wtw

spec = wtw.builtin("inoue-s0")
print(f"frame {spec.name}: n = {spec.dimension}, symbols = {spec.ring.symbols}")
print("nonzero brackets:")
for i in range(4):
    for j in range(i + 1, 4):
        comps = [(k, spec.c[i][j][k]) for k in range(4) if spec.c[i][j][k] != 0]
        if comps:
            text = " + ".join(f"{value}*{spec.basis[k]}" for k, value in comps)
            print(f"  [{spec.basis[i]},{spec.basis[j]}] = {text}")

print("\nLevi-Civita connection (nonzero coefficients):")
for i, j, k, value in wtw.levi_civita(spec).nonzero():
    print(f"  nabla_{spec.basis[i]} {spec.basis[j]} has {spec.basis[k]}-component {value}")

lee = wtw.lee_form(spec)
print("\nLee form:", ", ".join(f"theta[{k+1}] = {v}" for k, v in enumerate(lee)))
print("locally conformally Kaehler checks:")
for check in wtw.lck_check(spec).checks:
    print(f"  {check.name}: {'ok' if check.ok else 'FAIL'}")

rho = wtw.ricci(wtw.curvature(wtw.weyl(spec)))
print("\nRicci tensor of the Weyl connection (nonzero entries):")
for i in range(4):
    for j in range(4):
        if not rho[i][j].is_zero:
            print(f"  rho[{i+1}][{j+1}] = {rho[i][j]}")

report = wtw.conditions(spec)
print("\ncondition (i) residual system:", [str(p) for p in report.condition_i])
print("condition (ii) residual system:", [str(p) for p in report.condition_ii])

# Condition (i) forces a3 = a4 = 0; substitute and redo condition (ii).
reduced = spec.with_phi([p.substitute({"a3": 0, "a4": 0}) for p in spec.phi])
reduced_report = wtw.conditions(reduced)
print("\nafter a3 = a4 = 0, condition (ii) becomes:",
      [str(p) for p in reduced_report.condition_ii])

verdict = wtw.verify_assignment(reduced_report, {"a1": 0, "a2": 1})
print(f"a1 = 0, a2 = 1 satisfies the reduced system: {verdict.holds}")
print("(that point is the Lee form itself, the Weyl form whose connection")
print(" makes J parallel, so the section is pseudo-harmonic exactly there)")

# The trace machinery agrees with the condition systems as polynomial identities.
equivalence = wtw.equivalence_check(spec)
print("\ntrace-condition equivalence:", "ok" if equivalence.ok else "FAIL")
