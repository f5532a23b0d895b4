"""Walkthrough: the nilpotent built-in geometry over all four sign choices.

For each complex structure J with J A1 = e1 A2, J A3 = e2 A4 the script
prints the Lee form, runs the exact identity suite, and shows that the
pseudo-harmonicity conditions cut out the same two-parameter family
a1 = a2 = 0 for every sign pair, so there are many Weyl connections making
the section pseudo-harmonic.

Run:  python demos/kodaira_family.py
"""

from __future__ import annotations

import wtw

for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
    spec = wtw.builtin("kodaira", signs)
    print(f"== {spec.name}")
    lee = wtw.lee_form(spec)
    print("   Lee form:", ", ".join(str(v) for v in lee),
          "  (the unique 1-form with d(Omega) = theta ^ Omega)")

    suite = wtw.identity_suite(spec)
    formulas = wtw.ricci_formula_check(spec)
    print(f"   identity suite: {'all hold' if suite.ok and formulas.ok else 'FAILURES'}"
          f" ({len(suite.checks) + len(formulas.checks)} exact checks)")

    report = wtw.conditions(spec)
    print("   condition (i) system:", [str(p) for p in report.condition_i] or "empty")
    print("   condition (ii) system:", [str(p) for p in report.condition_ii])

    family = wtw.verify_assignment(report, {"a1": 0, "a2": 0})
    print(f"   a1 = a2 = 0 (a3, a4 free) solves it identically: {family.holds}")

    # the Lee form itself is always in the family
    e1, e2 = signs
    point = wtw.verify_assignment(report, {"a1": 0, "a2": 0, "a3": -2 * e1 * e2,
                                           "a4": 0})
    print(f"   the Lee-form point a3 = {-2 * e1 * e2} also solves it: {point.holds}")
    print()

print("vertical geometry at the section point:")
spec = wtw.builtin("kodaira", (1, 1))
basis = wtw.vertical_basis(spec)
print(f"  vertical space dimension m^2 - m = {len(basis.elements)};"
      f" fiber Gram matrix = {basis.norm_sq} * Identity (unnormalized pairs)")
vertical = wtw.vertical_checks(spec)  # both fiber checks, every vertical direction
print(f"  fiber pairing and vertical antisymmetry against each direction:"
      f" {'all hold' if vertical.ok else 'FAILURES'} ({len(vertical.checks)} exact checks)")
