"""Walkthrough: loading custom frame documents and hitting the gate.

Two documents are built inline: a hyperbolic-space-like solvable frame that
passes every check, and the same algebra with a plane-swapping complex
structure whose Nijenhuis tensor does not vanish, which the condition
machinery rejects by naming the violated assumption.

Run:  python demos/custom_frame.py
"""

from __future__ import annotations

import wtw

HYPERBOLIC = """
[frame]
dimension = 4
symbols = ["a1", "a2", "a3", "a4"]

[brackets]
"E1,E2" = { E1 = "-1" }
"E3,E2" = { E3 = "-1" }
"E4,E2" = { E4 = "-1" }

[complex_structure]
matrix = [
    ["0", "-1", "0", "0"],
    ["1", "0", "0", "0"],
    ["0", "0", "0", "-1"],
    ["0", "0", "1", "0"],
]

[weyl_form]
E1 = "a1"
E2 = "a2"
E3 = "a3"
E4 = "a4"
"""

spec = wtw.load_spec(HYPERBOLIC, name="hyperbolic-like")
print(f"loaded {spec.name}: n = {spec.dimension}")
lee = wtw.lee_form(spec)
print("Lee form:", ", ".join(str(v) for v in lee))
print("identity suite:", "all hold" if wtw.identity_suite(spec).ok else "FAILURES")

report = wtw.conditions(spec)
print("condition (i) system:", [str(p) for p in report.condition_i] or "empty")
print("condition (ii) system:", [str(p) for p in report.condition_ii] or "empty")
verdict = wtw.verify_assignment(report, {"a1": 0, "a2": -2, "a3": 0, "a4": 0})
print("the Lee-form point a2 = -2 solves the system:", verdict.holds)

print()
# The same recipe with unequal scaling weights and the plane-swapping J is
# not integrable, and the condition machinery refuses it by name.
SWAPPED_J = """
[frame]
dimension = 4
symbols = ["a1", "a2", "a3", "a4"]

[brackets]
"E1,E2" = { E1 = "-1" }
"E2,E3" = { E3 = "-1/2" }
"E2,E4" = { E4 = "-1/2" }

[complex_structure]
matrix = [
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-1"],
    ["1", "0", "0", "0"],
    ["0", "1", "0", "0"],
]

[weyl_form]
E1 = "a1"
"""

swapped = wtw.load_spec(SWAPPED_J, name="swapped-J")
_, integrable = wtw.nijenhuis(swapped)
print(f"swapped-J frame: Nijenhuis tensor vanishes = {integrable}")
try:
    wtw.conditions(swapped)
except wtw.GateError as exc:
    print(f"conditions refused: {exc}")
