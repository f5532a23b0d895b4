from __future__ import annotations

from fractions import Fraction

from wtw import builtin
from wtw.reports import CheckReport


def test_all_zero_nested_array_passes_with_empty_detail():
    spec = builtin("inoue-s0")
    zero = spec.zero()
    report = CheckReport(title="t")
    report.require_zero("zero", [[[(zero,) * 4] * 4] * 4] * 4, (spec.basis,) * 4)
    assert report.ok
    assert report.checks[0].detail == ""


def test_failing_array_names_count_first_index_and_residual():
    spec = builtin("inoue-s0")
    a1 = spec.ring.sym("a1")
    residual = [[[[spec.zero() for _ in range(4)] for _ in range(4)] for _ in range(4)]
                for _ in range(4)]
    residual[1][0][3][2] = a1 * Fraction(-1, 2) + 1
    residual[2][3][0][0] = a1
    residual[3][3][3][3] = spec.const(5)
    report = CheckReport(title="t")
    report.require_zero("four-index", residual, (spec.basis,) * 4)
    check = report.checks[0]
    assert not check.ok
    assert check.detail == "3 nonzero entries, first at (E2,E1,E4,E3): -1/2*a1 + 1"


def test_each_axis_has_its_own_labels_and_rationals_count():
    report = CheckReport(title="t")
    report.require_zero("mixed", [[0, Fraction(0)], [0, Fraction(3, 4)]],
                        (("A[1,2]", "B[1,2]"), ("E1", "E2")))
    assert report.checks[0].detail == "1 nonzero entry, first at (B[1,2],E2): 3/4"
