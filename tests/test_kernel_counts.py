"""A ceiling on the kernel calls of four workloads.

The calls of :meth:`wtw.polyalg.Ring.dot` and the operand pairs they pass are
counted in process, with the counter of ``tests/dot_counts.py``, on the
workloads that script names: ``scan-n6`` (the 20 scan operations of
``Drawer("scan-n6", 777)``), ``suite-n4`` (its six rotated n = 4 frames),
``hyperbolic6-unitary`` and ``hyperbolic6-rotated``.  Unlike a timing, a count
reads the same on every run, so a change that adds kernel calls fails here
even where the benchmark cannot resolve it.  A change that lowers a count
lowers its ceiling with it; one that raises a count raises the ceiling and
says why.
"""

from __future__ import annotations

import pytest

import dot_counts

# workload: (calls, operand pairs)
CEILINGS = {
    "scan-n6": (1120, 2080),
    "suite-n4": (9212, 45010),
    "hyperbolic6-unitary": (6039, 31050),
    "hyperbolic6-rotated": (6846, 53633),
}


@pytest.mark.parametrize("name", CEILINGS)
def test_kernel_calls_stay_under_the_ceiling(name, tmp_path):
    workload = dot_counts.workloads([name], tmp_path)[name]
    counts = dot_counts.count(workload)
    calls, pairs = CEILINGS[name]
    assert counts["calls"] <= calls, counts["callers"][:5]
    assert counts["pairs"] <= pairs, counts["callers"][:5]
