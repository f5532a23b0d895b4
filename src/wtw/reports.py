"""Tiny result types shared by the check suites and the command line tool.

Every check that asserts "this residual vanishes" is added through
:meth:`CheckReport.require_zero`, which tests the residual with one ``any``
per innermost row and walks its indexed entries only when one is nonzero.
When the check fails, its ``detail`` holds the number of nonzero entries,
the first nonzero index written with the axis labels (usually basis vector
names, as in ``(E1,E2,E1,E2)``) and that entry's residual polynomial, for
example ``2 nonzero entries, first at (E1,E3): -a1 + 1/2*a2``.  A passing
check has an empty detail; the gate check carries the violated assumption
instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence


def _has_nonzero(entry) -> bool:
    """Whether a nested residual has a nonzero leaf: one ``any`` per innermost row."""
    if entry and isinstance(entry[0], (tuple, list)):
        return any(map(_has_nonzero, entry))
    return any(entry)


def _nonzero(entry, index=()):
    """(index, value) of every nonzero leaf of a nested residual, in index order."""
    if isinstance(entry, (tuple, list)):
        for i, inner in enumerate(entry):
            yield from _nonzero(inner, index + (i,))
    elif entry:
        yield index, entry


class Check(NamedTuple):
    """One named exact check: ok means the residual vanished identically."""

    name: str
    ok: bool
    detail: str = ""


class CheckReport:
    def __init__(self, title: str):
        self.title = title
        self.checks: list[Check] = []
        self.notes: dict[str, str] = {}

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))

    def require_zero(self, name: str, residual: Sequence,
                     labels: Sequence[Sequence[str]], den: int = 1) -> None:
        """Add the check that every entry of ``residual`` vanishes.

        ``residual`` nests tuples or lists to one depth throughout, with
        scalars (or rationals) at the leaves; ``labels[d]`` names the indices
        of depth d.  With ``den``, the leaves are int numerators over it, and
        the detail prints the first nonzero one as their Fraction, as a
        constant scalar of that value prints.
        """
        # only a failing check walks the indexed entries
        nonzero = list(_nonzero(residual)) if _has_nonzero(residual) else []
        if not nonzero:
            self.add(name, True)
            return
        index, value = nonzero[0]
        value = Fraction(value, den) if den != 1 else value
        where = ",".join(labels[depth][i] for depth, i in enumerate(index))
        noun = "entry" if len(nonzero) == 1 else "entries"
        self.add(name, False, f"{len(nonzero)} nonzero {noun}, first at ({where}): {value}")

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)
        self.notes.update(other.notes)
