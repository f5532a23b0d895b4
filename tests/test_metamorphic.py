"""Metamorphic tests of the condition systems: a change of the frame data whose
effect on conditions (i) and (ii) is known in closed form.

Each transformed frame is built with :meth:`FrameSpec.create` from the
original frame's structure constants c, complex structure J and Weyl form phi,
so it goes through the same validation and gate as any frame.

* J -> -J is again an integrable Hermitian structure for the same metric.
  The fundamental form Omega = g(J., .) changes sign, so the Lee form theta,
  defined by d(Omega) = theta ^ Omega, is unchanged.  The 2-form of
  condition (i) does not involve J, and its residuals pair it with J once, so
  they are negated; every term of condition (ii) holds J twice or not at all
  (rho* itself holds it twice), so it is unchanged.
* Halving every structure constant and every component of phi is the
  homothety g -> 4g read in the rescaled frame E_i / 2.  Every bracket, gamma
  and phi component halves, so the entries of condition (i), quadratic in
  them, scale by exactly 1/4, and those of condition (ii), cubic, by 1/8.

The frames are the 17 gate-passing ones (the 5 built-ins and 12 documents
under ``tests/data``) and the hyperbolic, Vaisman and Inoue-type frames of
``tests/frame_families.py`` at n = 10.
"""

from __future__ import annotations

from fractions import Fraction

import frame_families
from test_twistor import _gate_passing_frames
from wtw import FrameSpec, lee_form, load_spec
from wtw.pseudoharmonic import condition_i, condition_ii


def _frames():
    """The 17 gate-passing frames and the three families at n = 10."""
    return [*_gate_passing_frames(),
            load_spec(frame_families.hyperbolic(10), name="hyperbolic10"),
            load_spec(frame_families.vaisman(10), name="vaisman10"),
            load_spec(frame_families.inoue((1, 2, 3, 4)), name="inoue_rotation10")]


def _rebuilt(spec: FrameSpec, *, j_sign: int = 1, scale: Fraction = Fraction(1)) -> FrameSpec:
    """``spec`` with J multiplied by ``j_sign`` and every structure constant and
    phi component by ``scale``, through the public constructor."""
    n = spec.n
    brackets = {(i, j): {k: spec.c[i][j][k] * scale for k in range(n) if spec.c[i][j][k]}
                for i in range(n) for j in range(i + 1, n)}
    return FrameSpec.create(n, spec.ring.symbols, brackets,
                            [[j_sign * x for x in row] for row in spec.J],
                            [value * scale for value in spec.phi],
                            basis=spec.basis, name=spec.name)


def test_negating_j_negates_condition_i_and_keeps_condition_ii():
    for spec in _frames():
        flipped = _rebuilt(spec, j_sign=-1)
        assert lee_form(flipped).theta == lee_form(spec).theta, spec.name
        assert condition_i(flipped) == [-value for value in condition_i(spec)], spec.name
        assert condition_ii(flipped) == condition_ii(spec), spec.name


def test_a_homothety_scales_condition_i_by_a_quarter_and_condition_ii_by_an_eighth():
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    for spec in _frames():
        half = _rebuilt(spec, scale=Fraction(1, 2))
        assert condition_i(half) == [value * quarter for value in condition_i(spec)], spec.name
        assert condition_ii(half) == tuple(value * eighth for value in condition_ii(spec)), \
            spec.name
