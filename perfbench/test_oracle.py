"""Tests of the benchmark's oracle and frame generator against closed forms.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import frames  # noqa: E402
import oracle  # noqa: E402

LAMBDAS = (F(1), F(2), F(-1, 2), F(3, 4))


def zero_array(arr) -> bool:
    if isinstance(arr, tuple):
        return all(zero_array(sub) for sub in arr)
    return arr == 0


class ClosedForms(unittest.TestCase):
    def test_flat_torus_has_zero_curvature(self):
        torus = frames._frame("torus", 4, {}, frames._standard_j(4), frames._identity_phi(4))
        values = oracle.evaluate(torus.c, torus.J, (F(0),) * 4)
        for arr in (values.lc, values.weyl, values.r_lc, values.r_weyl, values.rho,
                    values.rho_star, values.theta):
            self.assertTrue(zero_array(arr))

    def test_hyperbolic_lee_form(self):
        for n in (4, 6):
            for lam in LAMBDAS:
                frame = frames.hyperbolic(n, lam)
                expected = tuple(-2 * lam if k == 1 else F(0) for k in range(n))
                self.assertEqual(tuple(oracle.lee_form(frame.c, frame.J)), expected)

    def test_hyperbolic_levi_civita_curvature_is_constant(self):
        # Real hyperbolic space of curvature -lam^2; with R(X,Y) = nabla_[X,Y]
        # - [nabla_X, nabla_Y] that reads r_ijkl = lam^2 (d_jk d_il - d_ik d_jl).
        for n in (4, 6):
            for lam in LAMBDAS:
                frame = frames.hyperbolic(n, lam)
                r = oracle.curvature(frame.c, oracle.levi_civita(frame.c))
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            for l in range(n):
                                want = lam * lam * ((j == k) * (i == l) - (i == k) * (j == l))
                                self.assertEqual(r[i][j][k][l], want)

    def test_weyl_connection_is_torsion_free_and_scales_the_metric(self):
        frame = frames.inoue_s0()
        phi = (F(1, 2), F(-3), F(2, 3), F(1))
        gamma = oracle.weyl(frame.c, phi)
        n = frame.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    self.assertEqual(gamma[i][j][k] - gamma[j][i][k], frame.c[i][j][k])
                    self.assertEqual(gamma[i][j][k] + gamma[i][k][j], -phi[i] * (j == k))


class Rotations(unittest.TestCase):
    def test_drawn_rotations_are_orthogonal_and_commute_with_j(self):
        drawer = frames.Drawer("test", 7)
        for _ in range(5):
            for name in frames.N4_ALGEBRAS:
                base = frames.n4_algebra(name)
                frame = drawer.rotated_n4(name)
                Q = [list(row) for row in frame.rotation]
                J = [list(row) for row in base.J]
                qt = frames.transpose(Q)
                self.assertEqual(frames.matmul(qt, Q), frames.identity(4))
                self.assertEqual(frames.matmul(frames.matmul(qt, J), Q), J)
                self.assertEqual(frame.J, base.J)

    def test_lee_form_rotates_as_a_covector(self):
        S = [[F(0), F(1), F(-1, 2), F(1)], [F(-1), F(0), F(1, 2), F(-1)],
             [F(1, 2), F(-1, 2), F(0), F(1)], [F(-1), F(1), F(-1), F(0)]]
        for name in frames.N4_ALGEBRAS:
            base = frames.n4_algebra(name, F(2, 3))
            Q = frames.cayley([list(row) for row in base.J], S)
            rotated = frames.rotate(base, Q)
            theta = oracle.lee_form(base.c, base.J)
            expected = [sum(Q[i][a] * theta[i] for i in range(4)) for a in range(4)]
            self.assertEqual(oracle.lee_form(rotated.c, rotated.J), expected)

    def test_draws_never_repeat_a_frame(self):
        drawer = frames.Drawer("test", 9)
        seen = {(f.c, f.phi) for f in (drawer.rotated_n4("kodaira++") for _ in range(50))}
        self.assertEqual(len(seen), 50)


class PolynomialReader(unittest.TestCase):
    def test_canonical_strings(self):
        point = {"a1": F(2), "a2": F(-1, 3)}
        self.assertEqual(oracle.eval_poly("-1/2*a2^2 - a2", point), F(-1, 18) + F(1, 3))
        self.assertEqual(oracle.eval_poly("a1*a2 + 3", point), F(-2, 3) + 3)
        self.assertEqual(oracle.eval_poly("0", point), 0)
        self.assertEqual(oracle.term_count("-1/2*a2^2 - a2 + 7/3"), 3)


if __name__ == "__main__":
    unittest.main()
