from __future__ import annotations

import importlib
import pathlib
from fractions import Fraction

import pytest

import frame_families
from oracles import cov_deriv_oneform
from test_frame import _rotated
from wtw import (FrameError, Ring, SpecFormatError, builtin, hermitian, lee_form, load_spec,
                 load_spec_file)
from wtw.connection import cov_deriv_endo, levi_civita, weyl, weyl_rows
from wtw.curvature import (curvature, identity_suite, phi_tensor, ricci,
                           ricci_formula_check, ricci_via_formula, star_ricci)

curvature_module = importlib.import_module("wtw.curvature")
DATA = pathlib.Path(__file__).parent / "data"


def _route_frames():
    """The built-ins, every loadable document under tests/data (gate failures
    included), the three frame families at n = 10 and copies of inoue-s0,
    hyperbolic6 and vaisman6 in a rotated basis, where J has no zero entry off
    the diagonal, each by a loader."""
    frames = {"inoue-s0": lambda: builtin("inoue-s0")}
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        frames[f"kodaira{signs}"] = lambda signs=signs: builtin("kodaira", signs)
    for path in sorted(DATA.glob("*.toml")):
        try:
            load_spec_file(path)
        except (FrameError, SpecFormatError):
            continue
        frames[path.stem] = lambda path=path: load_spec_file(path)
    for name, text in (("hyperbolic10", frame_families.hyperbolic(10)),
                       ("vaisman10", frame_families.vaisman(10)),
                       ("inoue_rotation10", frame_families.inoue((1, 2, 3, 4)))):
        frames[name] = lambda text=text: load_spec(text)
    for base in ("inoue-s0", "hyperbolic6", "vaisman6"):
        frames[f"{base} rotated"] = lambda base=base: _rotated(frames[base](), f"{base} rotated")
    return frames


ROUTE_FRAMES = _route_frames()

# the frames of the kernel-call guard of the identity suite; at phi = 0 the
# weight <Phi, J> of the rho* defect is zero
KERNEL_GUARD_FRAMES = {
    "inoue-s0": lambda: builtin("inoue-s0"),
    "inoue-s0 at phi = 0": lambda: builtin("inoue-s0").with_phi((0,) * 4),
    "hyperbolic6": lambda: load_spec_file(DATA / "hyperbolic6.toml"),
    **{name: lambda text=text: load_spec(text)
       for name, text in {**frame_families.UNITARY, **frame_families.DENSE_J}.items()}}


def _nonzero_r(R):
    out = {}
    n = R.spec.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(n):
                    if not R.r[i][j][k][l].is_zero:
                        out[(i + 1, j + 1, k + 1, l + 1)] = str(R.r[i][j][k][l])
    return out


def _phi_correction(spec):
    """The Weyl curvature by the Phi-correction formula at every (i, j, k, l), with
    R_g contracted in rationals from the Koszul gammas at every pair (i, j), so
    that no entry is the mirror of another."""
    c, ix = spec.c, range(spec.n)
    g = [[[Fraction(c[i][j][k] - c[i][k][j] - c[j][k][i], 2) for k in ix] for j in ix]
         for i in ix]
    half = [[value * Fraction(1, 2) for value in row] for row in phi_tensor(spec)]

    def entry(i, j, k, l):
        rg = sum(c[i][j][m] * g[m][k][l] - g[j][k][m] * g[i][m][l] + g[i][k][m] * g[j][m][l]
                 for m in ix)
        return spec.dot((rg, half[i][j], half[j][i], half[i][k], half[j][k], half[j][l],
                         half[i][l]),
                        (1, k == l, -(k == l), j == l, -(i == l), i == k, -(j == k)))

    return tuple(tuple(tuple(tuple(entry(i, j, k, l) for l in ix) for k in ix) for j in ix)
                 for i in ix)


def _over(den, array):
    """A nested array of int numerators over ``den`` as nested tuples of Fractions."""
    if isinstance(array, (list, tuple)):
        return tuple(_over(den, inner) for inner in array)
    return Fraction(array, den)


def _table(matrix):
    return [[str(entry) for entry in row] for row in matrix]


class TestCurvatureTensor:
    def test_kodaira_levi_civita_table(self, kodairas):
        got = _nonzero_r(curvature(levi_civita(kodairas[(1, 1)])))
        assert got == {
            (1, 2, 1, 2): "-3", (1, 2, 2, 1): "3",
            (1, 4, 1, 4): "1", (1, 4, 4, 1): "-1",
            (2, 4, 2, 4): "1", (2, 4, 4, 2): "-1",
        }

    def test_abelian_flat(self, abelian):
        assert not _nonzero_r(curvature(levi_civita(abelian)))
        assert not _nonzero_r(curvature(weyl(abelian)))

    def test_two_weyl_curvature_routes_agree(self, inoue, kodairas, hyperbolic_like):
        """The direct Weyl curvature equals the Phi-correction formula evaluated
        at every (i, j, k, l) in the test, on the n = 6 and 8 frame families too:
        the library forms the pairs i < j only and mirrors them.  The identity
        suite's check of the same formula passes on each frame."""
        families = [load_spec(text, name) for name, text in frame_families.COMMITTED.items()]
        for spec in (inoue, kodairas[(1, 1)], kodairas[(-1, -1)], hyperbolic_like, *families):
            assert curvature(weyl(spec)).r == _phi_correction(spec), spec.name
            checks = {check.name: check for check in identity_suite(spec).checks}
            assert checks["direct Weyl curvature equals Phi-correction formula"].ok, spec.name

    def test_zero_form_reduces_to_levi_civita_curvature(self, kodairas):
        spec = kodairas[(1, 1)].with_phi((0, 0, 0, 0))
        lc = curvature(levi_civita(spec))
        assert _nonzero_r(lc) == _nonzero_r(curvature(weyl(spec)))

    def test_antisymmetry_in_first_pair(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            for conn in (levi_civita(spec), weyl(spec)):
                R = curvature(conn)
                assert all((R.r[i][j][k][l] + R.r[j][i][k][l]).is_zero
                           for i in range(4) for j in range(4)
                           for k in range(4) for l in range(4))


class TestRationalLayer:
    """The phi-free layer, formed in ints and lifted once, against the
    polynomial contraction and the public covariant derivative."""

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_levi_civita_curvature_equals_the_contraction(self, name):
        # the Weyl connection of phi = 0 has the Levi-Civita gammas, and its
        # curvature runs the Ring.dot contraction
        spec = ROUTE_FRAMES[name]()
        contracted = curvature(weyl(spec.with_phi((0,) * spec.n)))
        assert contracted.r == curvature(levi_civita(spec)).r  # entry by entry
        rho_g, rho_star_g = curvature_module._levi_civita_ricci(spec)
        assert ricci(contracted) == rho_g
        assert star_ricci(contracted) == rho_star_g

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_lee_form_equals_the_traced_nabla_j(self, name):
        # theta = 2/(n-2) J(delta J), with delta J = -sum_i (nabla_{E_i} J)(E_i)
        # traced from the public nabla J
        spec = ROUTE_FRAMES[name]()
        n, zero, J = spec.n, spec.zero(), spec.J
        nabla_j = cov_deriv_endo(levi_civita(spec), spec.J)
        delta_j = [-sum((nabla_j[i][l][i] for i in range(n)), zero) for l in range(n)]
        b = [sum((delta_j[k] * J[l][k] for k in range(n)), zero) * Fraction(2, n - 2)
             for l in range(n)]
        assert lee_form(spec) == tuple(b)

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_int_nabla_j_tables_equal_the_public_derivative(self, name):
        # the Levi-Civita nabla J and J o nabla J that the nabla-J checks and the
        # twistor layer read in ints
        spec = ROUTE_FRAMES[name]()
        nabla_j = cov_deriv_endo(levi_civita(spec), spec.J)
        assert _over(*hermitian._nabla_j(spec)) == nabla_j
        j_nabla_j = tuple(spec.compose(spec.J, d) for d in nabla_j)
        assert _over(*hermitian._j_nabla_j_ints(spec)) == j_nabla_j

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_int_weyl_derivative_of_j_equals_the_public_derivative(self, name):
        # D J for the Weyl connection of the Lee form, read from the int Weyl
        # rows of theta, against the scalar Weyl connection of phi = theta
        spec = ROUTE_FRAMES[name]()
        tden, theta = hermitian._lee_ints(spec)
        wden, rows = weyl_rows(spec, tden, theta)
        jden, cols = spec.j_columns()
        expected = cov_deriv_endo(weyl(spec.with_phi(lee_form(spec))), spec.J)
        assert _over(wden * jden, hermitian._derivative(rows, cols)) == expected

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_int_d_omega_is_the_cyclic_bracket_sum(self, name):
        # dOmega(E_i, E_j, E_k) = -Omega([E_i, E_j], E_k) + Omega([E_i, E_k], E_j)
        # - Omega([E_j, E_k], E_i), with Omega(E_a, E_b) = J[b][a]
        spec = ROUTE_FRAMES[name]()
        c, J, ix = spec.c, spec.J, range(spec.n)
        expected = tuple(tuple(tuple(sum(
            -c[i][j][m] * J[k][m] + c[i][k][m] * J[j][m] - c[j][k][m] * J[i][m] for m in ix)
            for k in ix) for j in ix) for i in ix)
        assert _over(*hermitian._d_omega(spec)) == expected


class TestPhiTensor:
    def test_zero_form(self, abelian):
        assert all(entry.is_zero for row in phi_tensor(abelian) for entry in row)

    def test_inoue_single_component(self, inoue):
        spec = inoue.with_phi((0, "a2", 0, 0))
        table = phi_tensor(spec)
        assert str(table[0][0]) == "-1/4*a2^2 - a2"

    def test_kodaira_diagonal(self, kodairas):
        spec = kodairas[(1, 1)].with_phi((0, 0, "a3", 0))
        table = phi_tensor(spec)
        assert str(table[2][2]) == "1/4*a3^2"
        assert str(table[0][0]) == "-1/4*a3^2"


class TestRicciTables:
    def test_inoue_reduced_ricci(self, inoue_reduced):
        rho = _table(ricci(curvature(weyl(inoue_reduced))))
        assert rho[0][0] == "-1/2*a2^2 - a2"
        assert rho[0][1] == "1/2*a1*a2 + 3/2*a1"
        # forced by the antisymmetry identity rho[i][j] - rho[j][i] = 2 dphi[i][j]
        assert rho[1][0] == "1/2*a1*a2 - 1/2*a1"
        assert rho[1][1] == "-1/2*a1^2 - 3/2"
        assert rho[2][2] == rho[3][3] == "-1/2*a1^2 - 1/2*a2^2 + 1/2*a2"
        zero_slots = {(i, j) for i in range(4) for j in range(4)
                      if rho[i][j] == "0"}
        assert zero_slots == {(0, 2), (0, 3), (1, 2), (1, 3),
                              (2, 0), (2, 1), (3, 0), (3, 1),
                              (2, 3), (3, 2)}

    def test_inoue_reduced_star_ricci(self, inoue_reduced):
        rho = _table(star_ricci(curvature(weyl(inoue_reduced))))
        assert rho[0][0] == rho[1][1] == "-1/2*a2 - 1"
        assert rho[0][1] == "1/2*a1"
        assert rho[1][0] == "-1/2*a1"
        assert rho[2][3] == "-1/2*a1"
        assert rho[3][2] == "1/2*a1"
        assert rho[2][2] == rho[3][3] == "-1/4*a1^2 - 1/4*a2^2 + 1/2*a2 - 1/4"

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_ricci(self, kodairas, signs):
        rho = _table(ricci(curvature(weyl(kodairas[signs]))))
        assert rho == [
            ["-1/2*a2^2 - 1/2*a3^2 - 1/2*a4^2 - 2", "1/2*a1*a2 + 2*a4",
             "1/2*a1*a3", "1/2*a1*a4 - a2"],
            ["1/2*a1*a2 - 2*a4", "-1/2*a1^2 - 1/2*a3^2 - 1/2*a4^2 - 2",
             "1/2*a2*a3", "a1 + 1/2*a2*a4"],
            ["1/2*a1*a3", "1/2*a2*a3",
             "-1/2*a1^2 - 1/2*a2^2 - 1/2*a4^2", "1/2*a3*a4"],
            ["1/2*a1*a4 - a2", "a1 + 1/2*a2*a4",
             "1/2*a3*a4", "-1/2*a1^2 - 1/2*a2^2 - 1/2*a3^2 + 2"],
        ]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_star_ricci(self, kodairas, signs):
        e1, e2 = signs
        spec = kodairas[signs]
        rho = star_ricci(curvature(weyl(spec)))
        r = spec.ring
        a1, a2, a3, a4 = (r.sym(name) for name in ("a1", "a2", "a3", "a4"))
        ee = e1 * e2
        quarter = r.parse("1/4")
        top = [
            -(a3 ** 2 + a4 ** 2 + 12) * quarter, a4,
            (a1 * a3 + ee * (2 * a1 + a2 * a4)) * quarter,
            (-2 * a2 + a1 * a4 - ee * a2 * a3) * quarter,
        ]
        for j in range(4):
            assert rho[0][j] == top[j]
        assert rho[1][1] == rho[0][0]
        assert rho[1][0] == -a4
        assert rho[1][2] == rho[2][1] == -ee * rho[0][3]
        assert rho[1][3] == rho[3][1] == ee * rho[0][2]
        assert rho[2][0] == rho[0][2]
        assert rho[3][0] == rho[0][3]
        assert rho[2][3] == -ee * a4
        assert rho[3][2] == ee * a4
        assert rho[2][2] == rho[3][3] == -(a1 ** 2 + a2 ** 2) * quarter


class TestIdentitySuite:
    @pytest.mark.parametrize("which", ["inoue", "k++", "k+-", "k-+", "k--"])
    def test_all_identities_hold(self, which, inoue, kodairas):
        table = {"inoue": inoue, "k++": kodairas[(1, 1)], "k+-": kodairas[(1, -1)],
                 "k-+": kodairas[(-1, 1)], "k--": kodairas[(-1, -1)]}
        report = identity_suite(table[which])
        assert report.ok, [c.name for c in report.failures]

    def test_symmetric_ricci_iff_closed_form(self, inoue):
        # dphi = 0 for phi = a2 eta2, so rho must be symmetric
        spec = inoue.with_phi((0, "a2", 0, 0))
        rho = ricci(curvature(weyl(spec)))
        assert all((rho[i][k] - rho[k][i]).is_zero for i in range(4) for k in range(4))

    def test_identity_suite_on_lck_fixture(self, hyperbolic_like):
        report = identity_suite(hyperbolic_like)
        assert report.ok, [c.name for c in report.failures]

    def test_failure_details_count_every_entry(self, monkeypatch):
        """A fault a1 - 2 at r[1][2][0][3] of the Weyl curvature of inoue-s0, with
        its negative at the mirror r[2][1][0][3], breaks the four n^4 checks and
        the rho* defect together; each detail counts the nonzero entries of the
        whole array, both halves of the formed pairs included, and names the
        first."""
        weyl_curvature = curvature_module.curvature.__wrapped__

        def faulty(conn):
            R = weyl_curvature(conn)
            if conn.kind != "weyl":
                return R
            fault = conn.spec.ring.parse("a1 - 2")
            r = [[[list(row) for row in block] for block in plane] for plane in R.r]
            r[1][2][0][3] += fault
            r[2][1][0][3] -= fault
            return curvature_module.Curvature(conn.spec, r)

        monkeypatch.setattr(curvature_module.curvature, "__wrapped__", faulty)
        report = identity_suite(builtin("inoue-s0"))
        assert [(check.name, check.detail) for check in report.checks] == [
            ("pair-symmetry against d(phi) [Z-T]",
             "4 nonzero entries, first at (E2,E3,E1,E4): a1 - 2"),
            ("argument-pair exchange against d(phi) [XY-ZT]",
             "4 nonzero entries, first at (E1,E4,E2,E3): -2*a1 + 4"),
            ("first Bianchi identity", "6 nonzero entries, first at (E1,E2,E3,E4): a1 - 2"),
            ("direct Weyl curvature equals Phi-correction formula",
             "2 nonzero entries, first at (E2,E3,E1,E4): a1 - 2"),
            ("antisymmetric part of rho equals (n/2) d(phi)", ""),
            ("twisted-symmetry defect of rho* from d(phi) and codifferentials",
             "2 nonzero entries, first at (E1,E1): a1 - 2"),
        ]

    @pytest.mark.parametrize("text", [
        (DATA / "hyperbolic6.toml").read_text(encoding="utf-8"),
        *frame_families.UNITARY.values()], ids=["hyperbolic6", "hyperbolic6-unitary"])
    def test_failure_details_count_every_entry_at_n6(self, monkeypatch, text):
        """A fault a3*a5 - 1/2 at r[2][5][4][5] of the Weyl curvature of
        hyperbolic6, with its negative at the mirror r[5][2][4][5], breaks the four
        n^4 checks and, through rho[2][4], the antisymmetry of rho; the same in
        the basis where the brackets are dense.  The exchange residual names its
        pair index (E3,E6) against (E5,E6)."""
        weyl_curvature = curvature_module.curvature.__wrapped__

        def faulty(conn):
            R = weyl_curvature(conn)
            if conn.kind != "weyl":
                return R
            fault = conn.spec.ring.parse("a3*a5 - 1/2")
            r = [[[list(row) for row in block] for block in plane] for plane in R.r]
            r[2][5][4][5] += fault
            r[5][2][4][5] -= fault
            return curvature_module.Curvature(conn.spec, r)

        monkeypatch.setattr(curvature_module.curvature, "__wrapped__", faulty)
        report = identity_suite(load_spec(text))
        assert [(check.name, check.detail) for check in report.checks] == [
            ("pair-symmetry against d(phi) [Z-T]",
             "4 nonzero entries, first at (E3,E6,E5,E6): a3*a5 - 1/2"),
            ("argument-pair exchange against d(phi) [XY-ZT]",
             "4 nonzero entries, first at (E3,E6,E5,E6): 2*a3*a5 - 1"),
            ("first Bianchi identity",
             "6 nonzero entries, first at (E3,E5,E6,E6): -a3*a5 + 1/2"),
            ("direct Weyl curvature equals Phi-correction formula",
             "2 nonzero entries, first at (E3,E6,E5,E6): a3*a5 - 1/2"),
            ("antisymmetric part of rho equals (n/2) d(phi)",
             "2 nonzero entries, first at (E3,E5): a3*a5 - 1/2"),
            ("twisted-symmetry defect of rho* from d(phi) and codifferentials", ""),
        ]

    @pytest.mark.parametrize("name", KERNEL_GUARD_FRAMES)
    def test_each_entry_passes_the_kernel_its_nonzero_terms(self, monkeypatch, name):
        """Each residual entry makes one kernel call over exactly the terms that
        pass their delta and are nonzero, in their order, and none where no
        term is left; so every call has an operand pair with two nonzero
        sides."""
        builder, dot = curvature_module._identity, Ring.dot
        open_entries = []  # the kernel calls of the entry being formed
        entries = []  # (the kept terms, the kernel calls) of each entry

        def kept(terms, at):
            index = dict(zip("ijkl", at))
            out = []
            for weight, value, indices, *delta in terms:
                if delta and index[delta[0][0]] != index[delta[0][1]]:
                    continue
                for letter in indices:
                    value = value[index[letter]]
                if weight and value:
                    out.append((value, weight))
            return out

        def recorded(spec, terms):
            entry = builder(spec, terms)

            def watched(*at):
                calls = []
                open_entries.append(calls)
                try:
                    return entry(*at)
                finally:
                    open_entries.pop()
                    entries.append((kept(terms, at), calls))

            return watched

        def counted(ring, u, v):
            zipped = list(zip(u, v))  # as the kernel zips them: v may be endless
            if open_entries:
                open_entries[-1].append(zipped)
            return dot(ring, [a for a, _ in zipped], [b for _, b in zipped])

        monkeypatch.setattr(curvature_module, "_identity", recorded)
        monkeypatch.setattr(Ring, "dot", counted)
        assert identity_suite(KERNEL_GUARD_FRAMES[name]()).ok
        assert any(calls for _, calls in entries)
        for expected, calls in entries:
            assert all(any(a and b for a, b in call) for call in calls)
            assert calls == ([expected] if expected else [])


class TestRicciFormulas:
    @pytest.mark.parametrize("which", ["inoue", "k++", "k--", "hyp"])
    def test_formulas_hold(self, which, inoue, kodairas, hyperbolic_like):
        table = {"inoue": inoue, "k++": kodairas[(1, 1)],
                 "k--": kodairas[(-1, -1)], "hyp": hyperbolic_like}
        report = ricci_formula_check(table[which])
        assert report.ok, [c.name for c in report.failures]
        assert report.notes["jstar_term_sign"].startswith("-1/2")

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_closed_formulas_equal_the_traced_weyl_tensor(self, name):
        # exactly, entry by entry; the formulas read no Weyl gamma or curvature
        spec = ROUTE_FRAMES[name]()
        RD = curvature(weyl(spec))
        rho, rho_star = ricci_via_formula(spec)
        assert _table(rho) == _table(ricci(RD))
        assert _table(rho_star) == _table(star_ricci(RD))
        assert ricci_via_formula(spec) is ricci_via_formula(spec)  # kept on the spec

    @pytest.mark.parametrize("name", ROUTE_FRAMES)
    def test_phi_on_j_is_the_codifferential_difference(self, name):
        # the paper's delta(J*phi) - phi(delta J), formed from the public
        # covariant derivatives of J*phi = phi o J and of J, equals the <Phi, J>
        # that the rho* formula reads
        spec = ROUTE_FRAMES[name]()
        n, zero, lc = spec.n, spec.zero(), levi_civita(spec)
        jstar_phi = tuple(sum((spec.phi[p] * spec.J[p][k] for p in range(n)), zero)
                          for k in range(n))
        nabla_jstar_phi = cov_deriv_oneform(lc, jstar_phi)
        nabla_j = cov_deriv_endo(lc, spec.J)
        delta_jstar_phi = -sum((nabla_jstar_phi[i][i] for i in range(n)), zero)
        delta_j = [-sum((nabla_j[i][l][i] for i in range(n)), zero) for l in range(n)]
        phi_delta_j = sum((spec.phi[l] * delta_j[l] for l in range(n)), zero)
        assert curvature_module._phi_on_j(spec) == delta_jstar_phi - phi_delta_j

    def test_zero_form_reduces_to_riemannian_tensors(self, kodairas):
        spec = kodairas[(1, 1)].with_phi((0, 0, 0, 0))
        rw = curvature(weyl(spec))
        rg = curvature(levi_civita(spec))
        assert _table(ricci(rw)) == _table(ricci(rg))
        assert _table(star_ricci(rw)) == _table(star_ricci(rg))
