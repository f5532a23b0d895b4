from __future__ import annotations

import pytest

from wtw import GateError
from oracles import fundamental_form
from wtw.frame import d_oneform
from wtw.hermitian import lck_check, lee_form, nabla_j_checks, nijenhuis, require_gate


class TestFundamentalForm:
    def test_inoue_pattern(self, inoue):
        omega = fundamental_form(inoue)
        assert str(omega[0][1]) == "1"
        assert str(omega[2][3]) == "1"
        assert all(omega[i][j].is_zero for i in range(4) for j in range(4)
                   if {i, j} not in ({0, 1}, {2, 3}))

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_pattern(self, kodairas, signs):
        e1, e2 = signs
        omega = fundamental_form(kodairas[signs])
        assert omega[0][1] == kodairas[signs].const(e1)
        assert omega[2][3] == kodairas[signs].const(e2)

    def test_j_invariance(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            omega = fundamental_form(spec)
            J = spec.J
            n = spec.n
            for i in range(n):
                for j in range(n):
                    pulled = sum((J[p][i] * J[q][j] * omega[p][q]
                                  for p in range(n) for q in range(n)), spec.zero())
                    assert (pulled - omega[i][j]).is_zero


class TestNijenhuis:
    def test_builtins_integrable(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            _, integrable = nijenhuis(spec)
            assert integrable

    def test_abelian_integrable(self, abelian):
        _, integrable = nijenhuis(abelian)
        assert integrable

    def test_swapped_j_not_integrable(self, nonintegrable):
        comps, integrable = nijenhuis(nonintegrable)
        assert not integrable
        assert any(not entry.is_zero for plane in comps for row in plane for entry in row)


class TestLeeForm:
    def test_inoue(self, inoue):
        lee = lee_form(inoue)
        assert [str(t) for t in lee] == ["0", "1", "0", "0"]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira(self, kodairas, signs):
        # theta = -2 e1 e2 alpha3: the unique 1-form with d(Omega) = theta ^ Omega
        e1, e2 = signs
        lee = lee_form(kodairas[signs])
        expected = ["0", "0", str(-2 * e1 * e2), "0"]
        assert [str(t) for t in lee] == expected

    def test_abelian_kaehler(self, abelian):
        lee = lee_form(abelian)
        assert all(t.is_zero for t in lee)

    def test_hyperbolic_like(self, hyperbolic_like):
        lee = lee_form(hyperbolic_like)
        assert [str(t) for t in lee] == ["0", "-2", "0", "0"]


class TestLckCheck:
    def test_inoue_and_kodaira_pass(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            report = lck_check(spec)
            assert report.ok, [c.name for c in report.failures]

    def test_abelian_kaehler_passes(self, abelian):
        assert lck_check(abelian).ok

    def test_heisenberg6_fails_lee_identity(self, heisenberg6):
        report = lck_check(heisenberg6)
        failed = {c.name for c in report.failures}
        assert failed == {"d(Omega) = theta ^ Omega"}

    def test_nonintegrable_fails_nijenhuis(self, nonintegrable):
        report = lck_check(nonintegrable)
        assert "Nijenhuis tensor vanishes" in {c.name for c in report.failures}


class TestGate:
    def test_gate_passes_on_builtins(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            require_gate(spec)

    def test_gate_names_integrability(self, nonintegrable):
        with pytest.raises(GateError) as err:
            require_gate(nonintegrable)
        assert err.value.assumption == "integrability assumption"

    def test_gate_names_lee_identity(self, heisenberg6):
        with pytest.raises(GateError) as err:
            require_gate(heisenberg6)
        assert err.value.assumption == "Lee identity assumption"


class TestNablaJ:
    @pytest.mark.parametrize("which", ["inoue", "k++", "k+-", "k-+", "k--", "hyp"])
    def test_all_residuals_vanish(self, which, inoue, kodairas, hyperbolic_like):
        table = {"inoue": inoue, "k++": kodairas[(1, 1)], "k+-": kodairas[(1, -1)],
                 "k-+": kodairas[(-1, 1)], "k--": kodairas[(-1, -1)],
                 "hyp": hyperbolic_like}
        report = nabla_j_checks(table[which])
        assert report.ok, [c.name for c in report.failures]

    def test_abelian_trivial(self, abelian):
        assert nabla_j_checks(abelian).ok

    def test_dtheta_zero_on_builtins(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            assert all(x.is_zero for row in d_oneform(spec, lee_form(spec)) for x in row)
