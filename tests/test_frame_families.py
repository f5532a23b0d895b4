"""The family documents under tests/data are the output of
tests/frame_families.py, and every member of the three families loads and
passes the gate at each even dimension."""

from __future__ import annotations

import pytest

import frame_families
from wtw import builtin, load_spec
from wtw.hermitian import lee_form, require_gate


@pytest.mark.parametrize("name", sorted(frame_families.COMMITTED))
def test_committed_document_equals_the_generator_output(name):
    text = (frame_families.DATA / name).read_text(encoding="utf-8")
    assert text == frame_families.COMMITTED[name]


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_every_family_member_passes_the_gate(n):
    rotations = tuple(range(1, n // 2))
    for text in (frame_families.hyperbolic(n), frame_families.vaisman(n),
                 frame_families.inoue(rotations)):
        spec = load_spec(text)
        assert spec.n == n
        require_gate(spec)
    vaisman = load_spec(frame_families.vaisman(n))
    theta = lee_form(vaisman)
    assert [str(x) for x in theta] == ["0"] * (n - 2) + ["-2", "0"]


def test_largest_members_pass_the_gate():
    for text in frame_families.LARGEST.values():
        spec = load_spec(text)
        assert spec.n == 16
        require_gate(spec)


def test_dense_j_documents_are_the_rotated_frames():
    """The dense-J documents are inoue-s0 and hyperbolic6 in the rotated basis
    the library tests build in process, and J has no zero off the diagonal."""
    from test_frame import _rotated

    bases = {"inoue_s0_rotated.toml": builtin("inoue-s0"),
             "hyperbolic6_rotated.toml": load_spec(frame_families.hyperbolic(6))}
    assert set(bases) == set(frame_families.DENSE_J)
    for name, base in bases.items():
        spec = load_spec(frame_families.DENSE_J[name], name=name)
        rotated = _rotated(base, name)
        assert (spec.c, spec.J, spec.phi) == (rotated.c, rotated.J, rotated.phi)
        assert all(spec.J[i][j] for i in range(spec.n) for j in range(spec.n) if i != j)
