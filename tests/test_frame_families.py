"""The family documents under tests/data are the output of
tests/frame_families.py, and every member of the three families loads and
passes the gate at each even dimension."""

from __future__ import annotations

import pytest

import frame_families
from wtw import load_spec
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
    theta = lee_form(vaisman).theta
    assert [str(x) for x in theta] == ["0"] * (n - 2) + ["-2", "0"]


def test_largest_members_pass_the_gate():
    for text in frame_families.LARGEST.values():
        spec = load_spec(text)
        assert spec.n == 16
        require_gate(spec)
