from __future__ import annotations

import pytest

from wtw import FrameSpec, builtin

ACCEPTANCE_LOG: list[tuple[str, bool]] = []

SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


@pytest.fixture(scope="session")
def inoue() -> FrameSpec:
    return builtin("inoue-s0")


@pytest.fixture(scope="session")
def inoue_reduced(inoue) -> FrameSpec:
    # the Weyl form left after condition (i) forces a3 = a4 = 0
    return inoue.with_phi([p.substitute({"a3": 0, "a4": 0}) for p in inoue.phi])


@pytest.fixture(scope="session")
def kodairas() -> dict[tuple[int, int], FrameSpec]:
    return {signs: builtin("kodaira", signs) for signs in SIGN_PAIRS}


@pytest.fixture(scope="session")
def abelian() -> FrameSpec:
    return FrameSpec.create(
        dimension=4, symbols=("a1", "a2", "a3", "a4"), brackets={},
        J=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        phi=(0, 0, 0, 0), name="flat-torus")


@pytest.fixture(scope="session")
def hyperbolic_like() -> FrameSpec:
    # solvable frame with [X, E2] = -X on span(E1, E3, E4); lcK with theta = -2 eta2,
    # and the only fixture whose delta(J*phi) is nonzero
    return FrameSpec.create(
        dimension=4, symbols=("a1", "a2", "a3", "a4"),
        brackets={(0, 1): {0: -1}, (2, 1): {2: -1}, (3, 1): {3: -1}},
        J=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        phi=("a1", "a2", "a3", "a4"), name="hyperbolic-like")


@pytest.fixture(scope="session")
def nonintegrable() -> FrameSpec:
    # the inoue-s0 algebra with the plane-swapping J: orthogonal, J^2 = -I,
    # but the Nijenhuis tensor does not vanish
    return FrameSpec.create(
        dimension=4, symbols=("a1", "a2", "a3", "a4"),
        brackets={(0, 1): {0: -1}, (1, 2): {2: "-1/2"}, (1, 3): {3: "-1/2"}},
        J=[[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
        phi=("a1", "a2", "a3", "a4"), name="nonintegrable")


@pytest.fixture(scope="session")
def heisenberg6() -> FrameSpec:
    # complex-Heisenberg frame, n = 6: integrable J but d(Omega) != theta ^ Omega
    return FrameSpec.create(
        dimension=6, symbols=(),
        brackets={(0, 2): {4: 1}, (1, 3): {4: -1}, (0, 3): {5: 1}, (1, 2): {5: 1}},
        J=[[0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
           [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]],
        phi=(0, 0, 0, 0, 0, 0), name="heisenberg-6")


def record_acceptance(name: str, ok: bool) -> None:
    ACCEPTANCE_LOG.append((name, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in ACCEPTANCE_LOG:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
