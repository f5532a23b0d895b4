"""The builtin x verb command matrix covered by the golden-output tests, plus
two spec documents whose failing checks pin the failure-detail format and
the curvature tables of four sparse n = 6 frames."""

from __future__ import annotations

import pathlib

DATA = pathlib.Path(__file__).resolve().parent / "data"

VERBS = ["validate", "connection", "curvature", "ricci", "star-ricci", "lee",
         "lck", "conditions", "suite", "report"]

SPEC_SOURCES = {
    "inoue-s0": ["--builtin", "inoue-s0"],
    "kodaira_p1p1": ["--builtin", "kodaira", "--signs", "+1,+1"],
    "kodaira_p1m1": ["--builtin", "kodaira", "--signs", "+1,-1"],
    "kodaira_m1p1": ["--builtin", "kodaira", "--signs=-1,+1"],
    "kodaira_m1m1": ["--builtin", "kodaira", "--signs=-1,-1"],
}

VERIFY_ASSIGNMENTS = {
    "inoue-s0": "a1=0,a2=1,a3=0,a4=0",
    "kodaira_p1p1": "a1=0,a2=0",
    "kodaira_p1m1": "a1=0,a2=0",
    "kodaira_m1p1": "a1=0,a2=0",
    "kodaira_m1m1": "a1=0,a2=0",
}


def _build() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for spec_key, source in SPEC_SOURCES.items():
        for verb in VERBS:
            cases[f"{spec_key}__{verb}"] = [verb, *source]
        cases[f"{spec_key}__verify"] = [
            "verify", *source, "--assign", VERIFY_ASSIGNMENTS[spec_key]]
        # the n = 4 branch of the condition-(ii) map, which keeps three terms
        cases[f"{spec_key}__conditions-dim4"] = ["conditions", *source, "--dim4"]
    # failing checks, which print their detail lines
    cases["heisenberg6__lck"] = ["lck", "--spec", str(DATA / "heisenberg6.toml")]
    cases["nonintegrable__suite"] = ["suite", "--spec", str(DATA / "nonintegrable.toml")]
    # the sparse n = 6 curvature path, on the diagonal almost-abelian shape, the
    # complex Heisenberg frame, the Vaisman frame and the Inoue-type frame with
    # rotation blocks; conditions and suite wait on the vertical-trace
    # coefficient above dimension 4
    for frame in ("hyperbolic6", "heisenberg6", "vaisman6", "inoue_rotation6"):
        for verb in ("curvature", "ricci", "star-ricci"):
            cases[f"{frame}__{verb}"] = [verb, "--spec", str(DATA / f"{frame}.toml")]
    return cases


GOLDEN_CASES = _build()
