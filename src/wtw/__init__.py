"""Exact symbolic tensor calculus for Weyl connections on homogeneous
Hermitian frames, with twistor-space pseudo-harmonicity checks.

The public surface re-exports the main entry points of each module; see the
README for the geometry conventions and the command line tool.

Importing ``wtw`` loads the scalar ring, the frame model, the connections and
the curvature.  The Hermitian, twistor and pseudo-harmonicity layers load on
first use: the names they export, and the submodules ``wtw.hermitian``,
``wtw.twistor`` and ``wtw.pseudoharmonic`` themselves, resolve through the
module ``__getattr__`` (PEP 562), so a command that needs none of them never
compiles them.  ``curvature`` stays eager: loading the ``wtw.curvature``
submodule binds that name on the package, and here it must name the function.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .polyalg import (ExponentOverflowError, PolynomialParseError, Ring, RingMismatchError,
                      Scalar, normalize_up_to_unit, normalized_system)
from .frame import (FrameError, FrameSpec, GateError, SpecFormatError, builtin, d_oneform,
                    load_spec, load_spec_file)
from .connection import (Connection, cov_deriv_endo, levi_civita, reconstruct_weyl_form,
                         traced_second_cov_deriv_endo, weyl)
from .curvature import (Curvature, curvature, identity_suite, phi_tensor,
                        ricci, ricci_formula_check, star_ricci)

__version__ = "0.1.0"

# the names each layer loaded on first use exports here
_LAZY_EXPORTS = {
    "hermitian": ("lck_check", "lee_form", "nabla_j_checks", "nijenhuis", "require_gate"),
    "twistor": ("VerticalBasis", "curvature_pairing_with_dj_check",
                "equivalence_check", "g_fiber", "h_trace", "vertical_checks",
                "fiber_pairing_check", "v_trace", "vertical_basis"),
    "pseudoharmonic": ("AssignmentVerdict", "ConditionReport", "condition_i", "condition_ii",
                       "conditions", "verify_assignment"),
}
# each lazy name, and each lazy submodule's own name, to that submodule
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)}

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + [name for names in _LAZY_EXPORTS.values() for name in names])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)
