"""Exact and numerical tools for value distribution of entire curves.

Layered bottom-up: exact scalar towers (fields), homogeneous forms (hpoly),
exponential polynomials (expfunc), resultants and general position
(resultant), graded filtrations (filtration), truncation-level bounds
(bounds), then the analytic side: circle quadrature, zero location, and the
Nevanlinna functionals with the main-inequality harness (nevanlinna).

Importing the package loads only the exact layers, none of which imports
numpy.  The numeric names (those of expfunc, quadrature, zeros and
nevanlinna) load on first use: ``nevlab.EntireCurve`` imports nevanlinna
then, and each access returns that module's current attribute.
"""

from importlib import import_module

from .fields import (GaussRat, InputError, NumericalFailure, Obstruction, RatFunc, ZPoly,
                     zpoly_gcd)
from .hpoly import HPoly, monomials
from .resultant import (AdmissibilityReport, HypersurfaceFamily, NotAdmissibleError,
                        PowerCertificate, is_admissible, macaulay_resultant,
                        power_certificate, sylvester_resultant)
from .filtration import (FiltrationTable, PsiBasis, basis_is_independent,
                         build_filtration, construct_psi_basis,
                         filtration_tuples, quotient_dim, tuple_count)
from .bounds import (BoundReport, MarginViolation, a_lower_bound, bound_t,
                     compute_truncation_levels, verify_error_margin)
from .parsing import (ParseError, SchemaError, curve_from_json,
                      family_from_json, hpoly_from_json, load_json_file,
                      parse_ratfunc, parse_scalar, parse_zpoly)

__version__ = "0.1.0"

# numeric name -> the module that defines it, imported on first access
_NUMERIC = {name: module for module, names in (
    ("expfunc", ("ExpPoly", "wronskian")),
    ("quadrature", ("QuadResult", "circle_averages")),
    ("zeros", ("Divisor", "disk_winding", "exppoly_zeros", "ratfunc_divisors",
               "zpoly_zeros")),
    ("nevanlinna", ("AdmissibilityError", "DegeneracyError", "EntireCurve",
                    "NevanlinnaProfile", "SmtReport", "characteristic",
                    "counting_function", "defect_estimate",
                    "divisor_bound_check", "jensen_check",
                    "nondegeneracy_check", "smt_verify")),
) for name in names}


def __getattr__(name: str):
    # never stored here, so a patched or restored module attribute is what
    # every later access sees
    module = _NUMERIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_NUMERIC})


__all__ = [
    "InputError", "Obstruction", "NumericalFailure",
    "GaussRat", "RatFunc", "ZPoly", "zpoly_gcd",
    "HPoly", "monomials",
    "ExpPoly",
    "AdmissibilityReport", "HypersurfaceFamily", "NotAdmissibleError",
    "PowerCertificate", "is_admissible", "macaulay_resultant",
    "power_certificate", "sylvester_resultant",
    "FiltrationTable", "PsiBasis", "basis_is_independent", "build_filtration",
    "construct_psi_basis", "filtration_tuples", "quotient_dim", "tuple_count",
    "BoundReport", "MarginViolation", "a_lower_bound", "bound_t",
    "compute_truncation_levels", "verify_error_margin",
    "QuadResult", "circle_averages",
    "Divisor", "disk_winding", "exppoly_zeros", "ratfunc_divisors",
    "zpoly_zeros",
    "AdmissibilityError", "DegeneracyError", "EntireCurve",
    "NevanlinnaProfile", "SmtReport", "characteristic",
    "counting_function", "defect_estimate", "divisor_bound_check",
    "jensen_check", "nondegeneracy_check",
    "smt_verify", "wronskian",
    "ParseError", "SchemaError", "curve_from_json",
    "family_from_json", "hpoly_from_json", "load_json_file", "parse_ratfunc",
    "parse_scalar", "parse_zpoly",
    "__version__",
]
