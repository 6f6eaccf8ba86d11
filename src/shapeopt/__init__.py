"""Riemannian shape calculus and Newton-type optimization on discretized
closed planar curves.

Shapes are periodic node polygons (``DiscreteCurve``); perturbations are
scalar normal fields.  The package provides the curvature-weighted metric
family on normal fields, shape gradients and two shape Hessian forms for
volume-integrand objectives, steepest-descent and Newton-type descent
loops with exact line search, and a harness that reproduces the
steepest-descent versus Newton benchmark with CSV/JSON/SVG outputs.
"""

from . import errors
from .calculus import (HessianOperator, covariant_derivative,
                       hessian_at_solution, riemannian_hessian_form,
                       solve_hessian, standard_shape_hessian_form,
                       taylor_remainder_probe)
from .curve import (CurveGeometry, DiscreteCurve, check_simple, retract,
                    tangential_second_derivative)
from .functional import (VolumeFunctional, boundary_kernel, distance_bar,
                         distance_tilde, evaluate_general, evaluate_mso)
from .harness import (ExperimentSpec, initial_shape, reference_ellipse,
                      run_property_suite, run_table1)
from .metric import inner, norm, riesz_gradient
from .solver import (METHODS, NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                     STEEPEST_DESCENT, ExactLineSearch, FixedStep,
                     IterationRecord, SolverConfig, convergence_diagnostics,
                     line_search_exact, optimize, step_direction)

__version__ = "0.1.0"

__all__ = [
    "CurveGeometry",
    "DiscreteCurve",
    "ExactLineSearch",
    "ExperimentSpec",
    "FixedStep",
    "HessianOperator",
    "IterationRecord",
    "METHODS",
    "NEWTON_GENERAL_FORM",
    "NEWTON_MULTIPLICATIVE",
    "STEEPEST_DESCENT",
    "SolverConfig",
    "VolumeFunctional",
    "boundary_kernel",
    "check_simple",
    "convergence_diagnostics",
    "covariant_derivative",
    "distance_bar",
    "distance_tilde",
    "errors",
    "evaluate_general",
    "evaluate_mso",
    "hessian_at_solution",
    "initial_shape",
    "inner",
    "line_search_exact",
    "norm",
    "optimize",
    "reference_ellipse",
    "retract",
    "riemannian_hessian_form",
    "riesz_gradient",
    "run_property_suite",
    "run_table1",
    "solve_hessian",
    "standard_shape_hessian_form",
    "step_direction",
    "tangential_second_derivative",
    "taylor_remainder_probe",
    "__version__",
]
