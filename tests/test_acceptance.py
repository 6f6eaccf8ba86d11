"""End-to-end acceptance checks.

Criteria 1-4 reproduce the recorded benchmark (mu=2, N=100, A=0, exact
line search): iteration counts, per-iterate distances, objective values,
and line-search parameters.  Criteria 5-10 are seeded property checks of
the numerical claims behind the solver: Hessian symmetry, consistency of
the multiplication-operator representation at the solution, gradient and
Taylor-remainder correctness, the quadratic convergence certificate, and
discretization order.  Criteria 5-8 and 10 assert the values that
`shapeopt verify` reports: each calls the measuring function of
`shapeopt.harness.properties` that the property suite calls, against the
suite's bound.  The last test pins the mesh independence of the
iteration counts from N = 100 to 6400.
"""

import time
from statistics import median

import numpy as np
import pytest

from shapeopt import (NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT, SolverConfig,
                      VolumeFunctional, optimize)
from shapeopt.harness import initial_shape, reference_ellipse
from shapeopt.harness.properties import (discretization_ratios,
                                         gradient_fd_error, hessian_asymmetry,
                                         multiplication_gaps, taylor_slopes)

F2 = VolumeFunctional.quadratic_mso(2.0)

# recorded benchmark: per-iterate distance of the Newton run
NEWTON_DISTANCES = (0.9222, 0.1382, 3.571e-3, 8.187e-6, 1.736e-10)


def timed_run(method):
    start = time.perf_counter()
    records = optimize(initial_shape(100), F2, SolverConfig(method=method))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def newton_run():
    return timed_run(NEWTON_MULTIPLICATIVE)


@pytest.fixture(scope="module")
def sd_run():
    return timed_run(STEEPEST_DESCENT)


def test_criterion_01_newton_reproduction(newton_run):
    """Newton reaches distance < 1e-7 in at most 5 iterations, matching
    the recorded per-iterate distances within 10 percent, in < 5 s."""
    records, elapsed = newton_run
    assert records[-1].distance < 1e-7
    assert len(records) - 1 <= 5
    assert len(records) == len(NEWTON_DISTANCES)
    for rec, ref in zip(records, NEWTON_DISTANCES):
        assert abs(rec.distance - ref) <= 0.10 * ref, rec.index
    assert elapsed < 5.0


def test_criterion_02_steepest_descent_reproduction(sd_run):
    """Steepest descent reaches distance < 1e-7 in 14-20 iterations with
    a late-phase contraction factor near 0.3, in < 10 s."""
    records, elapsed = sd_run
    assert records[-1].distance < 1e-7
    iterations = len(records) - 1
    assert 14 <= iterations <= 20
    contractions = [r.contraction_ratio for r in records
                    if r.contraction_ratio is not None]
    assert 0.25 <= median(contractions[-5:]) <= 0.40
    assert elapsed < 10.0


def test_criterion_03_objective_values():
    """f at the pinched start is -0.5571 and at the optimal ellipse
    -0.7854 (the analytic -pi/(2 mu)), both within 1e-3 at N=100."""
    assert abs(F2.evaluate(initial_shape(100)) + 0.5571) <= 1e-3
    f_hat = F2.evaluate(reference_ellipse(100, 2.0))
    assert abs(f_hat + 0.7854) <= 1e-3
    assert abs(f_hat + np.pi / 4.0) <= 1e-3


def test_criterion_04_line_search_parameters(sd_run, newton_run):
    """First-step alpha is 0.50 (steepest descent) and 0.63 (Newton)
    within 0.05; the Newton alpha is 1.00 within 0.02 by iteration 2."""
    sd_records, _ = sd_run
    newton_records, _ = newton_run
    assert abs(sd_records[0].step_scale - 0.50) <= 0.05
    assert abs(newton_records[0].step_scale - 0.63) <= 0.05
    assert abs(newton_records[1].step_scale - 1.00) <= 0.02 + 1e-12


def test_criterion_05_hessian_symmetry():
    """The covariant Hessian form is symmetric to relative 1e-12 over
    100 seeded field pairs on 10 random simple curves."""
    assert hessian_asymmetry(0) < 1e-12


def test_criterion_06_multiplication_operator_consistency():
    """At the discretized optimal ellipse the Hessian form reduces to the
    multiplication operator within 1e-6 relative over 50 seeded pairs,
    and the factor nu spans [2, 4] within 1e-3 for mu=2."""
    gap, nu_dev = multiplication_gaps(100)  # draws from default_rng(600)
    assert gap < 1e-6
    assert nu_dev <= 1e-3


def test_criterion_07_gradient_finite_difference():
    """Directional finite differences under retraction match the
    boundary-kernel pairing within 1e-2 relative at eps=1e-3, N=200,
    over 20 seeded trials."""
    assert gradient_fd_error(0) < 1e-2


def test_criterion_08_taylor_cubic_remainder():
    """The quadratic-model remainder decays cubically (log-log slope in
    [2.5, 3.5] over t = 0.04, 0.02, 0.01) for 10 seeded pairs of
    stationary shape and direction."""
    slopes = taylor_slopes(0)
    assert 2.5 <= min(slopes) and max(slopes) <= 3.5, slopes


def test_criterion_09_quadratic_order_certificate(newton_run):
    """The last three Newton distance ratios d_{k+1} / d_k^2 stay below
    the desk-scale constant 5."""
    records, _ = newton_run
    ratios = [r.quadratic_ratio for r in records if r.quadratic_ratio is not None]
    assert len(ratios) >= 3
    assert all(r <= 5.0 for r in ratios[-3:]), ratios


def test_criterion_10_discretization_order():
    """Curvature, perimeter, and objective errors all shrink by at least
    3.5x when N doubles from 100 to 200."""
    ratios = discretization_ratios()
    assert min(ratios) >= 3.5, ratios


@pytest.mark.parametrize("n", (100, 400, 1600, 6400))
def test_iteration_counts_are_mesh_independent(n):
    """The Riemannian prediction of the paper: the iteration count of both
    methods from the packaged start does not grow with the node count."""
    for method, iterations in ((STEEPEST_DESCENT, 14), (NEWTON_MULTIPLICATIVE, 4)):
        records = optimize(initial_shape(n), F2,
                           SolverConfig(method=method, stop_distance=1e-7))
        assert (len(records) - 1, records[-1].stop) == (iterations, "distance"), (n, method)
