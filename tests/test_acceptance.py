"""End-to-end acceptance checks.

Criteria 1-4 reproduce the recorded benchmark (mu=2, N=100, A=0, exact
line search): iteration counts, per-iterate distances, objective values,
and line-search parameters.  Criteria 5-10 are seeded property checks of
the numerical claims behind the solver: Hessian symmetry, consistency of
the multiplication-operator representation at the solution, gradient and
Taylor-remainder correctness, the quadratic convergence certificate, and
discretization order.  The last test pins the mesh independence of the
iteration counts from N = 100 to 6400.
"""

import time
from statistics import median

import numpy as np
import pytest

from shapeopt import (NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT, DiscreteCurve,
                      SolverConfig, VolumeFunctional, inner, norm, optimize,
                      retract, riemannian_hessian_form, taylor_remainder_probe)
from shapeopt.calculus import hessian_at_solution
from shapeopt.functional import boundary_kernel, evaluate_general, evaluate_mso
from shapeopt.harness import initial_shape, reference_ellipse
from shapeopt.harness.properties import (TAYLOR_MUS, TAYLOR_T,
                                         low_frequency_field,
                                         random_star_curve)

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
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        c = random_star_curve(100, rng)
        kernels = boundary_kernel(c, F2)
        for _ in range(10):
            alpha, beta = rng.standard_normal((2, 100))
            ab = riemannian_hessian_form(c, 1.0, kernels, alpha, beta)
            ba = riemannian_hessian_form(c, 1.0, kernels, beta, alpha)
            worst = max(worst, abs(ab - ba) / max(abs(ab), abs(ba), 1e-300))
    assert worst < 1e-12


def test_criterion_06_multiplication_operator_consistency():
    """At the discretized optimal ellipse the Hessian form reduces to the
    multiplication operator within 1e-6 relative over 50 seeded pairs,
    and the factor nu spans [2, 4] within 1e-3 for mu=2."""
    c = reference_ellipse(100, 2.0)
    kernels = boundary_kernel(c, F2)
    nu = hessian_at_solution(c, 2.0).d
    w = c.geometry.weights
    rng = np.random.default_rng(600)
    for _ in range(50):
        alpha, beta = rng.standard_normal((2, 100))
        form = riemannian_hessian_form(c, 0.0, kernels, alpha, beta)
        direct = float(np.sum(nu * alpha * beta * w))
        assert abs(form - direct) < 1e-6 * max(abs(form), abs(direct))
    assert abs(float(nu.min()) - 2.0) <= 1e-3
    assert abs(float(nu.max()) - 4.0) <= 1e-3


def test_criterion_07_gradient_finite_difference():
    """Directional finite differences under retraction match the
    boundary-kernel pairing within 1e-2 relative at eps=1e-3, N=200,
    over 20 seeded trials."""
    eps = 1e-3
    for t in range(20):
        rng = np.random.default_rng(200 + t)
        c = random_star_curve(200, rng)
        g, _ = boundary_kernel(c, F2)
        h = low_frequency_field(200, rng)
        pred = inner(c, 0.0, g, h)
        # skip directions nearly orthogonal to the kernel, where the
        # relative error measures cancellation rather than the gradient
        while abs(pred) < 0.1 * norm(c, 0.0, g) * norm(c, 0.0, h):
            h = low_frequency_field(200, rng)
            pred = inner(c, 0.0, g, h)
        fd = (evaluate_general(retract(c, h, eps), F2) - evaluate_general(c, F2)) / eps
        assert abs(fd - pred) < 1e-2 * abs(pred), t


def test_criterion_08_taylor_cubic_remainder():
    """The quadratic-model remainder decays cubically (log-log slope in
    [2.5, 3.5] over t = 0.04, 0.02, 0.01) for 10 seeded pairs of
    stationary shape and direction."""
    for i, mu in enumerate(TAYLOR_MUS):
        rng = np.random.default_rng(300 + i)
        c = reference_ellipse(600, mu)
        f = VolumeFunctional.quadratic_mso(mu)
        h = low_frequency_field(600, rng)
        h = h / norm(c, 0.0, h)
        probes = taylor_remainder_probe(f, c, 0.0, h, TAYLOR_T)
        ts, rems = map(np.array, zip(*probes))
        slope = float(np.polyfit(np.log(ts), np.log(rems), 1)[0])
        assert 2.5 <= slope <= 3.5, (mu, slope)


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
    err = {}
    for n in (100, 200):
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        c = DiscreteCurve(np.column_stack([np.cos(theta), np.sin(theta)]),
                          params=theta)
        geo = c.geometry
        ellipse = reference_ellipse(n, 2.0)
        err[n] = (
            float(np.max(np.abs(geo.curvature - 1.0))),
            abs(float(geo.weights.sum()) - 2.0 * np.pi),
            abs(evaluate_general(ellipse, F2) + np.pi / 4.0),
        )
    for e100, e200 in zip(err[100], err[200]):
        assert e100 / e200 >= 3.5


@pytest.mark.parametrize("n", (100, 400, 1600, 6400))
def test_iteration_counts_are_mesh_independent(n):
    """The Riemannian prediction of the paper: the iteration count of both
    methods from the packaged start does not grow with the node count."""
    for method, iterations in ((STEEPEST_DESCENT, 14), (NEWTON_MULTIPLICATIVE, 4)):
        records = optimize(initial_shape(n), F2,
                           SolverConfig(method=method, stop_distance=1e-7))
        assert (len(records) - 1, records[-1].stop) == (iterations, "distance"), (n, method)
