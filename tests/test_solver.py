"""Step directions, the exact line search, the descent loop, and the
late-phase rate diagnostics."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
from shapeopt import (NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      STEEPEST_DESCENT, ExactLineSearch, FixedStep,
                      IterationRecord, SolverConfig, VolumeFunctional,
                      convergence_diagnostics, line_search_exact, norm,
                      optimize, retract, riesz_gradient, step_direction)
from shapeopt.errors import InsufficientData, LineSearchFailed, ShapeOptError
from shapeopt.functional import boundary_kernel
from shapeopt.harness import initial_shape, reference_ellipse
from shapeopt.harness.properties import low_frequency_field

F2 = VolumeFunctional.quadratic_mso(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="conjugate-gradient")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(stop_distance=0.0)
    with pytest.raises(ValueError):
        ExactLineSearch(bracket_max=-1.0)
    with pytest.raises(ValueError):
        ExactLineSearch(tolerance=3.0)  # above bracket_max
    with pytest.raises(ValueError):
        ExactLineSearch(step_resolution=0.0)
    with pytest.raises(ValueError):
        FixedStep(0.0)


def test_steepest_direction_is_negative_gradient():
    c = initial_shape(100)
    cfg = SolverConfig(method=STEEPEST_DESCENT, A=0.5)
    g, _ = boundary_kernel(c, F2)
    npt.assert_array_equal(step_direction(c, F2, cfg),
                           -riesz_gradient(c, 0.5, g))


def test_steepest_direction_zero_at_optimum():
    # the unit circle is the mu=1 zero level set, so the kernel vanishes
    c = circle(100)
    f1 = VolumeFunctional.quadratic_mso(1.0)
    d = step_direction(c, f1, SolverConfig(method=STEEPEST_DESCENT))
    npt.assert_allclose(d, 0.0, atol=1e-14)


def test_newton_direction_on_inflated_circle():
    # psi = r^2 - 1 and nu = 2r pointwise: direction -(1.44-1)/2.4
    c = circle(100, 1.2)
    f1 = VolumeFunctional.quadratic_mso(1.0)
    d = step_direction(c, f1, SolverConfig(method=NEWTON_MULTIPLICATIVE))
    npt.assert_allclose(d, -0.44 / 2.4, atol=1e-3)


def test_all_directions_vanish_at_solution():
    c = reference_ellipse(100, 2.0)
    for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE, NEWTON_GENERAL_FORM):
        d = step_direction(c, F2, SolverConfig(method=method))
        assert norm(c, 0.0, d) < 1e-6, method


def test_line_search_benchmark_first_steps():
    c0 = initial_shape(100)
    sd = step_direction(c0, F2, SolverConfig(method=STEEPEST_DESCENT))
    assert abs(line_search_exact(c0, F2, sd) - 0.50) <= 0.05
    nm = step_direction(c0, F2, SolverConfig(method=NEWTON_MULTIPLICATIVE))
    assert abs(line_search_exact(c0, F2, nm) - 0.63) <= 0.05


def test_line_search_rejects_ascent_direction():
    c0 = initial_shape(100)
    g, _ = boundary_kernel(c0, F2)
    with pytest.raises(LineSearchFailed):
        line_search_exact(c0, F2, riesz_gradient(c0, 0.0, g))
    with pytest.raises(LineSearchFailed):
        line_search_exact(c0, F2, np.zeros(100))


def test_optimize_monotone_descent_and_record_shape():
    records = optimize(initial_shape(100), F2, SolverConfig(method=STEEPEST_DESCENT))
    assert [r.index for r in records] == list(range(len(records)))
    objectives = [r.objective for r in records]
    assert all(b < a for a, b in zip(objectives, objectives[1:]))
    assert records[-1].distance < 1e-7
    assert records[-1].step_scale is None and records[-1].step_norm is None
    for prev, nxt in zip(records[:-2], records[1:-1]):
        assert abs(prev.contraction_ratio - nxt.step_norm / prev.step_norm) < 1e-15
        assert abs(prev.quadratic_ratio - nxt.distance / prev.distance ** 2) < 1e-12


def test_optimize_stationary_start_stops_immediately():
    records = optimize(reference_ellipse(100, 2.0), F2,
                       SolverConfig(method=NEWTON_MULTIPLICATIVE))
    assert len(records) == 1
    assert records[0].distance < 1e-7


def test_optimize_respects_iteration_cap():
    records = optimize(initial_shape(100), F2,
                       SolverConfig(method=STEEPEST_DESCENT, max_iterations=3))
    assert len(records) == 4


def test_optimize_fixed_step():
    cfg = SolverConfig(method=STEEPEST_DESCENT, max_iterations=5,
                       line_search=FixedStep(0.1))
    records = optimize(initial_shape(100), F2, cfg)
    assert len(records) == 6
    assert all(r.step_scale == 0.1 for r in records[:-1])
    assert records[-1].objective < records[0].objective


def test_optimize_unit_step_newton():
    # pure Newton iteration (no line search) from a nearby circle
    f1 = VolumeFunctional.quadratic_mso(1.0)
    cfg = SolverConfig(method=NEWTON_MULTIPLICATIVE, line_search=None)
    records = optimize(circle(100, 1.2), f1, cfg)
    assert records[-1].distance < 1e-7
    assert len(records) <= 6


def test_optimize_with_reference_curve():
    # non-quadratic path: area functional shrinks any curve, monitored
    # against a reference through the normal-offset distance
    area = VolumeFunctional.custom(lambda pts: np.ones(len(pts)),
                                   lambda pts: np.zeros_like(pts))
    cfg = SolverConfig(method=STEEPEST_DESCENT, max_iterations=2,
                       line_search=FixedStep(0.05))
    records = optimize(circle(100), area, cfg, reference=circle(100))
    assert records[0].distance == 0.0
    assert len(records) == 1  # starts on the reference, stops at once


def test_optimize_general_form_newton_from_warm_starts():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.02, 0.1) * low_frequency_field(100, rng)
        records = optimize(retract(reference_ellipse(100, 2.0), h), F2,
                           SolverConfig(method=NEWTON_GENERAL_FORM))
        assert records[-1].distance < 1e-7, seed
        assert len(records) - 1 <= 5, seed


def test_optimize_survives_monitoring_failure():
    # the pinched start is too far from the ellipse for its normal lines
    # to represent it, so row 0 goes unmonitored and the solve carries on
    f = VolumeFunctional.custom(lambda p: p[..., 0] ** 2 + 4.0 * p[..., 1] ** 2 - 1.0,
                                lambda p: np.stack([2.0 * p[..., 0], 8.0 * p[..., 1]], axis=-1))
    for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE):
        records = optimize(initial_shape(100), f,
                           SolverConfig(method=method, max_iterations=3),
                           reference=reference_ellipse(100, 2.0))
        assert len(records) == 4, method
        assert records[0].distance is None, method
        assert all(r.distance > 0.0 for r in records[1:]), method
        assert records[0].quadratic_ratio is None, method


def test_optimize_attaches_partial_records_on_failure():
    cfg = SolverConfig(method=STEEPEST_DESCENT, line_search=FixedStep(50.0))
    with pytest.raises(ShapeOptError) as info:
        optimize(initial_shape(100), F2, cfg)
    assert len(info.value.records) >= 1
    assert info.value.records[0].objective == pytest.approx(F2.evaluate(initial_shape(100)))


def test_diagnostics_require_three_records():
    with pytest.raises(InsufficientData):
        convergence_diagnostics([])


def test_diagnostics_on_synthetic_geometric_run():
    nodes = circle(8).nodes
    records = []
    for k in range(8):
        records.append(IterationRecord(index=k, objective=-1.0 + 0.3 ** k,
                                       nodes=nodes, distance=0.3 ** k,
                                       step_norm=0.3 ** k))
    for prev, nxt in zip(records, records[1:]):
        prev.contraction_ratio = nxt.step_norm / prev.step_norm
        prev.quadratic_ratio = nxt.distance / prev.distance ** 2
    out = convergence_diagnostics(records)
    assert abs(out["geometric_factor"] - 0.3) < 1e-12
    assert out["iterations"] == 7
    assert out["final_distance"] == 0.3 ** 7


def test_diagnostics_of_real_runs():
    sd = convergence_diagnostics(optimize(initial_shape(100), F2,
                                          SolverConfig(method=STEEPEST_DESCENT)))
    assert 0.25 <= sd["geometric_factor"] <= 0.40
    nm = convergence_diagnostics(optimize(initial_shape(100), F2,
                                          SolverConfig(method=NEWTON_MULTIPLICATIVE)))
    assert nm["iterations"] <= 5
    assert nm["quadratic_coefficient"] <= 5.0
