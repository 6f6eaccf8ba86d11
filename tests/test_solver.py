"""Step directions, the exact line search, the descent loop, and the
late-phase rate diagnostics."""

import weakref

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
import shapeopt.calculus as calculus
import shapeopt.curve as curve
import shapeopt.metric as metric
import shapeopt.solver as solver
from shapeopt import (METHODS, NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      STEEPEST_DESCENT, DiscreteCurve, ExactLineSearch,
                      ExperimentSpec, HessianOperator,
                      FixedStep, IterationRecord, SolverConfig,
                      VolumeFunctional, convergence_diagnostics,
                      hessian_at_solution, line_search_exact, norm,
                      optimize, retract, riesz_gradient, step_direction)
from shapeopt.curve import as_field
from shapeopt.errors import (InsufficientData, LineSearchFailed, NotStarShaped,
                             ShapeOptError)
from shapeopt.functional import boundary_kernel
from shapeopt.harness import experiment, initial_shape, reference_ellipse
from shapeopt.harness.experiment import solve_and_write
from shapeopt.harness.properties import low_frequency_field, random_star_curve
from shapeopt.solver import GOLDEN, _decrease_function

F2 = VolumeFunctional.quadratic_mso(2.0)
# psi = x^2 + 4y^2 - 1, the quadratic family's mu=2 ellipse through the
# generic (fan quadrature) path
ELLIPSE_PSI = VolumeFunctional.custom(
    lambda p: p[..., 0] ** 2 + 4.0 * p[..., 1] ** 2 - 1.0,
    lambda p: np.stack([2.0 * p[..., 0], 8.0 * p[..., 1]], axis=-1))

# step_scale of every step of the N=100 Table-1 runs
TABLE1_STEP_SCALES = {
    STEEPEST_DESCENT: [0.5, 0.32, 0.36, 0.33, 0.34, 0.34, 0.33, 0.34, 0.33,
                       0.34, 0.33, 0.35000000000000003, 0.32,
                       0.35000000000000003, 0.32, 0.35000000000000003],
    NEWTON_MULTIPLICATIVE: [0.63, 0.98, 1.0, 1.0],
}


def _warm_starts(n, count):
    """The optimal mu=2 ellipse retracted by seeded low-frequency fields."""
    starts = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.02, 0.1) * low_frequency_field(n, rng)
        starts.append(retract(reference_ellipse(n, 2.0), h))
    return starts


def _table1_run(method):
    return optimize(initial_shape(100), F2,
                    SolverConfig(method=method,
                                 stop_distance=ExperimentSpec().stop_distance))


def _line_search_exact_oracle(c, f, direction, bracket_max=2.0, tolerance=1e-10,
                              step_resolution=0.01):
    """line_search_exact without the early stop: golden section always
    runs to the tolerance before the snap."""
    direction = as_field(c, direction, "direction")
    if not np.any(direction):
        raise LineSearchFailed("zero direction")
    phi = _decrease_function(c, f, direction)

    t0, f0 = 1e-3, phi(1e-3)
    while f0 >= 0.0 and t0 > tolerance:
        t0 *= 0.5
        f0 = phi(t0)
    if f0 >= 0.0 or not np.isfinite(f0):
        raise LineSearchFailed(
            f"no decrease along the direction for any t >= {tolerance:g}")

    lo, a, fa = 0.0, t0, f0
    b = min(2.0 * t0, bracket_max)
    fb = phi(b)
    while fb < fa and b < bracket_max:
        lo, a, fa = a, b, fb
        b = min(2.0 * b, bracket_max)
        fb = phi(b)
    hi = b

    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    while hi - lo > tolerance:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = phi(x2)
    t_star = 0.5 * (lo + hi)
    if phi(t_star) >= 0.0:
        raise LineSearchFailed("bracket collapsed without decrease")

    if step_resolution:
        t_snap = round(t_star / step_resolution) * step_resolution
        if 0.0 < t_snap <= bracket_max and phi(t_snap) < 0.0:
            return float(t_snap)
    return float(t_star)


def _outcome(search, *args, **kwargs):
    """The returned step as exact hex, or the raised error's type and message."""
    try:
        return search(*args, **kwargs).hex()
    except ShapeOptError as exc:
        return type(exc).__name__, str(exc)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="conjugate-gradient")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(stop_distance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(A=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(A=np.nan)
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


def test_multiplicative_newton_operator_is_hessian_at_solution():
    # for the quadratic family dpsi_dn = 2 x n1 + 2 mu^2 y n2 equals
    # hessian_at_solution's 2 (x n1 + mu^2 y n2) bit for bit
    curves = [r.nodes for method in TABLE1_STEP_SCALES for r in _table1_run(method)]
    for n in (100, 400):
        rng = np.random.default_rng(n)
        curves += [initial_shape(n).nodes, random_star_curve(n, rng).nodes]
        curves += [c.nodes for c in _warm_starts(n, 2)]
    for mu in (1.0, 1.3, 2.0, 3.0):
        f = VolumeFunctional.quadratic_mso(mu)
        for nodes in curves:
            c = DiscreteCurve(nodes, require_simple=False)
            _, dpsi_dn = boundary_kernel(c, f)
            npt.assert_array_equal(HessianOperator.multiplication(c, dpsi_dn).d,
                                   hessian_at_solution(c, mu).d)


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



def test_line_search_matches_full_search_oracle():
    for n in (100, 400):
        for c in [initial_shape(n)] + _warm_starts(n, 8):
            for A in (0.0, 0.5):
                for method in METHODS:
                    d = step_direction(c, F2, SolverConfig(method=method, A=A))
                    for res in (0.01, None):
                        expected = _outcome(_line_search_exact_oracle, c, F2, d,
                                            step_resolution=res)
                        got = _outcome(line_search_exact, c, F2, d, step_resolution=res)
                        assert got == expected, (n, A, method, res)


def test_line_search_matches_oracle_on_custom_functional():
    for c in [initial_shape(100)] + _warm_starts(100, 1):
        for A in (0.0, 0.5):
            for method in METHODS:
                d = step_direction(c, ELLIPSE_PSI, SolverConfig(method=method, A=A))
                assert (_outcome(line_search_exact, c, ELLIPSE_PSI, d)
                        == _outcome(_line_search_exact_oracle, c, ELLIPSE_PSI, d)), (A, method)


def test_line_search_rejected_snap_runs_to_tolerance():
    # the minimizer lies below 0.005, so the bracket decides the snap to 0,
    # which is rejected; the search then runs on to the tolerance
    c0 = initial_shape(100)
    d = 1000.0 * step_direction(c0, F2, SolverConfig(method=STEEPEST_DESCENT))
    t = line_search_exact(c0, F2, d)
    assert 0.0 < t < 0.005
    assert t.hex() == _line_search_exact_oracle(c0, F2, d).hex()


def test_line_search_rejected_grid_step_returns_bracket_midpoint(monkeypatch):
    # every probe past t = 0.0152 is inadmissible (+inf), so the decided
    # snap 0.02 of the minimizer 0.0151 is rejected and golden section goes on
    def cliff(c, f, direction):
        return lambda t: (t - 0.0151) ** 2 - 0.0151 ** 2 if t <= 0.0152 else np.inf

    monkeypatch.setattr(solver, "_decrease_function", cliff)
    t = line_search_exact(initial_shape(100), F2, np.ones(100))
    assert abs(t - 0.0151) < 1e-8


def _unimodal_phi(rng, m, kind):
    """phi(t) = g(t) - g(0) for g falling as a_l (m - t)^p up to m and
    rising as a_r (t - m)^p after it: p = 2 with independent a_l, a_r for
    "asymmetric", p = 4 or 8 with a_l = a_r for "flat4" and "flat8"
    (their computed values tie over a bottom about 1e-4*m and 1e-2*m
    wide), and "cliff" as "asymmetric" but +inf beyond m + 1e-6 ...
    m + 0.05.  The powers are products of correctly rounded operations,
    so the computed phi is unimodal too."""
    p = {"flat4": 4, "flat8": 8}.get(kind, 2)
    a_l, a_r = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    if p > 2:
        a_r = a_l

    def g(d):
        for _ in range(p.bit_length() - 1):
            d = d * d
        return d

    cliff = m + rng.uniform(1e-6, 0.05) if kind == "cliff" else np.inf
    g0 = a_l * g(m)

    def phi(t):
        if t > cliff:
            return np.inf
        return (a_l * g(m - t) if t < m else a_r * g(t - m)) - g0
    return phi


def test_line_search_matches_oracle_on_unimodal_functions(monkeypatch):
    # the parabolic search must return the full search's float whenever
    # phi is unimodal, and decide most of these searches by itself
    rng = np.random.default_rng(41)
    res = 0.01
    minimizers = (list(rng.uniform(0.005, 2.0, 250))
                  + [(k + 0.5) * res + rng.uniform(-1e-12, 1e-12)
                     for k in rng.integers(0, 200, 40)]
                  + [k * res for k in rng.integers(1, 201, 40)]
                  + list(rng.uniform(1e-4, 0.005, 20))
                  + list(rng.uniform(2.0, 5.0, 20)))
    cases = [(m, _unimodal_phi(rng, m, kind))
             for m in minimizers for kind in ("asymmetric", "flat4", "cliff")]
    cases += [(m, _unimodal_phi(rng, m, "flat8")) for m in rng.uniform(0.005, 2.0, 40)]
    # the decided snap 0.02 of the minimizer 0.0151 lies beyond the cliff
    cases.append((0.0151, lambda t: (t - 0.0151) ** 2 - 0.0151 ** 2 if t <= 0.0152 else np.inf))
    current = None
    monkeypatch.setattr(solver, "_decrease_function", lambda c, f, d: current)
    monkeypatch.setitem(globals(), "_decrease_function", lambda c, f, d: current)
    decided = []
    snap = solver._snap_by_parabolas
    monkeypatch.setattr(solver, "_snap_by_parabolas",
                        lambda *args: decided.append(snap(*args)) or decided[-1])
    c, d = circle(64), np.ones(64)
    # a coarse tolerance lets golden section stop a cell away from the
    # minimizer, which the parabolic search must then leave undecided
    for tolerance in (1e-3, 1e-10):
        decided.clear()
        for m, current in cases:
            assert (_outcome(line_search_exact, c, ELLIPSE_PSI, d, tolerance=tolerance)
                    == _outcome(_line_search_exact_oracle, c, ELLIPSE_PSI, d,
                                tolerance=tolerance)), (m, tolerance)
    assert sum(t is not None for t in decided) > 0.5 * len(cases)


def test_line_search_star_guard_hands_over(monkeypatch):
    # from the packaged start at mu=3, A=0.5 the parabolas decide 0.31,
    # where the moved polygon is not certified star-shaped; the search
    # hands over and returns the full search's float
    f3 = VolumeFunctional.quadratic_mso(3.0)
    c0 = initial_shape(100)
    d = step_direction(c0, f3, SolverConfig(method=STEEPEST_DESCENT, A=0.5))
    guarded = []
    candidate = solver._retraction_candidate

    def guard(c, field, t):
        moved = candidate(c, field, t)
        guarded.append((t, moved.star_certified))
        return moved

    monkeypatch.setattr(solver, "_retraction_candidate", guard)
    assert (_outcome(line_search_exact, c0, f3, d)
            == _outcome(_line_search_exact_oracle, c0, f3, d))
    assert guarded == [(0.31, False)]


def test_retract_admits_the_line_search_candidate():
    # the polygon that the star check built at the returned step, kept on
    # the checked direction, is the iterate, with the nodes, angle steps,
    # star flag and chords of a retract from scratch, bit for bit
    taken = 0
    for n in (100, 400):
        for c in [initial_shape(n)] + _warm_starts(n, 4):
            for method in METHODS:
                d = step_direction(c, F2, SolverConfig(method=method))
                checked = curve._CheckedField(c, d, "direction")
                try:
                    t = line_search_exact(c, F2, checked)
                except LineSearchFailed:
                    continue
                kept = checked._candidate
                try:
                    moved = retract(c, checked, t)
                except ShapeOptError:
                    assert checked._candidate is None
                    continue
                assert checked._candidate is None
                if kept is None or kept[1] != t:
                    continue
                assert kept[0] is c and moved is kept[2]
                taken += 1
                fresh = retract(c, d, t)
                assert fresh is not moved
                for name in ("nodes", "angle_steps", "chords"):
                    assert np.array_equal(getattr(moved, name).view(np.int64),
                                          getattr(fresh, name).view(np.int64)), name
                assert moved.star_certified is fresh.star_certified
    assert taken >= 20


def test_line_search_decides_a_step_at_bracket_max(monkeypatch):
    # with the steepest-descent direction scaled by 0.1 the minimizer lies
    # beyond bracket_max; one probe at the left edge of its grid cell
    # decides the step there, as golden section does in about 27 probes
    probes = 0
    original = solver.mso_step_objective

    def counted(*args):
        phi = original(*args)

        def probe(t):
            nonlocal probes
            probes += 1
            return phi(t)
        return probe

    c = initial_shape(400)
    for _ in range(5):
        d = 0.1 * step_direction(c, F2, SolverConfig(method=STEEPEST_DESCENT))
        probes = 0
        with monkeypatch.context() as m:
            m.setattr(solver, "mso_step_objective", counted)
            t = line_search_exact(c, F2, d)
        assert probes <= 10
        assert t == 2.0
        assert t.hex() == _line_search_exact_oracle(c, F2, d).hex()
        c = retract(c, d, t)


def test_line_search_probe_count(monkeypatch):
    # a deterministic count: the parabolic search averages 6.9 probes per
    # search on these runs, golden section with its early stop 24.05 and
    # without it 61.05
    probes = 0
    original = solver.mso_step_objective

    def counted(*args):
        phi = original(*args)

        def probe(t):
            nonlocal probes
            probes += 1
            return phi(t)
        return probe

    monkeypatch.setattr(solver, "mso_step_objective", counted)
    searches = sum(len(_table1_run(method)) - 1 for method in TABLE1_STEP_SCALES)
    assert probes / searches <= 10


def test_table1_step_scales_are_pinned():
    for method, expected in TABLE1_STEP_SCALES.items():
        assert [r.step_scale for r in _table1_run(method)[:-1]] == expected, method

def test_optimize_monotone_descent_and_record_shape():
    records = optimize(initial_shape(100), F2, SolverConfig(method=STEEPEST_DESCENT))
    assert [r.index for r in records] == list(range(len(records)))
    objectives = [r.objective for r in records]
    assert all(b < a for a, b in zip(objectives, objectives[1:]))
    assert records[-1].distance < 1e-7
    assert records[-1].step_scale is None and records[-1].step_norm is None
    assert records[-1].stop == "distance"
    assert all(r.stop is None for r in records[:-1])
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
    assert records[-1].stop == "max_iterations"


def test_optimize_stops_on_step_without_distance():
    area = VolumeFunctional.custom(lambda pts: np.ones(len(pts)),
                                   lambda pts: np.zeros_like(pts))
    cfg = SolverConfig(method=STEEPEST_DESCENT, line_search=FixedStep(1e-9))
    records = optimize(circle(100), area, cfg)
    assert records[0].step_norm < cfg.stop_distance
    assert [r.stop for r in records] == [None, "step"]


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
    cfg = SolverConfig(method=NEWTON_MULTIPLICATIVE, line_search=FixedStep())
    records = optimize(circle(100, 1.2), f1, cfg)
    assert records[-1].distance < 1e-7
    assert len(records) <= 6


def test_multiplicative_newton_iterates_do_not_depend_on_the_metric():
    # the step -g/nu holds no metric; step_norm is measured in the A-metric
    # (and contraction_ratio with it), so those two are left out
    fields = ("nodes", "objective", "distance", "step_scale", "stop")
    starts = [initial_shape(100)] + _warm_starts(100, 8)
    for i, c0 in enumerate(starts):
        runs = {A: optimize(c0, F2, SolverConfig(method=NEWTON_MULTIPLICATIVE, A=A))
                for A in (0.0, 0.5, 1.0)}
        for A in (0.5, 1.0):
            assert len(runs[A]) == len(runs[0.0]), (i, A)
            for rec, ref in zip(runs[A], runs[0.0]):
                for name in fields:
                    npt.assert_array_equal(getattr(rec, name), getattr(ref, name),
                                           err_msg=f"start {i}, A={A}, {name}")
            if i == 0:
                assert runs[A][-1].stop == "distance" and len(runs[A]) - 1 == 4, A


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
    for seed, c0 in enumerate(_warm_starts(100, 6)):
        records = optimize(c0, F2, SolverConfig(method=NEWTON_GENERAL_FORM))
        assert records[-1].distance < 1e-7, seed
        assert len(records) - 1 <= 5, seed


def test_optimize_survives_monitoring_failure():
    # the pinched start is too far from the ellipse for its normal lines
    # to represent it, so row 0 goes unmonitored and the solve carries on
    for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE):
        records = optimize(initial_shape(100), ELLIPSE_PSI,
                           SolverConfig(method=method, max_iterations=3),
                           reference=reference_ellipse(100, 2.0))
        assert len(records) == 4, method
        assert records[0].distance is None, method
        assert all(r.distance > 0.0 for r in records[1:]), method
        assert records[0].quadratic_ratio is None, method


def test_optimize_returns_partial_records_on_failure():
    c0 = initial_shape(100)
    cfg = SolverConfig(method=STEEPEST_DESCENT, line_search=FixedStep(50.0))
    records = optimize(c0, F2, cfg)  # the step of row 0 cannot be retracted
    assert len(records) == 1
    assert records[0].objective == pytest.approx(F2.evaluate(c0))
    assert records[0].step_scale == 50.0
    assert records[0].stop.startswith("ShapeDegenerate: ")
    # an inadmissible start is an error of the input, not a stop
    with pytest.raises(NotStarShaped):
        optimize(DiscreteCurve(circle(100).nodes + 5.0), F2, cfg)


def test_optimize_stops_on_an_invalid_direction(monkeypatch):
    # the direction is checked where optimize receives it, under either
    # step rule, and the stop names it
    for bad, message in ((np.nan, "contains non-finite values"),
                         (np.inf, "contains non-finite values"),
                         (None, "expected 100 values, got shape (99,)")):
        def direction(c, f, config):
            d = np.ones(c.n_nodes)
            if bad is None:
                return d[1:]
            d[3] = bad
            return d

        monkeypatch.setattr(solver, "step_direction", direction)
        for rule in (ExactLineSearch(), FixedStep(0.1)):
            records = optimize(initial_shape(100), F2, SolverConfig(line_search=rule))
            assert len(records) == 1
            assert records[0].step_scale is None
            assert records[0].stop == f"DimensionMismatch: direction: {message}", rule


def test_optimize_checks_each_direction_once(monkeypatch):
    # the line search, the step norm and retract take the direction that
    # optimize checked without checking it again, and each step direction
    # checks the kernel's psi (as psi or g) and its normal derivative (as
    # dpsi_dn or nu) once
    checked, directions = [], []
    original, original_direction = curve.as_field, solver.step_direction

    def spy(c, values, name="field"):
        if not isinstance(values, curve._CheckedField):
            checked.append(name)
        return original(c, values, name)

    def direction(*args):
        directions.append(original_direction(*args))
        return directions[-1]

    for module in (curve, metric, calculus):
        monkeypatch.setattr(module, "as_field", spy)
    monkeypatch.setattr(solver, "step_direction", direction)
    for f in (F2, ELLIPSE_PSI):
        for method in METHODS:
            for rule in (ExactLineSearch(), FixedStep(0.1)):
                checked.clear()
                directions.clear()
                records = optimize(initial_shape(100), f,
                                   SolverConfig(method=method, max_iterations=3,
                                                line_search=rule))
                case = (f, method, rule)
                assert any(r.step_scale is not None for r in records), case
                assert checked.count("direction") == len(directions), case
                assert not {"alpha", "beta", "h"} & set(checked), case
                assert checked.count("psi") + checked.count("g") == len(directions), case
                normal = 0 if method == STEEPEST_DESCENT else len(directions)
                assert checked.count("dpsi_dn") + checked.count("nu") == normal, case


def test_optimize_frees_each_iterate_after_its_step(monkeypatch):
    # the candidate that the line search leaves on the step's direction
    # holds the iterate it was built from until retract drops it: by the
    # next step direction no earlier iterate but the caller's start lives
    seen, alive = [], []
    original = solver.step_direction

    def direction(c, *args):
        alive.append([ref() is not None for ref in seen[1:]])
        seen.append(weakref.ref(c))
        return original(c, *args)

    monkeypatch.setattr(solver, "step_direction", direction)
    checked = 0
    for method in METHODS:
        for c0 in (initial_shape(100), _warm_starts(100, 1)[0]):
            seen.clear()
            alive.clear()
            optimize(c0, F2, SolverConfig(method=method, max_iterations=6))
            assert not any(flag for flags in alive for flag in flags), (method, alive)
            checked += sum(len(flags) for flags in alive)
    assert checked >= 20


def test_diagnostics_without_a_positive_step_norm(monkeypatch, tmp_path):
    # psi = 0 has a zero gradient, so every fixed step has norm 0 and the
    # reference distance never falls: the run ends at max_iterations, and
    # solve_and_write reports it
    zero = VolumeFunctional.custom(lambda p: np.zeros(len(p)),
                                   lambda p: np.zeros((len(p), 2)))
    config = SolverConfig(max_iterations=4, line_search=FixedStep(0.5))
    monkeypatch.setattr(experiment, "optimize",
                        lambda c0, f, config: optimize(c0, f, config,
                                                       reference=circle(32, 1.05)))
    records, out = solve_and_write(circle(32), zero, config,
                                   tmp_path / "run.csv", tmp_path / "run.svg")
    assert records[-1].stop == "max_iterations"
    assert all(r.step_norm == 0.0 for r in records[:-1])
    assert out == convergence_diagnostics(records)
    assert out["omega_hat"] is None and out["iterations"] == 4


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
