"""Step directions, the exact line search, the descent loop, and the
late-phase rate diagnostics."""

import re
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
import shapeopt.calculus as calculus
import shapeopt.curve as curve
import shapeopt.metric as metric
import shapeopt.solver as solver
from shapeopt import (METHODS, NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      STEEPEST_DESCENT, DiscreteCurve, ExperimentSpec,
                      HessianOperator, IterationRecord, SolverConfig,
                      VolumeFunctional, convergence_diagnostics,
                      hessian_at_solution, inner, line_search_exact, norm,
                      optimize, retract, riemannian_hessian_form,
                      riesz_gradient, step_direction)
from shapeopt.curve import _CheckedField
from shapeopt.errors import (DegenerateCurve, InsufficientData, LineSearchFailed,
                             NotStarShaped, ShapeOptError)
from shapeopt.functional import boundary_kernel
from shapeopt.harness import experiment, initial_shape, reference_ellipse
from shapeopt.harness.experiment import solve_and_write
from shapeopt.harness.properties import random_star_curve
from shapeopt.harness.scoreboard import (ELLIPSE_PSI, custom_runs, general_warm_starts,
                                         warm_start, warm_starts)
from shapeopt.solver import GOLDEN, _decrease_function, _line_search

F2 = VolumeFunctional.quadratic_mso(2.0)

TABLE1_METHODS = (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE)
# step_scale of every step of the Table-1 runs, by (method, N): the runs at
# N=6400 and 25600 take as many steps as at N=100
TABLE1_STEP_SCALES = {
    (STEEPEST_DESCENT, 100): [0.5, 0.32, 0.36, 0.33, 0.34, 0.34, 0.33, 0.34, 0.33,
                              0.34, 0.33, 0.35000000000000003, 0.32,
                              0.35000000000000003, 0.32, 0.35000000000000003],
    **{(STEEPEST_DESCENT, n): [0.5, 0.32, 0.36, 0.33, 0.34, 0.34, 0.33, 0.34, 0.33,
                               0.34, 0.34, 0.33, 0.34, 0.33, 0.34, 0.33]
       for n in (6400, 25600)},
    **{(NEWTON_MULTIPLICATIVE, n): [0.63, 0.98, 1.0, 1.0] for n in (100, 6400, 25600)},
}


def _table1_run(method, n=100):
    return optimize(initial_shape(n), F2,
                    SolverConfig(method=method,
                                 stop_distance=ExperimentSpec().stop_distance))


def _reference_search(phi, bracket_max=2.0, tolerance=1e-10, step_resolution=0.01):
    """The reference search for the decrease function phi: the search of
    line_search_exact without its parabolic search.  Golden section runs
    to the tolerance before the snap."""
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


def _line_search_exact_oracle(c, f, direction, **kwargs):
    """The reference search along the retracted direction on c."""
    direction = _CheckedField(c, direction, "direction")
    if not direction.values.any():
        raise LineSearchFailed("zero direction")
    phi, _ = _decrease_function(c, f, direction)
    return _reference_search(phi, **kwargs)


def _decisions(monkeypatch):
    """The list of what each parabolic search from now on returns: its
    snapped step, or None where it hands over."""
    decided = []
    snap = solver._snap_by_parabolas
    monkeypatch.setattr(solver, "_snap_by_parabolas",
                        lambda *args: decided.append(snap(*args)) or decided[-1])
    return decided


def _line_search_once(phi, model):
    """_line_search(phi, model), checking the promise of line_search_exact
    that phi is probed at most once per t, also where the reference
    search, after a handover, asks for a t the parabolic search probed."""
    probes = []
    try:
        return _line_search(lambda t: probes.append(t) or phi(t), model)
    finally:
        assert len(set(probes)) == len(probes), "a t reached phi twice"


def _probe_counts(monkeypatch):
    """A Counter of the "searches" and "probes" of every line search from
    now on, counted where solver._decrease_function hands each search its
    decrease function."""
    counts = Counter()
    decrease = solver._decrease_function

    def counted(*args):
        phi, model = decrease(*args)
        counts["searches"] += 1

        def probe(t):
            counts["probes"] += 1
            return phi(t)
        return probe, model

    monkeypatch.setattr(solver, "_decrease_function", counted)
    return counts


def _fixed_step(monkeypatch, t):
    """optimize with every line search replaced by the constant step t."""
    monkeypatch.setattr(solver, "line_search_exact", lambda c, f, direction: t)


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
    # the exact line search is the one step rule: there is no option for it
    assert [field.name for field in fields(SolverConfig)] == [
        "method", "A", "max_iterations", "stop_distance"]


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
    curves = [r.nodes for method in TABLE1_METHODS for r in _table1_run(method)]
    for n in (100, 400):
        rng = np.random.default_rng(n)
        curves += [initial_shape(n).nodes, random_star_curve(n, rng).nodes]
        curves += [c.nodes for c in warm_starts(n, 2)]
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



def test_line_search_matches_full_search_oracle(monkeypatch):
    # on the search's own grid and on a coarser one
    for n in (100, 400):
        for c in [initial_shape(n)] + warm_starts(n, 8):
            for A in (0.0, 0.5):
                for method in METHODS:
                    d = step_direction(c, F2, SolverConfig(method=method, A=A))
                    for res in (0.01, 0.02):
                        monkeypatch.setattr(solver, "STEP_RESOLUTION", res)
                        expected = _outcome(_line_search_exact_oracle, c, F2, d,
                                            step_resolution=res)
                        got = _outcome(line_search_exact, c, F2, d)
                        assert got == expected, (n, A, method, res)


def test_line_search_matches_oracle_on_custom_functional():
    for c in [initial_shape(100)] + warm_starts(100, 1):
        for A in (0.0, 0.5):
            for method in METHODS:
                d = step_direction(c, ELLIPSE_PSI, SolverConfig(method=method, A=A))
                assert (_outcome(line_search_exact, c, ELLIPSE_PSI, d)
                        == _outcome(_line_search_exact_oracle, c, ELLIPSE_PSI, d)), (A, method)


def test_custom_model_is_the_nodal_model():
    # the custom path's model is two finite floats: the pairing sum g h w
    # and the covariant Hessian form at A = 0 of the boundary kernel
    curves = [initial_shape(100)] + warm_starts(100, 2) + [circle(64, 1.3)]
    for c in curves:
        kernels = boundary_kernel(c, ELLIPSE_PSI)
        for method in METHODS:
            d = step_direction(c, ELLIPSE_PSI, SolverConfig(method=method, A=0.5))
            _, model = _decrease_function(c, ELLIPSE_PSI, _CheckedField(c, d))
            assert len(model) == 2 and all(type(v) is float for v in model), method
            assert np.isfinite(model).all(), method
            assert model[0] == inner(c, 0.0, kernels[0], d), method
            assert model[1] == riemannian_hessian_form(c, 0.0, kernels, d, d), method


def test_line_search_needs_the_gradient_of_a_custom_functional():
    # without grad_psi there is no model, and the search raises the
    # kernel's error, as the step direction does
    f = VolumeFunctional.custom(lambda p: p[..., 0] ** 2 + 4.0 * p[..., 1] ** 2 - 1.0)
    c = initial_shape(100)
    with pytest.raises(ValueError, match="construct it with grad_psi"):
        step_direction(c, f, SolverConfig())
    with pytest.raises(ValueError, match="construct it with grad_psi"):
        line_search_exact(c, f, -np.ones(100))


def test_line_search_rejected_snap_runs_to_tolerance():
    # the minimizer lies below 0.005, so the snap rounds to 0, which is
    # rejected, and the search returns golden section's midpoint
    c0 = initial_shape(100)
    d = 1000.0 * step_direction(c0, F2, SolverConfig(method=STEEPEST_DESCENT))
    t = line_search_exact(c0, F2, d)
    assert 0.0 < t < 0.005
    assert t.hex() == _line_search_exact_oracle(c0, F2, d).hex()


def _cliff(t):
    """(t - 0.0151)^2 - 0.0151^2, inadmissible (+inf) past t = 0.0152."""
    return (t - 0.0151) ** 2 - 0.0151 ** 2 if t <= 0.0152 else np.inf


def test_line_search_rejected_grid_step_returns_bracket_midpoint():
    # every probe past t = 0.0152 is inadmissible, so the snap 0.02 of the
    # minimizer 0.0151 is rejected and the search returns golden section's
    # midpoint
    t = _line_search_once(_cliff, [-0.0302, 2.0])
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


def _difference_model(phi, delta=1e-4):
    """[phi'(0), phi''(0)] of phi by one-sided differences at delta and
    2 delta, exact for a quadratic."""
    near, far = phi(delta), phi(2.0 * delta)
    return [(4.0 * near - far) / (2.0 * delta), (far - 2.0 * near) / delta ** 2]


def test_line_search_matches_oracle_on_unimodal_functions(monkeypatch):
    # the parabolic search opened from the model [phi'(0), phi''(0)] must
    # return the full search's float whenever phi is unimodal, and decide
    # most of these searches by itself
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
    cases.append((0.0151, _cliff))
    decided = _decisions(monkeypatch)
    # a coarse tolerance lets golden section stop a cell away from the
    # minimizer, which the parabolic search must then leave undecided
    for tolerance in (1e-3, 1e-10):
        monkeypatch.setattr(solver, "TOLERANCE", tolerance)
        decided.clear()
        for m, phi in cases:
            model = _difference_model(phi)
            assert model[0] < 0.0, m
            assert (_outcome(_line_search_once, phi, model)
                    == _outcome(_reference_search, phi, tolerance=tolerance)), (m, tolerance)
        assert len(decided) == len(cases)
    assert sum(t is not None for t in decided) > 0.5 * len(cases)


def test_seeded_line_search_matches_oracle_on_unimodal_functions(monkeypatch):
    # the search seeded by a model [phi'(0), phi''(0)] must return the
    # full search's float whenever phi is unimodal, wherever the model
    # puts the minimizer: each model here is off by a random factor of up
    # to 3 in both terms, and some have no positive curvature
    rng = np.random.default_rng(43)
    res = 0.01
    minimizers = (list(rng.uniform(0.005, 2.0, 150))
                  + [(k + 0.5) * res + rng.uniform(-1e-12, 1e-12)
                     for k in rng.integers(0, 200, 30)]
                  + [k * res for k in rng.integers(1, 201, 30)]
                  + list(rng.uniform(1e-4, 0.005, 15))
                  + list(rng.uniform(2.0, 5.0, 15)))
    cases = [_unimodal_phi(rng, m, kind)
             for m in minimizers for kind in ("asymmetric", "flat4", "cliff")]
    decided = _decisions(monkeypatch)
    for phi in cases:
        slope, curvature = _difference_model(phi)
        model = [slope * rng.uniform(1.0 / 3.0, 3.0),
                 curvature * rng.uniform(-0.5, 3.0)]
        assert model[0] < 0.0
        assert _outcome(_line_search_once, phi, model) == _outcome(_reference_search, phi)
    assert len(decided) == len(cases)
    assert sum(t is not None for t in decided) > 0.5 * len(cases)


def _spiked_phi(m, width):
    """phi(t) = (t - m)^2 - m^2 plus 1 on a spike width wide at m."""
    return lambda t: (t - m) ** 2 - m ** 2 + (1.0 if abs(t - m) < 0.5 * width else 0.0)


def test_handover_runs_the_reference_search(monkeypatch):
    # with the parabolic search made to hand over every time, the search
    # is the reference search.  The spike at the minimizer m < 1 makes
    # phi(m) positive, so where golden section's bracket collapses onto
    # it, both raise "bracket collapsed without decrease", although the
    # snapped grid step nearest m decreases phi
    monkeypatch.setattr(solver, "_snap_by_parabolas", lambda *args: None)
    rng = np.random.default_rng(47)
    raised = 0
    for m, width in zip(rng.uniform(0.005, 1.0, 400), 10.0 ** rng.uniform(-9.0, -7.0, 400)):
        phi = _spiked_phi(m, width)
        expected = _outcome(_reference_search, phi)
        assert _outcome(_line_search_once, phi, [-1.0, 2.0]) == expected, (m, width)
        raised += expected == ("LineSearchFailed", "bracket collapsed without decrease")
    assert raised >= 10


def _nan_on(phi, lo, hi=np.inf):
    """phi with nan on [lo, hi]."""
    return lambda t: np.nan if lo <= t <= hi else phi(t)


def _valley(t):
    return (t - 0.3) ** 2 - 0.09


# (phi, model, patched module constants) for each handover of the parabolic
# search that the searches of real runs do not reach
HANDOVERS = {
    # the model's opening probe 0.5 is nan
    "nan-opening-probe": (_nan_on(_valley, 0.4), [-1.0, 2.0], {}),
    # phi never decreases and the cubic backs off by 10 each probe, from 1
    # past TOLERANCE in 11 probes
    "opening-below-tolerance": (lambda t: 1e6 * t, [-1.0, 1.0], {}),
    # phi never decreases and the cubic backs off by a factor of 2 to 3
    # each probe: SNAP_PROBES probes from BRACKET_MAX stay above TOLERANCE
    "opening-spends-snap-probes": (lambda t: t * t, [-1.0, 0.0], {}),
    # the model opens at 0.5 and its cubic probes 0.29 next; the vertex of
    # the parabola through 0, 0.29 and 0.5 rounds to the grid point 0.3,
    # which is nan
    "nan-loop-probe": (_nan_on(_valley, 0.3, 0.32), [-1.0, 2.0], {}),
    # the model opens at 1 and its cubic, with no minimizer, probes
    # BRACKET_MAX next; the inset left edge of BRACKET_MAX's cell,
    # 1.99501, is nan
    "nan-bracket-max-edge": (_nan_on(lambda t: -t, 1.99, 1.999), [-1.0, 1.0], {}),
    # the same openings; with a 2*TOLERANCE margin of 0.006 the inset left
    # edge of BRACKET_MAX's cell lies beyond BRACKET_MAX
    "bracket-max-edge-outside": (lambda t: -t, [-1.0, 1.0], {"TOLERANCE": 0.003}),
    # the model opens at 1.5, the lowest and largest probe, and its cubic
    # probes 1.1 next; phi = -t is linear there, so the parabola has no
    # vertex, and the step right from 1.5 toward BRACKET_MAX, one float
    # above it, rounds back to 1.5: a re-probe, on every remaining probe
    "re-probe": (lambda t: -t, [-3.0, 2.0], {"BRACKET_MAX": np.nextafter(1.5, 2.0)}),
}


@pytest.mark.parametrize("case", HANDOVERS)
def test_parabolic_search_handovers_match_the_oracle(monkeypatch, case):
    # each case hands over to the reference search, which runs on the
    # probes already made, and the search returns the reference search's
    # outcome: the step's float or the error
    phi, model, constants = HANDOVERS[case]
    for name, value in constants.items():
        monkeypatch.setattr(solver, name, value)
    decided = _decisions(monkeypatch)
    expected = _outcome(_reference_search, phi,
                        bracket_max=constants.get("BRACKET_MAX", 2.0),
                        tolerance=constants.get("TOLERANCE", 1e-10))
    assert _outcome(_line_search_once, phi, model) == expected
    assert decided == [None]


def test_golden_section_decides_a_step_of_a_converging_run(monkeypatch):
    # steepest descent at A = 0.5 from the third of eight seeded warm starts
    # converges in 74 iterations; its search at k = 52 is the one the
    # parabolic search hands over, and golden section returns 0.52 there
    rng = np.random.default_rng(13)
    starts = [warm_start(100, rng) for _ in range(8)]
    decided = _decisions(monkeypatch)
    config = SolverConfig(method=STEEPEST_DESCENT, A=0.5, max_iterations=100)
    records = optimize(starts[2], F2, config)
    assert records[-1].stop == "distance" and len(records) - 1 == 74
    assert [k for k, t in enumerate(decided) if t is None] == [52]
    assert records[52].step_scale == 0.52
    c = DiscreteCurve(records[52].nodes)
    d = step_direction(c, F2, config)
    assert _line_search_exact_oracle(c, F2, d) == 0.52


def test_line_search_matches_oracle_from_the_mu3_packaged_start():
    # from the packaged start at mu=3, A=0.5 the parabolas decide 0.31,
    # where the moved polygon is not certified star-shaped; the search
    # returns the full search's float
    f3 = VolumeFunctional.quadratic_mso(3.0)
    c0 = initial_shape(100)
    d = step_direction(c0, f3, SolverConfig(method=STEEPEST_DESCENT, A=0.5))
    assert (_outcome(line_search_exact, c0, f3, d)
            == _outcome(_line_search_exact_oracle, c0, f3, d))


def test_line_search_decides_a_step_at_bracket_max(monkeypatch):
    # with the steepest-descent direction scaled by 0.1 the minimizer lies
    # beyond bracket_max; one probe at the left edge of its grid cell
    # decides the step there, as the reference search does in 64 probes
    c = initial_shape(400)
    for _ in range(5):
        d = 0.1 * step_direction(c, F2, SolverConfig(method=STEEPEST_DESCENT))
        with monkeypatch.context() as m:
            counts = _probe_counts(m)
            t = line_search_exact(c, F2, d)
        assert counts["probes"] <= 10
        assert t == 2.0
        assert t.hex() == _line_search_exact_oracle(c, F2, d).hex()
        c = retract(c, d, t)


def test_line_search_probe_count(monkeypatch):
    # a deterministic count: the model-seeded parabolic search averages 3.6
    # probes per search on the Table-1 runs (72 in 20 searches), 3.65 on
    # the general-form Newton runs from the warm starts of the
    # newton_general_warm_n800 benchmark (175 in 48), and 10.71 on the
    # custom path, which opens from the nodal model, over the scoreboard's
    # 54 custom-functional runs (4680 in 437)
    counts = _probe_counts(monkeypatch)

    def probes_per_search(run):
        counts.clear()
        run()
        return counts["probes"] / counts["searches"]

    assert probes_per_search(lambda: [_table1_run(method) for method in TABLE1_METHODS]) <= 5.5
    config = SolverConfig(method=NEWTON_GENERAL_FORM)
    starts = general_warm_starts()
    assert probes_per_search(lambda: [optimize(c, F2, config) for c in starts]) <= 5.5
    assert probes_per_search(custom_runs) <= 10.71
    assert counts["searches"] == 437


def test_table1_step_scales_are_pinned():
    # each run ends on its final row, which takes no step
    for (method, n), expected in TABLE1_STEP_SCALES.items():
        assert [r.step_scale for r in _table1_run(method, n)] == expected + [None], (method, n)


def test_optimize_builds_one_polygon_per_step(monkeypatch):
    # the line search of the quadratic family builds no polygon, and each
    # step makes one retract call, which builds one polygon whether it
    # admits it or not: the events of a run read (L l (R P)?)* with one R
    # per step, L and l the entry and exit of a line search, R a retract
    # and P a polygon
    starts = warm_starts(100, 8)
    events = []
    unchecked = DiscreteCurve._unchecked
    search, move = solver.line_search_exact, solver.retract

    def build(cls, *args):
        events.append("P")
        return unchecked(*args)

    def line_search(*args):
        events.append("L")
        try:
            return search(*args)
        finally:
            events.append("l")

    def retract_spy(*args):
        events.append("R")
        return move(*args)

    monkeypatch.setattr(DiscreteCurve, "_unchecked", classmethod(build))
    monkeypatch.setattr(solver, "line_search_exact", line_search)
    monkeypatch.setattr(solver, "retract", retract_spy)
    runs = [_table1_run(method) for method in TABLE1_METHODS]
    assert "".join(events) == "LlRP" * sum(len(records) - 1 for records in runs)
    steps = 0
    for c0 in starts:
        for method in METHODS:
            events.clear()
            records = optimize(c0, F2, SolverConfig(method=method))
            assert re.fullmatch("(Ll(RP)?)*", "".join(events)), (method, events)
            taken = sum(r.step_scale is not None for r in records)
            assert events.count("R") == events.count("P") == taken, method
            steps += taken
    assert steps >= 100


def test_certified_retractions_skip_the_finite_check(monkeypatch):
    # the star certificate bounds every node radius, so no retraction of
    # the Table-1 runs checks its nodes for finiteness again; a retraction
    # to a non-finite node still raises DegenerateCurve
    c0, c = initial_shape(100), circle(32)
    calls = []
    check = curve._check_finite

    def spy(nodes):
        calls.append(nodes.shape)
        check(nodes)

    monkeypatch.setattr(curve, "_check_finite", spy)
    for method in TABLE1_METHODS:
        config = SolverConfig(method=method, stop_distance=ExperimentSpec().stop_distance)
        records = optimize(c0, F2, config)
        assert records[-1].stop == "distance" and len(records) > 4, method
    assert calls == []
    h = np.zeros(32)
    h[3] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateCurve, match="^nodes contain non-finite coordinates$"):
            retract(c, h, 10.0)
    assert calls == [(2, 34)]


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


def test_optimize_stops_on_step_without_distance(monkeypatch):
    area = VolumeFunctional.custom(lambda pts: np.ones(len(pts)),
                                   lambda pts: np.zeros_like(pts))
    cfg = SolverConfig(method=STEEPEST_DESCENT)
    _fixed_step(monkeypatch, 1e-9)
    records = optimize(circle(100), area, cfg)
    assert records[0].step_norm < cfg.stop_distance
    assert [r.stop for r in records] == [None, "step"]


def test_optimize_unit_step_newton(monkeypatch):
    # pure Newton iteration (no line search) from a nearby circle
    f1 = VolumeFunctional.quadratic_mso(1.0)
    cfg = SolverConfig(method=NEWTON_MULTIPLICATIVE)
    _fixed_step(monkeypatch, 1.0)
    records = optimize(circle(100, 1.2), f1, cfg)
    assert records[-1].distance < 1e-7
    assert len(records) <= 6


def test_multiplicative_newton_iterates_do_not_depend_on_the_metric():
    # the step -g/nu holds no metric; step_norm is measured in the A-metric
    # (and contraction_ratio with it), so those two are left out
    fields = ("nodes", "objective", "distance", "step_scale", "stop")
    starts = [initial_shape(100)] + warm_starts(100, 8)
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


def test_optimize_with_reference_curve(monkeypatch):
    # non-quadratic path: area functional shrinks any curve, monitored
    # against a reference through the normal-offset distance
    area = VolumeFunctional.custom(lambda pts: np.ones(len(pts)),
                                   lambda pts: np.zeros_like(pts))
    cfg = SolverConfig(method=STEEPEST_DESCENT, max_iterations=2)
    _fixed_step(monkeypatch, 0.05)
    records = optimize(circle(100), area, cfg, reference=circle(100))
    assert records[0].distance == 0.0
    assert len(records) == 1  # starts on the reference, stops at once


def test_optimize_general_form_newton_from_warm_starts():
    for seed, c0 in enumerate(warm_starts(100, 6)):
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


def test_optimize_returns_partial_records_on_failure(monkeypatch):
    c0 = initial_shape(100)
    cfg = SolverConfig(method=STEEPEST_DESCENT)
    _fixed_step(monkeypatch, 50.0)
    records = optimize(c0, F2, cfg)  # the step of row 0 cannot be retracted
    assert len(records) == 1
    assert records[0].objective == pytest.approx(F2.evaluate(c0))
    assert records[0].step_scale == 50.0
    assert records[0].stop.startswith("ShapeDegenerate: ")
    # an inadmissible start is an error of the input, not a stop
    with pytest.raises(NotStarShaped):
        optimize(DiscreteCurve(circle(100).nodes + 5.0), F2, cfg)


def test_optimize_stops_on_an_invalid_direction(monkeypatch):
    # the direction is checked where optimize receives it, before the line
    # search (or a constant step in its place) runs, and the stop names it
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
        for step in (None, 0.1):
            with monkeypatch.context() as m:
                if step is not None:
                    _fixed_step(m, step)
                records = optimize(initial_shape(100), F2, SolverConfig())
            assert len(records) == 1
            assert records[0].step_scale is None
            assert records[0].stop == f"DimensionMismatch: direction: {message}", step


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
            for step in (None, 0.1):
                checked.clear()
                directions.clear()
                with monkeypatch.context() as m:
                    if step is not None:
                        _fixed_step(m, step)
                    records = optimize(initial_shape(100), f,
                                       SolverConfig(method=method, max_iterations=3))
                case = (f, method, step)
                assert any(r.step_scale is not None for r in records), case
                assert checked.count("direction") == len(directions), case
                assert not {"alpha", "beta", "h"} & set(checked), case
                assert checked.count("psi") + checked.count("g") == len(directions), case
                normal = 0 if method == STEEPEST_DESCENT else len(directions)
                assert checked.count("dpsi_dn") + checked.count("nu") == normal, case


def test_optimize_frees_each_iterate_after_its_step(monkeypatch):
    # nothing the loop keeps from a step holds the iterate it moved from:
    # by the next step direction no earlier iterate but the caller's
    # start lives
    seen, alive = [], []
    original = solver.step_direction

    def direction(c, *args):
        alive.append([ref() is not None for ref in seen[1:]])
        seen.append(weakref.ref(c))
        return original(c, *args)

    monkeypatch.setattr(solver, "step_direction", direction)
    checked = 0
    for method in METHODS:
        for c0 in (initial_shape(100), warm_starts(100, 1)[0]):
            seen.clear()
            alive.clear()
            optimize(c0, F2, SolverConfig(method=method, max_iterations=6))
            assert not any(flag for flags in alive for flag in flags), (method, alive)
            checked += sum(len(flags) for flags in alive)
    assert checked >= 20


def test_curvature_stencil_runs_only_where_curvature_is_read(monkeypatch, tmp_path):
    # the two Table-1 runs at A = 0 read no curvature: the Riesz map and
    # the step norm form no weight there, and the multiplicative Newton
    # step holds none, so neither the curvature nor its stencil weights
    # are formed; the general form reads the curvature once per iterate
    # that takes a step, on stencil weights formed once per run and
    # shared by every iterate retracted from its start
    calls, weights = [], []
    stencil, stencil_weights = curve._curvature, curve._stencil_weights

    def spy(*args):
        calls.append(args[0].shape[1] - 2)
        return stencil(*args)

    def weights_spy(params):
        weights.append(len(params))
        return stencil_weights(params)

    monkeypatch.setattr(curve, "_curvature", spy)
    monkeypatch.setattr(curve, "_stencil_weights", weights_spy)
    report = experiment.run_table1(ExperimentSpec(output_dir=str(tmp_path)))
    assert [data["stop"] for data in report["methods"].values()] == ["distance"] * 2
    assert calls == [] and weights == []
    for start in warm_starts(100, 3):
        c0 = DiscreteCurve(start.nodes, params=start.params)
        records = optimize(c0, F2, SolverConfig(method=NEWTON_GENERAL_FORM))
        assert records[-1].stop == "distance" and len(records) >= 3
        assert calls == [100] * (len(records) - 1) and weights == [100]
        calls.clear()
        weights.clear()


def test_diagnostics_without_a_positive_step_norm(monkeypatch, tmp_path):
    # psi = 0 has a zero gradient, so every fixed step has norm 0 and the
    # reference distance never falls: the run ends at max_iterations, and
    # solve_and_write reports it
    zero = VolumeFunctional.custom(lambda p: np.zeros(len(p)),
                                   lambda p: np.zeros((len(p), 2)))
    config = SolverConfig(max_iterations=4)
    _fixed_step(monkeypatch, 0.5)
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
