"""Volume objectives: polar quadrature for the quadratic family, the fan
quadrature for general integrands, boundary kernels, and the two distance
surrogates."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
import shapeopt.functional as functional
from shapeopt import (NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT, DiscreteCurve,
                      ExperimentSpec, SolverConfig,
                      VolumeFunctional, check_simple, optimize, retract,
                      step_direction)
from shapeopt.errors import NotStarShaped, ProjectionFailed
from shapeopt.functional import (_evaluate_mso_stretched, boundary_kernel,
                                 distance_bar, distance_tilde, evaluate_general,
                                 evaluate_mso, mso_step_objective)
from shapeopt.harness import initial_shape, reference_ellipse
from shapeopt.harness.properties import random_star_curve
from shapeopt.harness.scoreboard import warm_start, warm_starts

AREA = VolumeFunctional.custom(lambda pts: np.ones(len(pts)))


def test_quadratic_family_requires_mu_at_least_one():
    VolumeFunctional.quadratic_mso(1.0)
    with pytest.raises(ValueError):
        VolumeFunctional.quadratic_mso(0.5)


def test_family_dispatch():
    f = VolumeFunctional.quadratic_mso(2.0)
    assert f.is_quadratic_mso and f.mu == 2.0
    assert not AREA.is_quadratic_mso


def test_mso_on_unit_circle():
    # analytic value -pi/(2 mu); constant radius makes the rule exact
    val = evaluate_mso(circle(100), 1.0)
    assert abs(val + np.pi / 2.0) < 1e-3 * np.pi / 2.0


def test_mso_on_optimal_ellipse():
    val = evaluate_mso(reference_ellipse(100, 2.0), 2.0)
    assert abs(val + np.pi / 4.0) < 1e-12


def test_mso_on_initial_shape():
    # recorded benchmark row 0
    val = evaluate_mso(initial_shape(100), 2.0)
    assert abs(val + 0.5571) < 1e-3


def test_mso_rejects_curve_away_from_origin():
    with pytest.raises(NotStarShaped):
        evaluate_mso(circle(64, 0.3, center=(2.0, 0.0)), 1.0)


# The polar formulas as written before the angle steps and radii were
# kept on the curve; evaluate_mso and distance_bar, which read them there,
# must reproduce them bit for bit.

def _polar_pieces_uncached(c, mu, angles):
    nodes = c.nodes
    base = nodes if angles == "nodes" else np.column_stack([nodes[:, 0], mu * nodes[:, 1]])
    ang = np.arctan2(base[:, 1], base[:, 0])
    dang = (np.roll(ang, -1) - ang + np.pi) % (2.0 * np.pi) - np.pi
    return dang, nodes[:, 0] ** 2 + mu ** 2 * nodes[:, 1] ** 2


def _evaluate_mso_uncached(c, mu, angles):
    dang, rho2 = _polar_pieces_uncached(c, mu, angles)
    P = rho2 ** 2 / 4.0 - rho2 / 2.0
    return float(np.sum(dang * (np.roll(P, -1) + P)) / (2.0 * mu))


def _distance_bar_uncached(c, mu):
    dang, rho2 = _polar_pieces_uncached(c, mu, "nodes")
    q = np.abs(np.sqrt(rho2) - 1.0)
    return float(np.sum(dang * (np.roll(q, -1) + q)) / (2.0 * mu))


def test_polar_pieces_cache_matches_uncached_formulas():
    rng = np.random.default_rng(53)
    for n in (8, 101, 1600):
        nodes = random_star_curve(n, rng, amplitude=0.3).nodes
        for order in ((evaluate_mso, distance_bar), (distance_bar, evaluate_mso)):
            c = DiscreteCurve(nodes)
            for mu in (2.0, 3.0):
                for fn in order + order:
                    expected = (_evaluate_mso_uncached(c, mu, "nodes") if fn is evaluate_mso
                                else _distance_bar_uncached(c, mu))
                    assert fn(c, mu) == expected, (n, fn, mu)
                assert (_evaluate_mso_stretched(c, mu)
                        == _evaluate_mso_uncached(c, mu, "stretched")), (n, mu)
            # the node-angle steps and the radii are the arrays the curve keeps
            assert functional._node_angle_steps(c, "evaluate_mso") is c.angle_steps
            assert sorted(c._quadratic) == [2.0, 3.0]


def test_stretched_angles_equal_node_angles_at_mu_one():
    # at mu = 1 the stretched plane is the original one, so the two angle
    # conventions give the same value to the bit
    rng = np.random.default_rng(59)
    for n in (8, 9, 16, 101, 400, 1600):
        for amplitude in (0.05, 0.15, 0.19):  # radii stay positive
            c = random_star_curve(n, rng, amplitude=amplitude)
            value = evaluate_mso(c, 1.0)
            assert _evaluate_mso_stretched(c, 1.0).hex() == value.hex(), (n, amplitude)


def test_polar_pieces_failures_are_not_cached():
    # each call that fails raises again, naming its own caller, in either
    # angle convention
    nodes = circle(64, 0.3, center=(2.0, 0.0)).nodes
    for first, second in ((evaluate_mso, distance_bar), (distance_bar, evaluate_mso)):
        c = DiscreteCurve(nodes)
        for fn in (first, first, second):
            with pytest.raises(NotStarShaped, match=f"^{fn.__name__}: "):
                fn(c, 2.0)
    c = DiscreteCurve(nodes)
    for _ in range(2):
        with pytest.raises(NotStarShaped, match="^evaluate_mso: "):
            _evaluate_mso_stretched(c, 2.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _record_curves():
    """Packaged, warm-start and random star curves, and a circle off the
    origin that no polar quadrature accepts."""
    rng = np.random.default_rng(67)
    curves = [initial_shape(100), initial_shape(400)]
    curves += [warm_start(100, rng) for _ in range(3)]
    curves += [random_star_curve(n, rng, amplitude=0.3) for n in (8, 101, 1600)]
    curves.append(DiscreteCurve(circle(64, 0.3, center=(2.0, 0.0)).nodes))
    return curves


def test_quadratic_record_matches_the_direct_formulas_bit_for_bit():
    for c in _record_curves():
        nodes = c.nodes
        for mu in (1.0, 1.3, 2.0, 3.0):
            rec = functional._quadratic_record(c, mu)
            assert functional._quadratic_record(c, mu) is rec
            expected = {
                "x": nodes[:, 0], "y": nodes[:, 1],
                "xx": nodes[:, 0] ** 2, "yy": nodes[:, 1] ** 2,
                # the formula of the polar pieces
                "rho2": nodes[:, 0] ** 2 + mu ** 2 * nodes[:, 1] ** 2,
                # the family's psi and the line-search set-up's r
                "psi": VolumeFunctional.quadratic_mso(mu).psi(nodes),
            }
            assert np.array_equal(_bits(expected["psi"]),
                                  _bits(nodes[:, 0] * nodes[:, 0]
                                        + mu ** 2 * (nodes[:, 1] * nodes[:, 1]) - 1.0))
            for name, value in expected.items():
                arr = getattr(rec, name)
                assert arr.flags.c_contiguous and not arr.flags.writeable, name
                assert np.array_equal(_bits(arr), _bits(value)), (c.n_nodes, mu, name)
        assert sorted(c._quadratic) == [1.0, 1.3, 2.0, 3.0]


def test_quadratic_boundary_kernel_matches_the_custom_path_bit_for_bit():
    for c in _record_curves():
        for mu in (1.0, 1.3, 2.0, 3.0):
            f = VolumeFunctional.quadratic_mso(mu)
            g, dpsi_dn = boundary_kernel(c, f)
            g_ref, dpsi_dn_ref = boundary_kernel(c, VolumeFunctional.custom(f.psi, f.grad_psi))
            assert g is functional._quadratic_record(c, mu).psi
            assert np.array_equal(_bits(g), _bits(g_ref)), (c.n_nodes, mu)
            assert np.array_equal(_bits(dpsi_dn), _bits(dpsi_dn_ref)), (c.n_nodes, mu)


def test_record_is_shared_and_never_raises_not_star_shaped():
    for c in _record_curves():
        if not c.star_certified:
            # the star test stays with the polar pieces
            boundary_kernel(c, VolumeFunctional.quadratic_mso(2.0))
            with pytest.raises(NotStarShaped):
                evaluate_mso(c, 2.0)
            assert list(c._quadratic) == [2.0]
            continue
        evaluate_mso(c, 2.0)
        rec = c._quadratic[2.0]
        distance_bar(c, 2.0)
        boundary_kernel(c, VolumeFunctional.quadratic_mso(2.0))
        assert list(c._quadratic) == [2.0] and c._quadratic[2.0] is rec


def test_evaluate_dispatches_by_family():
    c = initial_shape(100)
    f = VolumeFunctional.quadratic_mso(2.0)
    assert f.evaluate(c) == evaluate_mso(c, 2.0)
    assert AREA.evaluate(c) == evaluate_general(c, AREA)


def test_general_quadrature_matches_the_row_major_fan_bit_for_bit():
    # the fan on a C-ordered copy of the nodes: a curve's nodes are a
    # column-major view, whose plain mean would round differently
    f = VolumeFunctional.custom(lambda p: p[..., 0] ** 2 + 4.0 * p[..., 1] ** 2 - 1.0)
    rng = np.random.default_rng(9)
    for n in (8, 101, 1600):
        c = random_star_curve(n, rng, amplitude=0.3)
        a = np.array(c.nodes, order="C")
        z = a.mean(axis=0)
        b = np.roll(a, -1, axis=0)
        area2 = (a[:, 0] - z[0]) * (b[:, 1] - z[1]) - (a[:, 1] - z[1]) * (b[:, 0] - z[0])
        vals = f.psi((a + b) / 2.0) + f.psi((b + z) / 2.0) + f.psi((z + a) / 2.0)
        assert evaluate_general(c, f) == float((area2 * vals).sum() / 6.0), n


def test_general_quadrature_area_oracles():
    assert abs(evaluate_general(circle(200), AREA) - np.pi) < 1e-3
    assert abs(evaluate_general(reference_ellipse(200, 2.0), AREA) - np.pi / 2.0) < 1e-3


def test_general_matches_polar_on_quadratic_family():
    # consistent-quadrature reading of the polar rule; the fan rule is
    # exact for quadratic integrands up to the boundary polygonization
    c = initial_shape(4000)
    f = VolumeFunctional.quadratic_mso(2.0)
    gap = abs(_evaluate_mso_stretched(c, 2.0) - evaluate_general(c, f))
    assert gap < 1e-6


def test_boundary_kernel_circle_mu_one():
    g, dpsi_dn = boundary_kernel(circle(100), VolumeFunctional.quadratic_mso(1.0))
    npt.assert_allclose(g, 0.0, atol=1e-14)
    npt.assert_allclose(dpsi_dn, 2.0, atol=1e-12)


def test_boundary_kernel_circle_mu_two():
    c = circle(100)
    g, dpsi_dn = boundary_kernel(c, VolumeFunctional.quadratic_mso(2.0))
    top = 25  # node at (0, 1)
    npt.assert_allclose(c.nodes[top], [0.0, 1.0], atol=1e-15)
    assert abs(g[top] - 3.0) < 1e-12
    assert abs(dpsi_dn[top] - 8.0) < 1e-12


def test_boundary_kernel_vanishes_on_optimal_ellipse():
    g, _ = boundary_kernel(reference_ellipse(100, 2.0), VolumeFunctional.quadratic_mso(2.0))
    npt.assert_allclose(g, 0.0, atol=1e-14)


def test_boundary_kernel_needs_gradient():
    with pytest.raises(ValueError):
        boundary_kernel(circle(64), VolumeFunctional.custom(lambda pts: np.ones(len(pts))))


def test_distance_bar_zero_at_reference():
    assert distance_bar(reference_ellipse(100, 2.0), 2.0) < 1e-6


def test_distance_bar_initial_shape():
    assert abs(distance_bar(initial_shape(100), 2.0) - 0.9222) < 1e-3


def test_distance_bar_inflated_circle():
    # radius 1.1 against the unit circle: 2 pi eps, exact for constant eps
    assert abs(distance_bar(circle(100, 1.1), 1.0) - 0.2 * np.pi) < 1e-12


def test_distance_tilde_identical_curves():
    c = circle(100)
    assert distance_tilde(c, c) == 0.0


def test_distance_tilde_inflated_circle():
    val = distance_tilde(circle(100, 1.05), circle(100))
    assert abs(val - 0.1 * np.pi) < 1e-2


def test_distance_tilde_needs_nearby_curves():
    # the pinched start is not a normal graph over the ellipse
    with pytest.raises(ProjectionFailed):
        distance_tilde(initial_shape(100), reference_ellipse(100, 2.0))


def test_step_objective_matches_direct_difference():
    c = initial_shape(100)
    rng = np.random.default_rng(5)
    h = 0.1 * np.cos(2.0 * c.params) + 0.02 * rng.standard_normal(100)
    delta = mso_step_objective(c, h, 2.0)
    assert delta(0.0) == 0.0
    for t in (0.3, 0.05):
        direct = evaluate_mso(retract(c, h, t), 2.0) - evaluate_mso(c, 2.0)
        assert abs(delta(t) - direct) < 1e-12 * abs(direct)


def _mso_step_objective_roll(nodes, step, mu):
    """mso_step_objective with its probe written with np.roll."""
    x, y = nodes[:, 0], nodes[:, 1]
    sx, sy = step[:, 0], step[:, 1]
    ang0 = np.arctan2(y, x)
    dang0 = (np.roll(ang0, -1) - ang0 + np.pi) % (2.0 * np.pi) - np.pi
    rho2_0 = x ** 2 + mu ** 2 * y ** 2
    P0 = rho2_0 ** 2 / 4.0 - rho2_0 / 2.0
    lin = 2.0 * (x * sx + mu ** 2 * y * sy)
    quad = sx ** 2 + mu ** 2 * sy ** 2
    cross0 = x * sy - y * sx

    def delta_phi(t):
        u = t * lin + t * t * quad
        v = rho2_0 + 0.5 * u - 1.0
        dP = u * v / 2.0
        P_t = P0 + dP
        dot = x * (x + t * sx) + y * (y + t * sy)
        dang_node = np.arctan2(t * cross0, dot)
        ddang = np.roll(dang_node, -1) - dang_node
        term = dang0 * (np.roll(dP, -1) + dP) + ddang * (np.roll(P_t, -1) + P_t)
        return float(np.sum(term) / (2.0 * mu))

    return delta_phi


def _mso_step_objective_longdouble(nodes, step, mu):
    """The differenced sum of _mso_step_objective_roll evaluated in
    np.longdouble from the same float nodes and step.  The base radii
    rho2_0 are the floats that evaluate_mso computes: both forms read
    those same rounded values, so the reference measures the rounding
    of each form's own arithmetic."""
    ld = np.longdouble
    rho2_0 = (nodes[:, 0] ** 2 + mu ** 2 * nodes[:, 1] ** 2).astype(ld)
    x, y = nodes[:, 0].astype(ld), nodes[:, 1].astype(ld)
    sx, sy = step[:, 0].astype(ld), step[:, 1].astype(ld)
    mu, pi = ld(mu), np.arctan2(ld(0.0), ld(-1.0))
    ang0 = np.arctan2(y, x)
    dang0 = (np.roll(ang0, -1) - ang0 + pi) % (2 * pi) - pi
    P0 = rho2_0 ** 2 / 4 - rho2_0 / 2
    lin = 2 * (x * sx + mu * mu * y * sy)
    quad = sx * sx + mu * mu * sy * sy
    cross0 = x * sy - y * sx

    def delta_phi(t):
        t = ld(t)
        u = t * lin + t * t * quad
        dP = u * (rho2_0 + u / 2 - 1) / 2
        P_t = P0 + dP
        dang_node = np.arctan2(t * cross0, x * (x + t * sx) + y * (y + t * sy))
        ddang = np.roll(dang_node, -1) - dang_node
        term = dang0 * (np.roll(dP, -1) + dP) + ddang * (np.roll(P_t, -1) + P_t)
        return np.sum(term) / (2 * mu)

    return delta_phi


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_step_objective_is_as_accurate_as_the_roll_form():
    # on the last Newton iterates, where the decrease is smallest against
    # the objective, the probe's error is no larger than the roll form's
    # and below 1e-12 of the largest decrease along the step
    f = VolumeFunctional.quadratic_mso(2.0)
    config = SolverConfig(method=NEWTON_MULTIPLICATIVE)
    ts = np.linspace(0.05, 2.0, 40)
    for n in (100, 1600):
        records = optimize(initial_shape(n), f, config)
        assert len(records) == 5
        for k in (2, 3):
            c = DiscreteCurve(records[k].nodes)
            h = step_direction(c, f, config)
            geo = c.geometry
            step = h[:, None] * np.column_stack([geo.ty, -geo.tx])
            reference = _mso_step_objective_longdouble(c.nodes, step, 2.0)
            exact = [reference(t) for t in ts]
            scale = max(abs(e) for e in exact)
            errors = {}
            for name, form in (("lean", mso_step_objective(c, h, 2.0)),
                               ("roll", _mso_step_objective_roll(c.nodes, step, 2.0))):
                errors[name] = float(max(abs(form(t) - e) for t, e in zip(ts, exact)) / scale)
            assert errors["lean"] <= errors["roll"], (n, k, errors)
            assert errors["lean"] < 1e-12, (n, k, errors)


def _mso_step_objective_passes(c, step, mu):
    """mso_step_objective as a probe of 15 array passes and a sum:

        2 mu phi(t) = sum_i dP_i (dang_i + dang_{i-1} + a_{i+1} - a_{i-1})
                      + sum_i a_i D_i,

    with dP = u (r + u) formed on each probe."""
    dang0 = c.angle_steps
    x, y, xx, yy, _, r = functional._quadratic_record(c, mu)
    sx, sy = np.ascontiguousarray(step[:, 0]), np.ascontiguousarray(step[:, 1])
    mu2 = mu ** 2
    xsx, ysy = x * sx, y * sy
    lin = xsx + mu2 * ysy
    quad = (sx * sx + mu2 * (sy * sy)) / 2.0
    r2, xs = xx + yy, xsx + ysy
    cross0 = x * sy - y * sx
    steps, r_ext = functional._periodic(dang0), functional._periodic(r)
    dang_sum = steps[1:] + steps[:-1]
    rm, rp = r_ext[:-2], r_ext[2:]
    D = (rm - rp) * (rm + rp) / 4.0
    n = len(x)

    def delta_phi(t):
        u = t * lin + t * t * quad
        dP = u * (r + u)
        a_ext = np.empty(n + 2)
        a_ext[1:-1] = np.arctan2(t * cross0, r2 + t * xs)
        a_ext[0], a_ext[-1] = a_ext[-2], a_ext[1]
        return float((dP * (dang_sum + a_ext[2:] - a_ext[:-2]) + a_ext[1:-1] * D).sum()
                     / (2.0 * mu))

    return delta_phi


def _probe_cases():
    """(curve, h, step) along the steepest-descent and Newton directions h
    of the Table-1 runs at N=100 and of 8 seeded warm starts (the optimal
    mu=2 ellipse retracted by low-frequency fields), with step = h*n the
    (N, 2) node step of the oracles."""
    f = VolumeFunctional.quadratic_mso(2.0)
    curves = []
    for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE):
        config = SolverConfig(method=method, stop_distance=ExperimentSpec().stop_distance)
        records = optimize(initial_shape(100), f, config)
        curves += [(DiscreteCurve(r.nodes), method) for r in records[:-1]]
    for warm in warm_starts(100, 8):
        curves += [(warm, method) for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE)]
    cases = []
    for c, method in curves:
        h, geo = step_direction(c, f, SolverConfig(method=method)), c.geometry
        cases.append((c, h, h[:, None] * np.column_stack([geo.ty, -geo.tx])))
    return cases


def test_folded_probe_matches_the_pass_form():
    # within the accuracy test's bound of the largest decrease along the step
    ts = np.linspace(0.05, 2.0, 40)
    cases = _probe_cases()
    assert len(cases) == 16 + 4 + 16
    for c, h, step in cases:
        folded, passes = mso_step_objective(c, h, 2.0), _mso_step_objective_passes(c, step, 2.0)
        expected = [passes(t) for t in ts]
        scale = max(abs(e) for e in expected)
        assert max(abs(folded(t) - e) for t, e in zip(ts, expected)) < 1e-12 * scale


def test_folded_probe_is_zero_at_zero_and_returns_floats():
    for c, h, _ in _probe_cases()[::5]:
        phi = mso_step_objective(c, h, 2.0)
        assert phi(0.0) == 0.0
        value = phi(np.float64(0.3))
        assert type(value) is float and value == phi(0.3)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_step_objective_model_matches_central_differences():
    # phi'(0) and phi''(0) of the model against central differences of the
    # longdouble reference with step 1e-4; their truncation error is below
    # 2e-7 of phi''(0) on these steps
    h = np.longdouble(1e-4)
    for c, field, step in _probe_cases():
        model = []
        mso_step_objective(c, field, 2.0, model)
        reference = _mso_step_objective_longdouble(c.nodes, step, 2.0)
        ahead, behind = reference(h), reference(-h)
        slope = (ahead - behind) / (2 * h)
        curvature = (ahead + behind) / (h * h)
        assert abs(model[0] - slope) <= 1e-6 * abs(slope), (model, slope)
        assert abs(model[1] - curvature) <= 1e-6 * abs(curvature), (model, curvature)


def test_step_objective_reads_the_curve_angle_steps(monkeypatch):
    # the steps the constructor's check_simple computed are not computed again
    rng = np.random.default_rng(29)
    curves = [random_star_curve(n, rng, amplitude=0.3) for n in (8, 100, 1600)]

    def recomputed(x, y):
        raise AssertionError("angle steps recomputed")

    monkeypatch.setattr("shapeopt.curve._angle_steps", recomputed)
    monkeypatch.setattr(functional, "_angle_steps", recomputed)
    for c in curves:
        mso_step_objective(c, np.ones(c.n_nodes), 2.0)
        assert evaluate_mso(c, 2.0) == _evaluate_mso_uncached(c, 2.0, "nodes")


def test_polar_pieces_reject_a_double_winding():
    # positive angle steps that go twice around the origin
    theta = 4.0 * np.pi * np.arange(32) / 32
    spiral = (1.0 + 0.01 * np.arange(32))[:, None] * np.column_stack([np.cos(theta),
                                                                      np.sin(theta)])
    c = DiscreteCurve(spiral, require_simple=False)
    assert np.all(c.angle_steps > 0.0)
    for fn in (evaluate_mso, distance_bar):
        with pytest.raises(NotStarShaped, match=f"^{fn.__name__}: node angles do not wind once"):
            fn(c, 2.0)
    assert not check_simple(c)


def test_polar_pieces_skip_the_star_test_of_certified_curves(monkeypatch):
    # the certificate's steps exceed 1e-12 and sum to 2*pi within 1e-9,
    # which passes both tests of _require_star
    def again(dang, where):
        raise AssertionError(f"{where}: star test ran on a certified curve")

    c = initial_shape(100)
    moved = retract(c, 0.05 * np.cos(2.0 * c.params))
    assert c.star_certified and moved.star_certified
    monkeypatch.setattr(functional, "_require_star", again)
    for curve in (c, moved):
        assert evaluate_mso(curve, 2.0) == _evaluate_mso_uncached(curve, 2.0, "nodes")
        assert distance_bar(curve, 2.0) == _distance_bar_uncached(curve, 2.0)


def test_polar_pieces_reject_an_uncertified_curve_off_the_origin():
    c = DiscreteCurve(circle(64, 0.3, center=(2.0, 0.0)).nodes, require_simple=False)
    assert not c.star_certified
    for fn in (evaluate_mso, distance_bar):
        with pytest.raises(NotStarShaped, match=f"^{fn.__name__}: node angles are not "
                                                "monotone around the origin$"):
            fn(c, 2.0)


def _probe_setup(n, seed):
    c = initial_shape(n)
    rng = np.random.default_rng(seed)
    h = 0.1 * np.cos(2.0 * c.params) + 0.02 * rng.standard_normal(n)
    return c, h, rng


def test_step_objective_probe_does_not_depend_on_earlier_probes():
    c, h, rng = _probe_setup(400, 13)
    ts = rng.uniform(0.0, 2.0, 51)
    for t in ts[:5]:
        first = mso_step_objective(c, h, 2.0)(t)
        phi = mso_step_objective(c, h, 2.0)
        for other in rng.permutation(ts[ts != t]):
            phi(other)
        later = phi(t)
        assert type(later) is float
        assert later == first, t


def test_step_objective_closures_do_not_share_buffers():
    c, h, rng = _probe_setup(400, 19)
    other_h = h * rng.uniform(0.5, 1.5, 400)
    ts = rng.uniform(0.0, 2.0, 40)
    alone_a = [mso_step_objective(c, h, 2.0)(t) for t in ts]
    alone_b = [mso_step_objective(c, other_h, 2.0)(t) for t in ts[::-1]]
    phi_a = mso_step_objective(c, h, 2.0)
    phi_b = mso_step_objective(c, other_h, 2.0)
    for k, t in enumerate(ts):
        assert phi_a(t) == alone_a[k]
        assert phi_b(ts[::-1][k]) == alone_b[k]
