"""Curve construction, derived geometry, admissibility checks, the
normal-step retraction, and node serialization."""

import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle, figure_eight
import shapeopt.curve as curve
from shapeopt import (CurveGeometry, DiscreteCurve, HessianOperator, VolumeFunctional,
                      boundary_kernel, check_simple, retract, tangential_second_derivative)
from shapeopt.curve import (_param_gaps, _segments_intersect, as_field, row_norm,
                            shift_next, shift_prev, signed_area)
from shapeopt.errors import DegenerateCurve, DimensionMismatch, ShapeDegenerate, SingularHessian
from shapeopt.functional import distance_bar, evaluate_mso
from shapeopt.harness import reference_ellipse
from shapeopt.harness.properties import random_star_curve


def test_constructor_rejects_bad_shape():
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(np.zeros((10, 3)))


def test_constructor_rejects_too_few_nodes():
    nodes = circle(8).nodes
    DiscreteCurve(nodes)  # eight is the floor
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(nodes[:7])


def test_constructor_rejects_nonfinite():
    nodes = circle(16).nodes.copy()
    nodes[3, 1] = np.nan
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(nodes)


def test_constructor_rejects_coincident_neighbors():
    nodes = circle(16).nodes.copy()
    nodes[5] = nodes[4]
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(nodes)


def test_params_must_match_and_increase():
    c = circle(16)
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(c.nodes, params=c.params[:-1])
    bad = c.params.copy()
    bad[3] = bad[5]
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(c.nodes, params=bad)
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(c.nodes, params=c.params + 2.0 * np.pi)


def test_clockwise_input_is_reoriented():
    c = circle(32)
    cw = DiscreteCurve(c.nodes[::-1].copy())
    assert signed_area(cw.nodes) > 0.0
    npt.assert_allclose(np.sort(cw.nodes, axis=0), np.sort(c.nodes, axis=0))


def test_require_simple_rejects_self_intersection():
    with pytest.raises(ShapeDegenerate):
        DiscreteCurve(figure_eight())
    c = DiscreteCurve(figure_eight(), require_simple=False)
    assert c.n_nodes == 16


def test_check_simple():
    c = circle(64)
    assert check_simple(c)
    assert check_simple(c.nodes)
    assert not check_simple(figure_eight())
    assert not check_simple(c.nodes[::-1])  # clockwise fails the orientation clause


def _segments_intersect_oracle(nodes):
    """All-pairs reference for curve._segments_intersect."""
    n = len(nodes)
    a = nodes
    b = np.roll(nodes, -1, axis=0)
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    for i in range(n - 2):
        # adjacent segments share an endpoint and are skipped
        js = np.arange(i + 2, n if i > 0 else n - 1)
        r = a[js] - a[i]
        dj = d[js]
        den = d[i, 0] * dj[:, 1] - d[i, 1] * dj[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (r[:, 0] * dj[:, 1] - r[:, 1] * dj[:, 0]) / den
            u = (r[:, 0] * d[i, 1] - r[:, 1] * d[i, 0]) / den
        hit = ((np.abs(den) > curve._SIN_MIN * length[i] * length[js])
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        if hit.any():
            return True
    return False


def _polygon_family(kind, n, rng):
    if kind == "random_walk":
        return np.cumsum(rng.standard_normal((n, 2)), axis=0) / np.sqrt(n)
    th = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.8, 0.8, n)) / n
    if kind == "noisy_star":
        r = 1.0 + rng.uniform(0.0, 0.4) * rng.standard_normal(n)
    elif kind == "high_frequency_star":
        k = rng.integers(n // 4, n // 2 + 1)
        r = 1.0 + rng.uniform(0.05, 0.6) * np.sin(k * th + rng.uniform(0, 2 * np.pi))
    else:
        r = 1.0 + 0.3 * rng.standard_normal(n)
    nodes = np.abs(r)[:, None] * np.column_stack([np.cos(th), np.sin(th)])
    if kind == "grid_snapped":
        # collinear, touching and vertex-on-segment configurations
        nodes = np.round(8.0 * nodes) / 8.0
        keep = np.any(nodes != np.roll(nodes, 1, axis=0), axis=1)
        nodes = nodes[keep]
    return nodes


def test_segments_intersect_matches_all_pairs_oracle():
    rng = np.random.default_rng(20120307)
    kinds = ("noisy_star", "high_frequency_star", "grid_snapped", "random_walk")
    outcomes = {kind: set() for kind in kinds}
    tested = 0
    for s in range(640):
        kind = kinds[s % 4]
        n = int(np.exp(rng.uniform(np.log(8), np.log(401))))
        nodes = _polygon_family(kind, n, rng)
        if len(nodes) < 8:
            continue
        expected = _segments_intersect_oracle(nodes)
        assert _segments_intersect(nodes) is expected, (s, kind, len(nodes))
        outcomes[kind].add(expected)
        tested += 1
    assert tested >= 600
    for kind in kinds:
        assert outcomes[kind] == {True, False}, kind


def test_segments_intersect_vertex_on_segment_is_not_a_crossing():
    # the notch vertex (2, 0) lies exactly on the non-adjacent bottom edge
    nodes = np.array([[0, 0], [4, 0], [4, 4], [3, 4], [2, 0], [1, 4], [0, 4], [0, 2]],
                     dtype=float)
    assert not _segments_intersect_oracle(nodes)
    assert not _segments_intersect(nodes)
    assert check_simple(nodes)


def test_segments_intersect_collinear_overlap_is_not_a_crossing():
    # edge (3, 0)-(1, 0) runs back along the bottom edge (0, 0)-(4, 0): den == 0
    nodes = np.array([[0, 0], [4, 0], [4, 2], [3, 2], [3, 0], [1, 0], [1, 2], [0, 2]],
                     dtype=float)
    assert not _segments_intersect_oracle(nodes)
    assert not _segments_intersect(nodes)


def test_segments_intersect_minimal_polygon():
    assert not _segments_intersect(circle(8).nodes)
    assert _segments_intersect(figure_eight(8))
    assert _segments_intersect_oracle(figure_eight(8))


def _zigzag_comb(m, close_across):
    """m nodes zigzagging up between x = 0 and x = 0.01, so every zigzag
    segment overlaps every other in x.  Closed either around the outside
    (simple) or by one edge straight back across the zigzag."""
    k = np.arange(m)
    nodes = np.column_stack([0.01 * (k % 2), k / m])
    if close_across:
        return nodes
    top = (m - 1) / m
    return np.vstack([nodes, [[0.02, top], [0.02, -1.0 / m], [0.0, -1.0 / m]]])


def test_segments_intersect_comb_is_chunked():
    tracemalloc.start()
    try:
        assert not _segments_intersect(_zigzag_comb(4000, close_across=False))
        assert _segments_intersect(_zigzag_comb(4000, close_across=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ~8e6 x-overlapping pairs; materialized at once they would need >500 MB
    assert peak < 64e6


def _check_simple_oracle(nodes):
    """check_simple as the shoelace sign and the all-pairs crossing loop."""
    return bool(signed_area(nodes) > 0.0 and not _segments_intersect_oracle(nodes))


def _wrapped_angle_steps_roll(nodes):
    """The node-angle steps with the arithmetic of the polar quadratures,
    written with np.roll."""
    ang = np.arctan2(nodes[:, 1], nodes[:, 0])
    return (np.roll(ang, -1) - ang + np.pi) % (2.0 * np.pi) - np.pi


def _adversarial_star(rng):
    """Seeded polygon whose node angles increase around the origin, with
    one kind of near-degeneracy that the star certificate must weigh:
    steps at and below its margin, a step within rounding of pi, nodes
    near or at the origin, or near-collinear node triples.  Some steps are
    flipped negative, so part of the family is not star-shaped."""
    n = int(rng.integers(8, 121))
    kind = rng.integers(5)
    steps = rng.uniform(0.2, 1.0, n)
    fixed = np.zeros(n, dtype=bool)
    if kind == 0:
        k = rng.choice(n, int(rng.integers(1, 4)), replace=False)
        steps[k] = 10.0 ** rng.uniform(-13.0, -9.0, len(k)) * rng.choice([-1.0, 1.0], len(k))
        fixed[k] = True
    elif kind == 1:
        k = int(rng.integers(n))
        steps[k] = np.pi + 10.0 ** rng.uniform(-15.0, -9.0) * rng.choice([-1.0, 1.0])
        fixed[k] = True
    free = 2.0 * np.pi - steps[fixed].sum()
    steps[~fixed] *= free / steps[~fixed].sum()
    theta = rng.uniform(-np.pi, np.pi) + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    r = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)
    if kind == 2:
        k = rng.choice(n, int(rng.integers(1, 4)), replace=False)
        r[k] = 10.0 ** rng.uniform(-9.0, -3.0, len(k))
    nodes = r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    if kind == 3:
        nodes[rng.integers(n)] = 0.0
    elif kind == 4:
        # node i on the chord of its neighbours, moved off it by a hair
        for i in rng.choice(n, int(rng.integers(1, 4)), replace=False):
            a, b = nodes[i - 1], nodes[(i + 1) % n]
            mid = 0.5 * (a + b)
            nodes[i] = mid * (1.0 + 10.0 ** rng.uniform(-15.0, -9.0) * rng.choice([-1.0, 1.0]))
    return nodes * 10.0 ** rng.choice([-8.0, 0.0, 6.0])


def test_check_simple_matches_area_and_all_pairs_oracle():
    rng = np.random.default_rng(20120307)
    kinds = ("noisy_star", "high_frequency_star", "grid_snapped", "random_walk")
    polygons = []
    for s in range(640):
        kind = kinds[s % 4]
        n = int(np.exp(rng.uniform(np.log(8), np.log(401))))
        nodes = _polygon_family(kind, n, rng)
        if len(nodes) >= 8:
            polygons.append(nodes)
    # the certified ones again at the extreme scales; the others run the
    # general test
    certified = [p for p in polygons if curve._star_certified(p, curve._wrapped_angle_steps(p))]
    scaled = [p * scale for p in certified for scale in (1e-8, 1e6)]
    rng = np.random.default_rng(1203)
    adversarial = [_adversarial_star(rng) for _ in range(400)]
    for family, cases in (("oracle", polygons), ("scaled", scaled), ("adversarial", adversarial)):
        for i, nodes in enumerate(cases):
            assert check_simple(nodes) is _check_simple_oracle(nodes), (family, i)
    assert len(certified) >= 40
    assert sum(curve._star_certified(p, curve._wrapped_angle_steps(p)) for p in scaled) \
        == len(scaled)
    assert sum(curve._star_certified(p, curve._wrapped_angle_steps(p))
               for p in adversarial) >= 150


def test_star_certificate_margin_and_origin():
    nodes = circle(32).nodes
    dang = curve._wrapped_angle_steps(nodes)
    assert curve._star_certified(nodes, dang)
    for step, certified in ((2e-12, True), (np.pi - 2e-12, True), (1e-12, False),
                            (np.pi - 1e-12, False), (0.0, False), (-1e-3, False),
                            (np.nan, False)):
        moved = dang * ((2.0 * np.pi - step) / (2.0 * np.pi - dang[5]))
        moved[5] = step
        assert curve._star_certified(nodes, moved) is certified, step
    short = dang.copy()
    short[0] -= 2e-9
    assert not curve._star_certified(nodes, short)
    for value in (0.0, 1e-146, 1e146, np.nan, np.inf):
        moved = nodes.copy()
        moved[4] *= value / np.hypot(*moved[4])
        assert not curve._star_certified(moved, dang), value


def test_certified_polygon_skips_the_general_test(monkeypatch):
    c = circle(64)

    def general(nodes):
        raise AssertionError("general test ran on a certified polygon")

    monkeypatch.setattr(curve, "signed_area", general)
    monkeypatch.setattr(curve, "_segments_intersect", general)
    assert check_simple(c) and check_simple(c.nodes)
    retract(c, np.full(64, 0.1))


def test_check_simple_rejects_non_finite_raw_nodes():
    c = circle(32)
    diagonal = 4  # node 4 lies on the diagonal, where inf keeps its angle
    for value in (np.nan, np.inf, -np.inf):
        for k in range(2):
            nodes = np.array(c.nodes)
            nodes[diagonal, k] = value
            assert check_simple(nodes) is False, (value, k)
    nodes = np.array(c.nodes)
    nodes[diagonal] = np.inf
    assert curve._star_certified(nodes, curve._wrapped_angle_steps(nodes)) is False
    with np.errstate(over="ignore"):
        assert check_simple(c.nodes * 1e308 * 10) is False


def test_angle_steps_are_shared_and_read_only():
    rng = np.random.default_rng(53)
    for c in _oracle_curves(rng):
        # the constructor's check_simple computed them
        assert c._angle_steps is not None
        assert np.array_equal(c.angle_steps, curve._wrapped_angle_steps(c.nodes))
        assert np.array_equal(c.angle_steps, _wrapped_angle_steps_roll(c.nodes))
        with pytest.raises(ValueError):
            c.angle_steps[0] = 1.0
        evaluate_mso(c, 2.0)
        assert c._polar[(2.0, "nodes")][0] is c.angle_steps
        moved = retract(c, 0.1 * c.chords.min() * rng.standard_normal(c.n_nodes))
        assert moved._angle_steps is not None
        fresh = DiscreteCurve(moved.nodes, params=c.params)
        assert np.array_equal(moved.angle_steps, fresh.angle_steps)
    unchecked = DiscreteCurve(figure_eight(), require_simple=False)
    assert unchecked._angle_steps is None
    assert np.array_equal(unchecked.angle_steps, _wrapped_angle_steps_roll(unchecked.nodes))


def test_wrapped_angle_steps_match_the_remainder_form_bit_for_bit():
    # node angles on a dense grid, with +-pi, +-0.0, their neighbouring
    # floats and the extremes of arctan2 (signed zeros, subnormal and
    # infinite coordinates, nan); consecutive nodes run through every
    # ordered pair of grid nodes, so every wrap branch and its edges occur
    theta = np.linspace(-np.pi, np.pi, 97)
    theta = np.concatenate([theta, np.nextafter(theta, 4.0), np.nextafter(theta, -4.0)])
    grid = np.column_stack([np.cos(theta), np.sin(theta)])
    tiny = 5e-324
    extremes = [[-1.0, 0.0], [-1.0, -0.0], [1.0, 0.0], [1.0, -0.0], [0.0, 0.0],
                [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, -1.0],
                [-1.0, tiny], [-1.0, -tiny], [tiny, -1.0], [-tiny, 1.0],
                [-np.inf, 0.0], [-np.inf, -0.0], [np.inf, np.inf], [-np.inf, -np.inf],
                [-np.inf, np.inf], [np.nan, 1.0]]
    grid = np.vstack([grid, extremes])
    m = len(grid)
    pairs = np.column_stack([np.repeat(np.arange(m), m), np.tile(np.arange(m), m)])
    nodes = grid[pairs.ravel()]
    with np.errstate(invalid="ignore"):
        branch, remainder = curve._wrapped_angle_steps(nodes), _wrapped_angle_steps_roll(nodes)
    assert np.array_equal(branch.view(np.int64), remainder.view(np.int64))
    # the steps reach both branches, the edges 0 and 2*pi of s = d + pi,
    # and d = -0.0
    ang = np.arctan2(nodes[:, 1], nodes[:, 0])
    d = np.roll(ang, -1) - ang
    s = d + np.pi
    assert np.any(s < 0.0) and np.any(s > 2.0 * np.pi)
    assert np.any(s == 0.0) and np.any(s == 2.0 * np.pi)
    # a negative s that rounds up to 2*pi once 2*pi is added stays there
    assert np.any((s < 0.0) & (s + 2.0 * np.pi == 2.0 * np.pi))
    assert np.any(np.signbit(d) & (d == 0.0))


def test_constructor_computes_signed_area_once(monkeypatch):
    calls = []
    original = curve.signed_area

    def counted(nodes):
        calls.append(len(nodes))
        return original(nodes)

    monkeypatch.setattr(curve, "signed_area", counted)
    # not certified (a node at the origin), so the general test runs
    notch = np.array([[0, 0], [4, 0], [4, 4], [3, 4], [2, 0], [1, 4], [0, 4], [0, 2]],
                     dtype=float)
    DiscreteCurve(notch)
    assert len(calls) == 1
    # a clockwise input is reversed, and the reversed polygon's area is new
    calls.clear()
    DiscreteCurve(notch[::-1])
    assert len(calls) == 2
    # out along the x axis and back: no proper crossing, area exactly 0
    calls.clear()
    flat = np.column_stack([[0, 1, 2, 3, 4, 3.5, 2.5, 1.5, 0.5], np.zeros(9)])
    assert original(flat) == 0.0 and not _segments_intersect(flat)
    with pytest.raises(ShapeDegenerate):
        DiscreteCurve(flat)
    assert len(calls) == 1


def test_retract_checks_crossings_before_coincident_nodes():
    # h[2] = -1 moves node 2 onto node 1, which leaves the edge (0,0)-(0,2);
    # h[8] moves node 8 across that edge, so the step also self-intersects
    c = DiscreteCurve([(-1, 0), (0, 0), (1, 0), (0, 2), (-1, 2), (-2, 2), (-3, 2),
                       (-1.5, 1.5), (0, 1)])
    h = np.zeros(9)
    h[2], h[8] = -1.0, -0.5
    nodes = c.nodes + h[:, None] * c.geometry.normal
    assert np.array_equal(nodes[1], nodes[2]) and nodes[8, 0] > 0.0
    with pytest.raises(ShapeDegenerate, match="self-intersects"):
        retract(c, h)


def test_signed_area_circle():
    assert abs(signed_area(circle(400, 1.5).nodes) - np.pi * 1.5 ** 2) < 2e-4 * np.pi


def test_as_field_validation():
    c = circle(16)
    out = as_field(c, [1.0] * 16)
    assert out.shape == (16,)
    with pytest.raises(DimensionMismatch):
        as_field(c, np.ones(15))
    with pytest.raises(DimensionMismatch):
        as_field(c, np.full(16, np.inf))


def test_circle_geometry():
    c = circle(100)
    geo = c.geometry
    radial = c.nodes / np.hypot(c.nodes[:, 0], c.nodes[:, 1])[:, None]
    # tangent is unit, perpendicular to the radius, counterclockwise
    npt.assert_allclose(np.hypot(geo.tangent[:, 0], geo.tangent[:, 1]), 1.0, atol=1e-14)
    assert np.max(np.abs(np.sum(geo.tangent * radial, axis=1))) < 1e-13
    assert np.min(radial[:, 0] * geo.tangent[:, 1] - radial[:, 1] * geo.tangent[:, 0]) > 0.99
    # normal is the outward radial direction
    assert np.min(np.sum(geo.normal * radial, axis=1)) > 1.0 - 1e-12
    npt.assert_allclose(geo.curvature, 1.0, atol=1.5e-3)
    assert abs(geo.weights.sum() - 2.0 * np.pi) < 1.6e-3
    assert np.all(geo.weights > 0.0)


def test_circle_geometry_scales_with_radius():
    geo = circle(100, 2.0).geometry
    npt.assert_allclose(geo.curvature, 0.5, atol=7.5e-4)
    assert abs(geo.weights.sum() - 4.0 * np.pi) < 3.2e-3


def test_curvature_on_nonuniform_parameterization():
    i = np.arange(100)
    theta = 2.0 * np.pi * (i / 100 + 0.03 * np.sin(2.0 * np.pi * i / 100))
    c = DiscreteCurve(np.column_stack([np.cos(theta), np.sin(theta)]), params=theta)
    npt.assert_allclose(c.geometry.curvature, 1.0, atol=2.1e-3)


def test_ellipse_axis_curvature():
    # semi-axes (1, 1/2): analytic curvature 4 at (1,0) and 1/2 at (0,1/2)
    geo = reference_ellipse(100, 2.0).geometry
    assert abs(geo.curvature[0] - 4.0) < 6e-3
    assert abs(geo.curvature[25] - 0.5) < 7.5e-4


def test_geometry_is_cached_and_frozen():
    c = circle(16)
    assert c.geometry is c.geometry
    with pytest.raises(ValueError):
        c.geometry.curvature[0] = 5.0


def test_tangential_second_derivative_oracles():
    c = circle(200)
    theta = c.params
    # on the unit circle arc length equals angle, so (cos)_tautau = -cos
    err1 = np.max(np.abs(tangential_second_derivative(c, np.cos(theta)) + np.cos(theta)))
    assert err1 < 1e-10
    err3 = np.max(np.abs(tangential_second_derivative(c, np.sin(3.0 * theta))
                         + 9.0 * np.sin(3.0 * theta)))
    assert err3 < 300.0 / 200 ** 2


def test_shift_helpers_match_roll():
    rng = np.random.default_rng(3)
    for shape in ((8,), (1601,), (8, 2), (1600, 2)):
        a = rng.standard_normal(shape)
        assert np.array_equal(shift_next(a), np.roll(a, -1, axis=0))
        assert np.array_equal(shift_prev(a), np.roll(a, 1, axis=0))
    strided = rng.standard_normal((50, 2))[:, 1]
    assert np.array_equal(shift_next(strided), np.roll(strided, -1))
    assert np.array_equal(shift_prev(strided), np.roll(strided, 1))


def test_row_norm_matches_linalg_norm():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, (2000, 2))
    extremes = np.array([[1e-200, 1e-200], [1e-200, 1.0], [1e200, 1e200], [1e200, -1e-200],
                         [np.inf, 1.0], [-np.inf, np.inf], [np.inf, np.nan],
                         [0.0, -0.0], [3.0, 4.0], [5e-324, 5e-324]])
    v = np.vstack([v, extremes])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert np.array_equal(row_norm(v), np.linalg.norm(v, axis=1), equal_nan=True)


# The roll-based forms below are the geometry, stencil and general-form
# diagonal as first written; the shift helpers must reproduce them bit for bit.

def _compute_geometry_roll(c):
    nodes = c.nodes
    fwd = np.roll(nodes, -1, axis=0) - nodes
    bwd = nodes - np.roll(nodes, 1, axis=0)
    central = np.roll(nodes, -1, axis=0) - np.roll(nodes, 1, axis=0)
    norms = np.linalg.norm(central, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateCurve("central difference stencil produced a zero tangent")
    tangent = central / norms[:, None]
    # rotate by -90 degrees: outward for counterclockwise orientation
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    weights = 0.5 * (np.linalg.norm(fwd, axis=1) + np.linalg.norm(bwd, axis=1))

    dp, dm = _param_gaps(c.params)
    fp = np.roll(nodes, -1, axis=0)
    fm = np.roll(nodes, 1, axis=0)
    den = (dm * dp * (dm + dp))[:, None]
    d1 = (dm[:, None] ** 2 * fp - dp[:, None] ** 2 * fm
          + ((dp ** 2 - dm ** 2))[:, None] * nodes) / den
    d2 = 2.0 * (dm[:, None] * fp + dp[:, None] * fm - (dm + dp)[:, None] * nodes) / den
    speed = np.linalg.norm(d1, axis=1)
    if np.any(speed == 0.0):
        raise DegenerateCurve("zero speed in curvature stencil")
    curvature = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
    return CurveGeometry(tangent, normal, curvature, weights)


def _tangential_second_derivative_roll(c, u):
    u = as_field(c, u, "u")
    dp = np.linalg.norm(np.roll(c.nodes, -1, axis=0) - c.nodes, axis=1)
    dm = np.roll(dp, 1)
    up = np.roll(u, -1)
    um = np.roll(u, 1)
    return 2.0 * (dm * up + dp * um - (dm + dp) * u) / (dm * dp * (dm + dp))


def _general_form_roll(curve, A, psi_kernels):
    """(d, mass) of HessianOperator.general_form, without its singularity test."""
    g = as_field(curve, psi_kernels[0], "psi")
    dpsi_dn = as_field(curve, psi_kernels[1], "dpsi_dn")
    geo = curve.geometry
    kappa, w = geo.curvature, geo.weights
    coeff = dpsi_dn + 0.5 * kappa * g - A * kappa ** 3 * g / (1.0 + A * kappa ** 2)
    fwd = np.roll(curve.nodes, -1, axis=0) - curve.nodes
    dp = np.sqrt(np.sum(fwd * fwd, axis=1))
    dm = np.roll(dp, 1)
    cm = 2.0 / (dm * (dm + dp))
    c0 = -2.0 / (dm * dp)
    cp = 2.0 / (dp * (dm + dp))
    E = g * A * kappa * w
    st_e = np.roll(E * cm, -1) + E * c0 + np.roll(E * cp, 1)
    return coeff * w - st_e, w


def _retract_roll(c, h, t=1.0):
    h = as_field(c, h, "h")
    geo = c.geometry
    nodes = c.nodes + float(t) * h[:, None] * geo.normal
    chord = np.roll(nodes, -1, axis=0) - np.roll(nodes, 1, axis=0)
    if np.any(np.sum(chord * geo.tangent, axis=1) <= 0.0):
        raise ShapeDegenerate("retraction reversed the local orientation of the curve")
    if not check_simple(nodes):
        raise ShapeDegenerate("retracted polygon self-intersects")
    return nodes


def _oracle_curves(rng):
    """Seeded star curves: equidistant, with non-uniform parameters, and
    the same nodes handed over clockwise so that __init__ reverses them."""
    for n in (8, 9, 16, 101, 400, 1600):
        c = random_star_curve(n, rng, amplitude=0.3)
        gaps = rng.uniform(0.5, 1.5, n)
        params = 2.0 * np.pi * (np.cumsum(gaps) - gaps[0]) / gaps.sum()
        yield c
        yield DiscreteCurve(c.nodes, params=params)
        clockwise = c.nodes[::-1]
        assert signed_area(clockwise) < 0.0
        yield DiscreteCurve(clockwise, params=params)


def test_geometry_matches_roll_form_bit_for_bit():
    rng = np.random.default_rng(29)
    f = VolumeFunctional.quadratic_mso(2.0)
    count = 0
    for c in _oracle_curves(rng):
        geo, ref = c.geometry, _compute_geometry_roll(c)
        for name in ("tangent", "normal", "curvature", "weights"):
            assert np.array_equal(getattr(geo, name), getattr(ref, name)), (c.n_nodes, name)
        u = rng.standard_normal(c.n_nodes)
        assert np.array_equal(tangential_second_derivative(c, u),
                              _tangential_second_derivative_roll(c, u))
        kernels = boundary_kernel(c, f)
        for A in (0.0, 0.5, 1.0):
            d, mass = _general_form_roll(c, A, kernels)
            try:
                H = HessianOperator.general_form(c, A, kernels)
            except SingularHessian:
                assert not np.abs(d).max() / np.abs(d).min() <= 1e12
                continue
            assert np.array_equal(H.d, d) and np.array_equal(H.mass, mass)
            count += 1
    assert count >= 40


def test_retract_matches_roll_form_tangent_test():
    rng = np.random.default_rng(31)
    verdicts = []
    for c in _oracle_curves(rng):
        n = c.n_nodes
        for scale in (0.01, 0.3, 2.0):
            h = scale * rng.standard_normal(n)
            try:
                expected = _retract_roll(c, h, 0.7)
            except ShapeDegenerate as exc:
                with pytest.raises(ShapeDegenerate) as info:
                    retract(c, h, 0.7)
                assert str(info.value) == str(exc)
                verdicts.append(str(exc))
                continue
            moved = retract(c, h, 0.7)
            assert np.array_equal(moved.nodes, expected)
            verdicts.append("accepted")
    assert verdicts.count("accepted") >= 10
    assert verdicts.count("retraction reversed the local orientation of the curve") >= 10

    # pulling both neighbours of node 1 onto it leaves a chord of exactly
    # zero there, which counts as reversed
    c = DiscreteCurve([(-1, 0), (0, 0), (1, 0), (0, 2), (-1, 2), (-2, 2), (-3, 2),
                       (-1.5, 1.5), (0, 1)])
    h = np.zeros(9)
    h[[0, 2]] = -1.0
    with pytest.raises(ShapeDegenerate, match="reversed"):
        _retract_roll(c, h)
    with pytest.raises(ShapeDegenerate, match="reversed"):
        retract(c, h)


def test_retract_moves_along_normals():
    c = circle(100)
    grown = retract(c, np.full(100, 0.5))
    npt.assert_allclose(np.hypot(grown.nodes[:, 0], grown.nodes[:, 1]), 1.5, atol=1e-12)
    npt.assert_array_equal(grown.params, c.params)
    same = retract(c, np.zeros(100), 0.7)
    npt.assert_array_equal(same.nodes, c.nodes)


def test_retract_rejects_inversion_through_center():
    with pytest.raises(ShapeDegenerate):
        retract(circle(100), -np.ones(100), 1.5)


def test_retract_rejects_folding_step():
    theta = circle(100).params
    with pytest.raises(ShapeDegenerate):
        retract(circle(100), 5.0 * np.sin(7.0 * theta), 1.0)


def test_stored_chords_match_recomputation():
    rng = np.random.default_rng(43)
    for c in _oracle_curves(rng):
        assert np.array_equal(c.chords, row_norm(shift_next(c.nodes) - c.nodes)), c.n_nodes
        assert c.chords.flags.c_contiguous


def test_stored_and_cached_arrays_are_read_only():
    c = circle(16)
    evaluate_mso(c, 2.0)
    arrays = [c.nodes, c.params, c.chords, *c._polar[(2.0, "nodes")], *c._quadratic[2.0]]
    moved = retract(c, np.full(16, 0.1))
    distance_bar(moved, 2.0)
    boundary_kernel(moved, VolumeFunctional.quadratic_mso(3.0))
    arrays += [moved.nodes, moved.params, moved.chords, *moved._polar[(2.0, "nodes")],
               *moved._quadratic[2.0], *moved._quadratic[3.0]]
    assert len(arrays) == 28
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 5.0


def test_retracted_curve_starts_empty_and_matches_a_fresh_curve():
    rng = np.random.default_rng(47)
    for c in _oracle_curves(rng):
        evaluate_mso(c, 2.0)  # the parent's polar cache is filled first
        moved = retract(c, 0.1 * c.chords.min() * rng.standard_normal(c.n_nodes))
        assert moved._geometry is None and moved._polar == {} and moved._quadratic == {}
        assert moved._candidate is None and c._candidate is None
        assert moved.params is c.params and moved._stencil is c._stencil
        # the arrays it carries: those of the admission, nothing more
        carried = {name for name, value in vars(moved).items()
                   if isinstance(value, np.ndarray)}
        assert carried == {"nodes", "params", "chords", "_angle_steps"}
        fresh = DiscreteCurve(moved.nodes, params=c.params)
        assert np.array_equal(moved.nodes, fresh.nodes)
        assert np.array_equal(moved.params, fresh.params)
        assert np.array_equal(moved.chords, fresh.chords)
        for name in ("tangent", "normal", "curvature", "weights"):
            assert np.array_equal(getattr(moved.geometry, name),
                                  getattr(fresh.geometry, name)), name
        for mu in (2.0, 3.0):
            assert evaluate_mso(moved, mu) == evaluate_mso(fresh, mu)
            assert distance_bar(moved, mu) == distance_bar(fresh, mu)


def test_retract_rejects_coincident_and_overflowing_nodes():
    # node 2's normal is exactly (1, -0), so h = -1 moves it onto node 1; the
    # moved polygon passes the tangent test and check_simple
    c = DiscreteCurve([(-1, 0), (0, 0), (1, 0), (0, 2), (-1, 2), (-2, 2), (-3, 2),
                       (-1.5, 1.5), (0, 1)])
    h = np.zeros(9)
    h[2] = -1.0
    with pytest.raises(DegenerateCurve, match="consecutive nodes coincide"):
        retract(c, h)
    # one node or every node moved to inf; check_simple never sees them
    c = circle(32)
    one = np.zeros(32)
    one[3] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        for h in (one, np.full(32, 1e308)):
            with pytest.raises(DegenerateCurve, match="non-finite"):
                retract(c, h, 10.0)


def test_retract_checks_a_kept_candidate_as_a_fresh_polygon():
    # a candidate that the line search built at the step still runs every
    # check of retract, which raises as without it and drops it
    c = DiscreteCurve([(-1, 0), (0, 0), (1, 0), (0, 2), (-1, 2), (-2, 2), (-3, 2),
                       (-1.5, 1.5), (0, 1)])
    reversing, coincident = np.zeros(9), np.zeros(9)
    reversing[[0, 2]] = -1.0
    coincident[2] = -1.0
    one = np.zeros(32)
    one[3] = 1e308
    cases = [(c, reversing, 1.0, ShapeDegenerate, "reversed"),
             (c, coincident, 1.0, DegenerateCurve, "consecutive nodes coincide"),
             (circle(32), one, 10.0, DegenerateCurve, "non-finite"),
             (circle(32), np.full(32, 1e308), 10.0, DegenerateCurve, "non-finite"),
             (circle(100), -np.ones(100), 1.5, ShapeDegenerate, "reversed"),
             (circle(100), 5.0 * np.sin(7.0 * circle(100).params), 1.0, ShapeDegenerate,
              "reversed|self-intersects")]
    with np.errstate(over="ignore", invalid="ignore"):
        for src, h, t, error, message in cases:
            kept = curve._retraction_candidate(src, h, t)
            assert src._candidate[2] is kept
            with pytest.raises(error, match=message):
                retract(src, h, t)
            assert src._candidate is None


def test_retract_reuses_a_candidate_only_at_its_own_step():
    rng = np.random.default_rng(59)
    c = random_star_curve(64, rng, amplitude=0.2)
    h = 0.05 * rng.standard_normal(64)
    h[5] = 0.0
    signed = h.copy()
    signed[5] = -0.0
    mutated = h.copy()
    for other_h, other_t in ((h, 0.7000000000000001), (h, 0.69), (2.0 * h, 0.7),
                             (signed, 0.7), (mutated, 0.7)):
        kept = curve._retraction_candidate(c, h, 0.7)
        if other_h is mutated:
            mutated[7] += 1e-3  # the kept copy holds h as it was
        moved = retract(c, other_h, other_t)
        assert moved is not kept and c._candidate is None
        fresh = retract(c, other_h, other_t)
        assert np.array_equal(moved.nodes.view(np.int64), fresh.nodes.view(np.int64))
    kept = curve._retraction_candidate(c, h, 0.7)
    assert retract(c, h.copy(), 0.7) is kept


def test_retracted_curves_share_the_stencil_weights():
    rng = np.random.default_rng(61)
    for c in _oracle_curves(rng):
        c.geometry
        moved = retract(c, 0.1 * c.chords.min() * rng.standard_normal(c.n_nodes))
        moved = retract(moved, 0.1 * moved.chords.min() * rng.standard_normal(c.n_nodes))
        assert moved._stencil is c._stencil
        fresh = curve._stencil_weights(moved.params)
        assert len(fresh) == len(c._stencil)
        for carried, computed in zip(c._stencil, fresh):
            assert np.array_equal(carried, computed)
        rebuilt = DiscreteCurve(moved.nodes, params=c.params)
        for name in ("tangent", "normal", "curvature", "weights"):
            assert np.array_equal(getattr(moved.geometry, name),
                                  getattr(rebuilt.geometry, name)), name


def test_csv_roundtrip_exact(tmp_path):
    c = circle(32, 1.3)
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    back = DiscreteCurve.from_csv(path)
    npt.assert_array_equal(back.nodes, c.nodes)


def _curve_csv_rowloop(nodes):
    return "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in nodes)


def _curve_json_rowloop(nodes):
    return json.dumps({"nodes": [[float(x), float(y)] for x, y in nodes]}) + "\n"


def test_serialization_bytes_match_row_loop(tmp_path):
    rng = np.random.default_rng(37)
    curves = [random_star_curve(n, rng) for n in (8, 100, 1600)]
    odd = circle(16).nodes.copy()
    odd[0] = [1.0, -0.0]
    odd[4] = [1e-17, 1.0]
    odd[8] = [-1.0, 1e-17]
    curves.append(DiscreteCurve(odd))
    for c in curves:
        c.to_csv(tmp_path / "c.csv")
        c.to_json(tmp_path / "c.json")
        assert (tmp_path / "c.csv").read_bytes() == _curve_csv_rowloop(c.nodes).encode()
        assert (tmp_path / "c.json").read_bytes() == _curve_json_rowloop(c.nodes).encode()
    assert b"-0.0" in (tmp_path / "c.csv").read_bytes()
    assert b"1e-17" in (tmp_path / "c.json").read_bytes()


def test_json_roundtrip_exact(tmp_path):
    c = circle(32, 0.8)
    path = tmp_path / "curve.json"
    c.to_json(path)
    back = DiscreteCurve.from_json(path)
    npt.assert_array_equal(back.nodes, c.nodes)


def test_segments_intersect_is_scale_invariant():
    assert _segments_intersect(figure_eight() * 1e-8)
