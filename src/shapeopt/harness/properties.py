"""Seeded, named checks of the library's numerical claims.

Each claim is measured by one function that returns its value(s) as
floats (a worst case over random draws where randomness applies).
`run_property_suite` compares every value against a fixed bound and
returns and writes a machine-readable report; the acceptance tests assert
the same functions' values, so `verify` and the tests share one
implementation per claim.  Failures are report entries, never
exceptions, so a run always produces the full list.
"""

import json
from pathlib import Path

import numpy as np

from ..calculus import (hessian_at_solution, riemannian_hessian_form,
                        taylor_remainder_probe)
from ..curve import DiscreteCurve, retract
from ..functional import (VolumeFunctional, boundary_kernel, distance_bar,
                          evaluate_general, evaluate_mso)
from ..metric import inner, norm, riesz_gradient
from ..solver import (NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT, SolverConfig,
                      optimize)
from .experiment import initial_shape, reference_ellipse

TAYLOR_MUS = (1.0, 1.3, 1.6, 2.0, 2.5, 3.0, 1.15, 1.8, 2.2, 2.8)
TAYLOR_T = (0.04, 0.02, 0.01)


def random_star_curve(n, rng, amplitude=0.15):
    """Random smooth star-shaped curve: unit radius plus a few low-order
    harmonics with coefficients in [-amplitude, amplitude].  The radius
    stays positive, so the curve is simple by construction."""
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + amplitude * (rng.uniform(-1, 1) * np.cos(th)
                           + rng.uniform(-1, 1) * np.sin(th)
                           + rng.uniform(-1, 1) * np.cos(2 * th)
                           + rng.uniform(-1, 1) * np.sin(2 * th)
                           + rng.uniform(-1, 1) * np.cos(3 * th))
    nodes = r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
    return DiscreteCurve(nodes)


def low_frequency_field(n, rng):
    """Random normal field with harmonics up to order two, scaled to unit
    maximum; smooth enough that discretization error stays second order."""
    th = 2.0 * np.pi * np.arange(n) / n
    a = rng.standard_normal(5)
    v = (a[0] + a[1] * np.cos(th) + a[2] * np.sin(th)
         + a[3] * np.cos(2 * th) + a[4] * np.sin(2 * th))
    return v / np.max(np.abs(v))


def taylor_slope(f, c, A, h, t_list=TAYLOR_T):
    """Log-log slope of the quadratic-model remainder over t_list."""
    probes = taylor_remainder_probe(f, c, A, h, t_list)
    ts = np.array([t for t, _ in probes])
    rem = np.array([r for _, r in probes])
    return float(np.polyfit(np.log(ts), np.log(rem), 1)[0])


def _entry(name, value, comparator, bound):
    passed = {
        "<": value < bound,
        "<=": value <= bound,
        ">": value > bound,
        ">=": value >= bound,
    }[comparator]
    return {"name": name, "value": value, "comparator": comparator,
            "bound": bound, "passed": bool(passed)}


def hessian_asymmetry(seed):
    """Largest relative asymmetry |H(a,b) - H(b,a)| / max(|H(a,b)|, |H(b,a)|)
    of the covariant Hessian form at A=1, over 100 seeded field pairs on
    10 random star curves."""
    f = VolumeFunctional.quadratic_mso(2.0)
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(seed + 1000 + i)
        c = random_star_curve(100, rng)
        kernels = boundary_kernel(c, f)
        for _ in range(10):
            alpha, beta = rng.standard_normal((2, 100))
            ab = riemannian_hessian_form(c, 1.0, kernels, alpha, beta)
            ba = riemannian_hessian_form(c, 1.0, kernels, beta, alpha)
            worst = max(worst, abs(ab - ba) / max(abs(ab), abs(ba), 1e-300))
    return worst


def multiplication_gaps(seed):
    """(gap, nu range deviation) at the optimal ellipse for mu=2: the largest
    relative gap between the Hessian form and the multiplication operator
    nu over 50 seeded pairs, and the distance of nu's range from [2, 4]."""
    c = reference_ellipse(100, 2.0)
    f = VolumeFunctional.quadratic_mso(2.0)
    kernels = boundary_kernel(c, f)
    nu = hessian_at_solution(c, 2.0).d
    w = c.geometry.weights
    rng = np.random.default_rng(seed + 500)
    worst = 0.0
    for _ in range(50):
        alpha, beta = rng.standard_normal((2, 100))
        form = riemannian_hessian_form(c, 0.0, kernels, alpha, beta)
        direct = float(np.sum(nu * alpha * beta * w))
        worst = max(worst, abs(form - direct) / max(abs(form), abs(direct), 1e-300))
    nu_dev = max(abs(float(nu.min()) - 2.0), abs(float(nu.max()) - 4.0))
    return worst, nu_dev


def gradient_fd_error(seed):
    """Largest relative error of the forward difference (eps=1e-3) under
    retraction against the boundary-kernel pairing, over 20 seeded
    curve and direction draws at N=200."""
    f = VolumeFunctional.quadratic_mso(2.0)
    eps = 1e-3
    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(seed + 200 + t)
        c = random_star_curve(200, rng)
        g, _ = boundary_kernel(c, f)
        h = low_frequency_field(200, rng)
        pred = inner(c, 0.0, g, h)
        # reject directions nearly orthogonal to the kernel: the relative
        # error of a near-zero predicted derivative measures cancellation,
        # not gradient correctness
        while abs(pred) < 0.1 * norm(c, 0.0, g) * norm(c, 0.0, h):
            h = low_frequency_field(200, rng)
            pred = inner(c, 0.0, g, h)
        fd = (evaluate_general(retract(c, h, eps), f) - evaluate_general(c, f)) / eps
        worst = max(worst, abs(fd - pred) / abs(pred))
    return worst


def taylor_slopes(seed):
    """Taylor-remainder slope at the optimal ellipse of each mu in
    TAYLOR_MUS, along a seeded unit-norm direction at N=600."""
    slopes = []
    for i, mu in enumerate(TAYLOR_MUS):
        rng = np.random.default_rng(seed + 300 + i)
        c = reference_ellipse(600, mu)
        f = VolumeFunctional.quadratic_mso(mu)
        h = low_frequency_field(600, rng)
        h = h / norm(c, 0.0, h)
        slopes.append(taylor_slope(f, c, 0.0, h))
    return slopes


def _mso_general_gap(seed):
    f = VolumeFunctional.quadratic_mso(2.0)
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(seed + 100 + s)
        c = random_star_curve(16000, rng)
        polar = evaluate_mso(c, 2.0, angles="stretched")
        fan = evaluate_general(c, f)
        worst = max(worst, abs(polar - fan) / abs(fan))
    return worst


def _coercivity_min(seed):
    c = reference_ellipse(100, 2.0)
    f = VolumeFunctional.quadratic_mso(2.0)
    kernels = boundary_kernel(c, f)
    w = c.geometry.weights
    rng = np.random.default_rng(seed + 400)
    low = np.inf
    for _ in range(20):
        alpha = rng.standard_normal(100)
        q = riemannian_hessian_form(c, 0.0, kernels, alpha, alpha)
        low = min(low, q / float(np.sum(alpha ** 2 * w)))
    return low


def discretization_ratios():
    """(curvature, perimeter, objective) error ratios from N=100 to N=200:
    curvature and perimeter of the unit circle, objective of the optimal
    ellipse for mu=2; second order gives about 4."""
    f = VolumeFunctional.quadratic_mso(2.0)
    err = {}
    for n in (100, 200):
        t = 2.0 * np.pi * np.arange(n) / n
        geo = DiscreteCurve(np.column_stack([np.cos(t), np.sin(t)])).geometry
        err[n] = (float(np.max(np.abs(geo.curvature - 1.0))),
                  abs(float(geo.weights.sum()) - 2.0 * np.pi),
                  abs(evaluate_general(reference_ellipse(n, 2.0), f) + np.pi / 4.0))
    return tuple(e100 / e200 for e100, e200 in zip(err[100], err[200]))


def _retraction_deviation():
    # Step small enough to stay inside the caustic of the normal map;
    # larger inward steps near the neck legitimately raise ShapeDegenerate.
    c = initial_shape(100)
    rng = np.random.default_rng(7)
    h = low_frequency_field(100, rng)
    moved = retract(c, h, 0.1)
    expect = c.nodes + 0.1 * h[:, None] * c.geometry.normal
    return float(np.max(np.abs(moved.nodes - expect)))


def _solver_checks():
    f = VolumeFunctional.quadratic_mso(2.0)
    c0 = initial_shape(100)
    entries = []
    finals = {}
    for method, tag in ((STEEPEST_DESCENT, "sd"), (NEWTON_MULTIPLICATIVE, "newton")):
        records = optimize(c0, f, SolverConfig(method=method))
        finals[tag] = records
        c_final = DiscreteCurve(records[-1].nodes, require_simple=False)
        g, _ = boundary_kernel(c_final, f)
        entries.append(_entry(f"{tag}_final_gradient_norm",
                              norm(c_final, 0.0, riesz_gradient(c_final, 0.0, g)),
                              "<", 1e-5))
    early = [r.objective for r in finals["sd"][:11]]
    entries.append(_entry("sd_monotone_min_early_decrease",
                          min((a - b for a, b in zip(early, early[1:])), default=-np.inf),
                          ">", 0.0))
    ratios = [r.contraction_ratio for r in finals["newton"]
              if r.contraction_ratio is not None]
    tail = ratios[-3:]
    entries.append(_entry("newton_contraction_monotone_max_diff",
                          max((b - a for a, b in zip(tail, tail[1:])), default=np.inf),
                          "<", 0.0))
    return entries


def run_property_suite(spec):
    """Execute every named check with the spec's seed and write the JSON
    report to spec.output_dir/properties.json.  Returns the report dict;
    failures appear as entries with passed = false."""
    seed = spec.seed
    gap, nu_dev = multiplication_gaps(seed)
    slopes = taylor_slopes(seed)
    kappa_ratio, perimeter_ratio, objective_ratio = discretization_ratios()
    checks = [
        _entry("hessian_symmetry_max_relative_asymmetry", hessian_asymmetry(seed),
               "<", 1e-12),
        _entry("multiplication_consistency_max_relative_gap", gap, "<", 1e-6),
        _entry("nu_range_deviation", nu_dev, "<=", 1e-3),
        _entry("gradient_fd_max_relative_error", gradient_fd_error(seed), "<", 1e-2),
        _entry("taylor_min_slope", min(slopes), ">=", 2.5),
        _entry("taylor_max_slope", max(slopes), "<=", 3.5),
        _entry("mso_general_max_relative_gap", _mso_general_gap(seed), "<", 1e-6),
        _entry("coercivity_min_rayleigh", _coercivity_min(seed), ">=", 1.9),
        _entry("distance_bar_at_solution",
               distance_bar(reference_ellipse(100, 2.0), 2.0), "<", 1e-6),
        _entry("curvature_error_ratio", kappa_ratio, ">=", 3.5),
        _entry("perimeter_error_ratio", perimeter_ratio, ">=", 3.5),
        _entry("objective_error_ratio", objective_ratio, ">=", 3.5),
        _entry("retraction_rigidity_max_deviation", _retraction_deviation(), "<=", 0.0),
        *_solver_checks(),
    ]
    report = {"seed": spec.seed, "passed": all(e["passed"] for e in checks),
              "checks": checks}
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "properties.json"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    report["path"] = str(path)
    return report
