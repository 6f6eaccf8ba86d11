"""Descent loops on the shape manifold: step directions, exact line
search, the optimize driver, and convergence diagnostics.

An iteration is direction -> line search -> retract.  Directions are the
negative Riesz gradient (steepest descent) or a Newton step from one of
the two Hessian representations in ``calculus``, solved against the
derivative density and so free of the metric.  The one step rule, the
exact line search, chooses a step parameter in (0, BRACKET_MAX] on the
STEP_RESOLUTION grid (0.01): a short safeguarded parabolic search
decides that snapped step first, and bracketing by doubling plus golden
section, run to a bracket TOLERANCE (1e-10) wide, takes over when it
cannot.  For the quadratic objective family it minimizes an exactly
differenced objective, so step lengths remain meaningful even when the
objective decrease is far below the rounding noise of the objective
value itself.  That objective (``functional.mso_step_objective``) sums
per-node increments only: the radial change of P, a quartic in t, and
the turn of each node's angle, weighted by constants of the search set
up once, with no telescoping sum of nearly equal terms left to cancel; a
probe is one angular pass and a (5, N) matrix-vector product.  Its
set-up also gives the exact slope and curvature of the decrease at
t = 0; other functionals take the nodal model of the boundary kernel.
The parabolic search opens at the grid point that this quadratic model
(Nocedal and Wright, Numerical Optimization, section 3.5) puts the
minimizer at, and takes about 3.7 probes on the packaged runs.  Its
snapped step is the one the full-precision search would return when the
objective is unimodal along the step, and a parabolic search that cannot
certify its grid point hands over to that reference search: bracketing,
golden section to TOLERANCE, then the snap.
The line search only chooses the step; ``retract`` builds the iterate at
it and admits or rejects it, once per step.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from statistics import median

import numpy as np

from .calculus import HessianOperator, riemannian_hessian_form, solve_hessian
from .curve import _CheckedField, retract
from .errors import (DegenerateCurve, InsufficientData, LineSearchFailed,
                     NotStarShaped, ProjectionFailed, ShapeDegenerate,
                     ShapeOptError)
from .functional import (boundary_kernel, distance_bar, distance_tilde,
                         mso_step_objective)
from .metric import check_A, norm, riesz_gradient

STEEPEST_DESCENT = "steepest-descent"
NEWTON_MULTIPLICATIVE = "newton-multiplicative"
NEWTON_GENERAL_FORM = "newton-general-form"
METHODS = (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE, NEWTON_GENERAL_FORM)
STOP_REASONS = ("distance", "step", "max_iterations")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# the exact line search probes step parameters in (0, BRACKET_MAX],
# snaps the step it returns to the STEP_RESOLUTION grid unless that
# destroys the decrease, and runs golden section to a bracket TOLERANCE
# wide.  The 0.01 grid suppresses sub-noise variation of the step
# parameter and matches the granularity of the recorded reference
# trajectories the regression tests compare against.
BRACKET_MAX = 2.0
TOLERANCE = 1e-10
STEP_RESOLUTION = 0.01
# probes the parabolic search for the snapped step may spend, in its
# model-seeded opening and again in its loop, before it hands over to
# bracketing and golden section
SNAP_PROBES = 12


@dataclass(frozen=True)
class SolverConfig:
    method: str = STEEPEST_DESCENT
    A: float = 0.0
    max_iterations: int = 50
    stop_distance: float = 1e-7

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.stop_distance > 0.0:
            raise ValueError("stop_distance must be positive")
        check_A(self.A)  # rejects a negative or non-finite A now, not at first use


@dataclass
class IterationRecord:
    """One row of an optimization run.

    distance is present when a distance surrogate is available (see
    ``optimize``); step fields are absent on the final row unless an
    error ended the run after the step was chosen.
    contraction_ratio on row k is |step_{k+1}| / |step_k| and
    quadratic_ratio is distance_{k+1} / distance_k**2, both filled in
    retroactively once the next iterate exists.  stop is set on the last
    row only: one of STOP_REASONS, or "<ClassName>: <message>" of the
    error that ended the run.
    """
    index: int
    objective: float
    nodes: np.ndarray
    distance: float = None
    step_scale: float = None
    step_norm: float = None
    contraction_ratio: float = None
    quadratic_ratio: float = None
    stop: str = None


def step_direction(c, f, config):
    """Descent direction of f at c for the configured method.

    Steepest descent returns the negative Riesz gradient in the A-metric.
    The Newton methods solve hess(delta, .) = -df(.) against the
    derivative density g, which holds no metric: the multiplicative step
    -g/nu, with nu = dpsi_dn along the current curve, is the same for
    every A; the general form uses the full covariant Hessian.  Each
    kernel field is validated once.
    """
    g, dpsi_dn = boundary_kernel(c, f)
    if config.method == STEEPEST_DESCENT:
        return -riesz_gradient(c, config.A, g)
    if config.method == NEWTON_MULTIPLICATIVE:
        H = HessianOperator.multiplication(c, dpsi_dn)
    else:
        g = _CheckedField(c, g, "psi")
        H = HessianOperator.general_form(c, config.A, (g, dpsi_dn))
    return -solve_hessian(H, g)


def _decrease_function(c, f, checked):
    """(phi, model): phi(t) = f(r_c(t*h)) - f(c) as a callable, for the
    ``_CheckedField`` h on c, used as given, and the model
    [phi'(0), phi''(0)] of the decrease.

    The quadratic family uses the exactly differenced polar objective,
    whose set-up gives the exact model.  Other functionals evaluate the
    fan quadrature on the moved polygon, with inadmissible probes scored
    +inf so brackets shrink below them, and take the nodal model of
    ``calculus.taylor_remainder_probe``: the pairing sum g h w and the
    covariant Hessian form hess(h, h) at A = 0 of the boundary kernel
    (g, dpsi_dn), which is not validated again.
    """
    if f.is_quadratic_mso:
        model = []
        return mso_step_objective(c, checked, f.mu, model), model
    g, dpsi_dn = boundary_kernel(c, f)
    model = [float((g * checked.values * c.geometry.weights).sum()),
             riemannian_hessian_form(c, 0.0, (g, dpsi_dn), checked, checked)]
    f0 = f.evaluate(c)

    def phi(t):
        try:
            moved = retract(c, checked, t)
            return f.evaluate(moved) - f0
        except (DegenerateCurve, ShapeDegenerate, NotStarShaped):
            return np.inf

    return phi, model


def line_search_exact(c, f, direction):
    """Step parameter minimizing f along the retracted direction.

    The reference search finds a decrease at t0 = 1e-3, halving t0 while
    it fails to decrease.  Then it brackets a descent interval by
    doubling from t0 up to BRACKET_MAX, refines with golden section to a
    bracket TOLERANCE wide, and snaps to the grid h = STEP_RESOLUTION
    when that preserves the decrease.  It raises LineSearchFailed when no
    probed step above TOLERANCE decreases the objective, or when the
    midpoint of the collapsed bracket does not.  phi(t), the decrease at
    t, is probed at most once per t in one search.  The direction is
    validated once, unless it is a ``_CheckedField`` already, used as
    given; the probes take it so.  A custom functional without
    ``grad_psi`` has no model and raises the kernel's ValueError.

    When the model's slope phi'(0) is negative, a parabolic search
    (``_snap_by_parabolas``) opened at the grid point nearest the model's
    minimizer runs first.  With tol = TOLERANCE, it probes until the
    lowest probe p2 and its probed neighbours p1 < p2 < p3 satisfy
    round((p1 - 2*tol)/h) == round((p3 + 2*tol)/h) == k, then returns k*h
    if 0 < k*h <= BRACKET_MAX and phi(k*h) < 0.  When p2 is the largest
    probe, BRACKET_MAX stands in for p3, without the margin: golden
    section's brackets never pass BRACKET_MAX.  It hands over to the
    reference search, which runs unchanged on the probes already made,
    when no probe decreases phi, k is 0, a probe is nan, the snap fails
    or the probe budget SNAP_PROBES is spent.  A handover so returns
    exactly what the reference search returns, error included; without a
    negative slope the reference search runs alone.

    The parabolic search returns the reference search's float whenever
    phi is unimodal on [0, BRACKET_MAX]: strictly decreasing up to its
    first minimizer A, non-decreasing after it, +inf included, and
    negative on (0, A + tol].  Every golden-section bracket then
    contains A, since its tie rule keeps the left part; and A lies in
    (p1, p3), since p2 is the leftmost lowest probe and p1 lies left of
    it and higher (A <= BRACKET_MAX when BRACKET_MAX stands in for p3).
    Golden section's last bracket is at most tol wide, so it lies inside
    [p1 - 2*tol, p3 + 2*tol], and inside [p1 - 2*tol, BRACKET_MAX] when
    BRACKET_MAX stands in for p3, either of which rounds to k as a whole.
    Its midpoint t_star, within tol of A, so decreases phi and rounds to
    k: the reference search tries the same k*h, with the same test.
    None of this depends on where the probes lie, so the model need not
    be exact.

    For the quadratic family the probes skip admissibility checks (the
    loop validates the accepted step when retracting), so BRACKET_MAX
    should be kept small enough that probed polygons stay star-shaped;
    where they do not, phi stops being unimodal.  The search builds no
    polygon: ``retract`` builds the iterate at the returned step and
    admits or rejects it.

    Each probe of the quadratic family costs four O(N) array passes, one
    of them an arctan2, and a (5, N) matrix-vector product:
    ``mso_step_objective`` computes once per search what does not depend
    on t, and sums increments that carry no constant to cancel (see its
    docstring), so a decrease far below the objective's rounding noise
    is resolved to near full relative precision.
    """
    checked = _CheckedField(c, direction, "direction")
    if not checked.values.any():
        raise LineSearchFailed("zero direction")
    return _line_search(*_decrease_function(c, f, checked))


def _line_search(decrease, model):
    """The search that ``line_search_exact`` describes and proves, for
    phi = decrease, a function of t alone, and the model [phi'(0),
    phi''(0)].  Its one record of the probes is the ledger ts, fs:
    each t probed, in increasing order, and phi(t), with phi(0) = 0
    first; phi calls decrease at most once per t."""
    ts, fs = [0.0], [0.0]

    def phi(t):
        i = bisect_left(ts, t)
        if i == len(ts) or ts[i] != t:
            fs.insert(i, float(decrease(t)))
            ts.insert(i, t)
        return fs[i]

    if model[0] < 0.0:
        t_snap = _snap_by_parabolas(phi, ts, fs, model)
        if t_snap is not None:
            return t_snap

    t0, f0 = 1e-3, phi(1e-3)
    while f0 >= 0.0 and t0 > TOLERANCE:
        t0 *= 0.5
        f0 = phi(t0)
    if f0 >= 0.0 or not math.isfinite(f0):
        raise LineSearchFailed(
            f"no decrease along the direction for any t >= {TOLERANCE:g}")

    lo, a, fa = 0.0, t0, f0
    b = min(2.0 * t0, BRACKET_MAX)
    fb = phi(b)
    while fb < fa and b < BRACKET_MAX:
        lo, a, fa = a, b, fb
        b = min(2.0 * b, BRACKET_MAX)
        fb = phi(b)
    hi = b

    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    while hi - lo > TOLERANCE:
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
    t_snap = _grid_step(phi, round(t_star / STEP_RESOLUTION))
    return float(t_star) if t_snap is None else t_snap


def _grid_step(phi, k):
    """k*h as a float, h = STEP_RESOLUTION, when 0 < k*h <= BRACKET_MAX
    and phi(k*h) < 0, else None: the test that accepts every snapped
    step.  phi is probed only at a k*h in range."""
    t = k * STEP_RESOLUTION
    if 0.0 < t <= BRACKET_MAX and phi(t) < 0.0:
        return float(t)
    return None


def _snap_by_parabolas(phi, ts, fs, model):
    """The snapped step k * STEP_RESOLUTION decided by safeguarded
    parabolic interpolation, or None to hand over to bracketing and golden
    section.  ts, fs is the probe ledger of ``_line_search``, which phi
    fills.

    The model [phi'(0), phi''(0)], with phi'(0) < 0, seeds the search
    (``_open_by_model``); when none of its opening probes decreases phi,
    None is returned.

    Let p2 be the lowest probe (the leftmost of equal ones) and p1 < p2 < p3
    its probed neighbours, with p1 = 0, where phi is 0, when p2 is the
    smallest probe, and p3 = BRACKET_MAX when p2 is the largest: golden
    section's brackets never pass BRACKET_MAX.  With h = STEP_RESOLUTION
    and tol = TOLERANCE, k = round(p2 / h) is decided once
    [p1 - 2*tol, p3 + 2*tol] rounds to k as a whole, or
    [p1 - 2*tol, BRACKET_MAX] when BRACKET_MAX stands in for p3.  Until
    then each probe is the vertex of the parabola through the three
    lowest probes (Brent's choice), with these safeguards:

    - a vertex within h of p2 gives way to the far edge of its own grid
      cell, and one within h/8 of p2 (which confirms p2) to the edge of
      p2's cell on a side whose neighbour is still outside it; each edge
      is inset by h/1024 + 2*tol.  The bracket so closes on a cell
      instead of creeping up on the minimizer from one side.
    - a vertex h or more away from p2 gives way to its nearest grid
      point, which the snap would probe anyway, unless that is probed
      already or outside (p1, p3).
    - the wider side of p2 is bisected when the vertex is not finite,
      not strictly inside (p1, p3) or already probed, or when the last
      two probes have not halved p3 - p1; when BRACKET_MAX stands in for
      p3, the probe steps right from p2 by p2 - p1 instead, at most half
      way to BRACKET_MAX.
    - when p2 is at BRACKET_MAX, the left edge of its cell, inset as
      above, is probed, which decides k = round(p2 / h) if it is higher
      than p2: the first minimizer then lies in (edge, BRACKET_MAX],
      which rounds to k as a whole.

    None is returned when a probe is nan, k is 0, k*h lies above
    BRACKET_MAX or does not decrease phi, the inset edge of BRACKET_MAX's
    cell is not below BRACKET_MAX, or SNAP_PROBES probes leave k
    undecided.  Where the probes lie does not matter to the proof in
    ``line_search_exact``, only that p2 is the lowest probe and p1, p3
    its neighbours.
    """
    h = STEP_RESOLUTION
    margin = 2.0 * TOLERANCE
    inset = h / 1024.0 + margin
    if not _open_by_model(phi, inset, *model):
        return None
    widths = [np.inf, np.inf]  # p3 - p1 before each of the last two probes
    for _ in range(SNAP_PROBES):
        j = fs.index(min(fs))
        p1, p2 = ts[j - 1:j + 1]
        # BRACKET_MAX stands in for the right neighbour of the largest
        # probe, with no margin: golden section's brackets never pass it
        if j + 1 < len(ts):
            p3, right_end = ts[j + 1], ts[j + 1] + margin
        else:
            p3 = right_end = BRACKET_MAX
        f2 = fs[j]
        k = round(p2 / h)
        left_in = round((p1 - margin) / h) == k
        right_in = round(right_end / h) == k
        if left_in and right_in:
            return _grid_step(phi, k)
        if p2 == BRACKET_MAX:
            # the left edge of BRACKET_MAX's cell, inset into it
            u = (k - 0.5) * h + inset
            if not p1 < u < p2 or math.isnan(phi(u)):
                return None
            continue
        u = np.nan
        if len(ts) > 2:
            (w, fw), (v, fv) = sorted(zip(ts, fs), key=lambda p: p[1])[1:3]
            a, b = p2 - w, p2 - v
            den = a * (f2 - fv) - b * (f2 - fw)
            if den:
                u = p2 - 0.5 * (a * a * (f2 - fv) - b * b * (f2 - fw)) / den
        if abs(u - p2) < h:
            if abs(u - p2) < h / 8.0:
                ku = k
                side = 1 if not right_in and (left_in or p3 - p2 >= p2 - p1) else -1
            else:
                ku, side = round(u / h), (1 if u > p2 else -1)
            edge = (ku + 0.5 * side) * h - side * inset
            if (edge - p2) * side > 0.0 and p1 < edge < p3 and edge not in ts:
                u = edge
        elif p3 - p1 > 0.5 * widths[0]:
            u = np.nan
        elif p1 < u < p3 and p1 < round(u / h) * h < p3 and round(u / h) * h not in ts:
            u = round(u / h) * h
        if not p1 < u < p3 or u in ts:
            if j + 1 == len(ts):
                u = min(2.0 * p2 - p1, 0.5 * (p2 + p3))
            else:
                u = 0.5 * (p2 + p3) if p3 - p2 >= p2 - p1 else 0.5 * (p1 + p2)
        widths = [widths[1], p3 - p1]
        if math.isnan(phi(u)):
            return None
    return None


def _open_by_model(phi, inset, slope, curvature):
    """The opening of a parabolic search seeded by the model phi'(0) =
    slope < 0 and phi''(0) = curvature.  With h = STEP_RESOLUTION, it
    probes the grid point nearest the model's minimizer -slope/curvature,
    clamped to [h, BRACKET_MAX] (BRACKET_MAX itself without a positive
    curvature).  While the probe t does not decrease phi, it backs off to
    the minimizer of the cubic with phi's value, slope and curvature at 0
    through (t, phi(t)), kept in [t/10, t/2].  From the decreasing probe,
    that cubic's minimizer is the next probe, at its nearest grid point,
    when it lies in another grid cell; else the inset edge of the probe's
    cell on the minimizer's side is.  False when no probe above TOLERANCE
    decreases phi within SNAP_PROBES probes, or a probe is nan."""
    h = STEP_RESOLUTION

    def grid(u):
        if not u < BRACKET_MAX:
            return BRACKET_MAX
        return min(max(round(u / h), 1) * h, BRACKET_MAX)

    t = grid(-slope / curvature if curvature > 0.0 else math.inf)
    for _ in range(SNAP_PROBES):
        ft = phi(t)
        if ft < 0.0:
            break
        if ft != ft:
            return False
        t = min(max(_cubic_minimizer(slope, curvature, t, ft), 0.1 * t), 0.5 * t)
        if not t > TOLERANCE:
            return False
    else:
        return False
    aim, k = _cubic_minimizer(slope, curvature, t, ft), round(t / h)
    u = grid(aim)
    if round(u / h) == k:
        if aim > t and t < BRACKET_MAX:
            u = min((k + 0.5) * h - inset, BRACKET_MAX)
        else:
            u = (k - 0.5) * h + inset
    if u != t and u > 0.0:
        return not math.isnan(phi(u))
    return True


def _cubic_minimizer(slope, curvature, t, ft):
    """The local minimizer of the cubic with value 0, the given slope < 0
    and curvature at 0 that passes through (t, ft); inf when it has
    none."""
    cubic = (ft - slope * t - 0.5 * curvature * t * t) / (t * t * t)
    disc = curvature * curvature - 12.0 * cubic * slope
    den = curvature + math.sqrt(disc) if disc >= 0.0 else 0.0
    return -2.0 * slope / den if den > 0.0 else math.inf


def _iterate_distance(c, f, reference):
    if f.is_quadratic_mso:
        return distance_bar(c, f.mu)
    if reference is not None:
        try:
            return distance_tilde(c, reference)
        except ProjectionFailed:
            return None  # monitoring only: the solve goes on unmonitored
    return None


def optimize(c0, f, config, reference=None):
    """Run the configured descent method from c0 on functional f.

    Returns the list of IterationRecords, one per visited curve (the
    starting curve included).  The monitored distance is the radial
    surrogate against the known optimal ellipse for the quadratic family,
    the normal-offset surrogate against ``reference`` when one is given,
    and absent otherwise; a row whose curve the reference's normal lines
    cannot represent records distance None and the run goes on.
    Stopping: distance < config.stop_distance when a distance is
    monitored, step norm < stop_distance otherwise, max_iterations, or a
    ShapeOptError after the starting record, which ends the run on the
    row it interrupted.  The last record's ``stop`` names the reason; a
    start that cannot be recorded raises.

    Checks: each step's direction is validated once, where optimize
    receives it from ``step_direction``; a direction of the wrong length
    or with a non-finite entry ends the run with a DimensionMismatch stop
    naming ``direction``.  The line search,
    the step norm and ``retract`` then take it as a ``_CheckedField`` and
    do not check it again; called directly, each validates its field.
    ``retract`` builds the one polygon of each step.
    """
    records = []
    c = c0
    stop = None
    try:
        for k in range(config.max_iterations + 1):
            rec = IterationRecord(index=k, objective=f.evaluate(c),
                                  nodes=c.nodes.copy(),
                                  distance=_iterate_distance(c, f, reference))
            records.append(rec)
            if rec.distance is not None and rec.distance < config.stop_distance:
                stop = "distance"
            elif stop is None and k == config.max_iterations:
                stop = "max_iterations"
            if stop is not None:
                break
            direction = _CheckedField(c, step_direction(c, f, config), "direction")
            t = line_search_exact(c, f, direction)
            rec.step_scale = t
            rec.step_norm = t * norm(c, config.A, direction)
            if k > 0 and records[k - 1].step_norm:
                records[k - 1].contraction_ratio = rec.step_norm / records[k - 1].step_norm
            c = retract(c, direction, t)
            if rec.distance is None and rec.step_norm < config.stop_distance:
                stop = "step"  # on the next row, unless its distance stops first
    except ShapeOptError as exc:
        if not records:
            raise  # the start itself is inadmissible
        stop = f"{type(exc).__name__}: {exc}"
    for prev, nxt in zip(records, records[1:]):
        if prev.distance and nxt.distance is not None:
            prev.quadratic_ratio = nxt.distance / prev.distance ** 2
    records[-1].stop = stop
    return records


def convergence_diagnostics(records):
    """Late-phase rate summary of an optimization run.

    geometric_factor: median contraction_ratio over the last five steps
    that have one (the linear rate).  quadratic_coefficient: median
    quadratic_ratio (bounded iff convergence is quadratic).  omega_hat:
    2 max_k |step_{k+1}| / |step_k|^2, the empirical affine-invariant
    curvature constant for Newton runs, None when no pair of consecutive
    steps has a positive first norm.  Raises InsufficientData for fewer
    than three records.
    """
    if len(records) < 3:
        raise InsufficientData(f"need >= 3 records, got {len(records)}")
    contractions = [r.contraction_ratio for r in records if r.contraction_ratio is not None]
    quad = [r.quadratic_ratio for r in records if r.quadratic_ratio is not None]
    steps = [r.step_norm for r in records if r.step_norm is not None]
    ratios = [b / a ** 2 for a, b in zip(steps, steps[1:]) if a > 0.0]
    return {
        "iterations": len(records) - 1,
        "geometric_factor": median(contractions[-5:]) if contractions else None,
        "quadratic_coefficient": median(quad) if quad else None,
        "omega_hat": 2.0 * max(ratios) if ratios else None,
        "final_objective": records[-1].objective,
        "final_distance": records[-1].distance,
    }
