"""Descent loops on the shape manifold: step directions, exact line
search, the optimize driver, and convergence diagnostics.

An iteration is direction -> line search -> retract.  Directions are the
negative Riesz gradient (steepest descent) or a Newton step from one of
the two Hessian representations in ``calculus``, solved against the
derivative density and so free of the metric.  The exact line search
brackets by doubling and refines by golden section; for the quadratic
objective family it minimizes an exactly differenced objective, so step
lengths remain meaningful even when the objective decrease is far below
the rounding noise of the objective value itself.  That objective
(``functional.mso_step_objective``) sums per-node increments only: the
radial change of P and the turn of each node's angle, weighted by
constants of the search set up once, with no telescoping sum of nearly
equal terms left to cancel.  With a step grid set
(the default), a short safeguarded parabolic search that starts at the
unit step decides the snapped step first, in about 7 probes on the
packaged runs; golden section stops as soon as both ends of its bracket
round to the same grid point and that point decreases the objective.
Either way the snapped step is the one the full-precision search would
return when the objective is unimodal along the step, and a parabolic
search that cannot certify its grid point hands over to golden section.
The polygon that the parabolic search star-certifies at its step travels
on the step's checked direction to ``retract``, which admits it, so an
accepted step builds it once.
"""

import math
from bisect import bisect
from dataclasses import dataclass
from statistics import median

import numpy as np

from .calculus import HessianOperator, solve_hessian
from .curve import _CheckedField, _retraction_candidate, retract
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
# probes the parabolic search for the snapped step may spend before it
# hands over to bracketing and golden section
SNAP_PROBES = 12


@dataclass(frozen=True)
class ExactLineSearch:
    """Exact minimization along the step: a parabolic search for the
    snapped step, then bracketing plus golden section.

    bracket_max bounds the probed step parameter.  step_resolution, when
    set, snaps the minimizer to that grid before it is applied (skipped
    if snapping would destroy the decrease), and the search stops once
    its probes have decided the snapped step: by safeguarded parabolic
    interpolation from the unit step, or else by golden section (see
    ``line_search_exact``).  tolerance is the final golden-section
    bracket width in t; it governs only searches that run unsnapped
    (step_resolution None) or that the parabolic search handed over.
    The default 0.01 grid suppresses sub-noise variation of the step
    parameter and matches the granularity of the recorded reference
    trajectories the regression tests compare against.
    """
    bracket_max: float = 2.0
    tolerance: float = 1e-10
    step_resolution: float | None = 0.01

    def __post_init__(self):
        if not self.bracket_max > 0.0:
            raise ValueError("bracket_max must be positive")
        if not 0.0 < self.tolerance < self.bracket_max:
            raise ValueError("tolerance must lie in (0, bracket_max)")
        if self.step_resolution is not None and not self.step_resolution > 0.0:
            raise ValueError("step_resolution must be positive or None")


@dataclass(frozen=True)
class FixedStep:
    """Constant step parameter t for every iteration."""
    t: float = 1.0

    def __post_init__(self):
        if not self.t > 0.0:
            raise ValueError("fixed step must be positive")


@dataclass(frozen=True)
class SolverConfig:
    method: str = STEEPEST_DESCENT
    A: float = 0.0
    max_iterations: int = 50
    stop_distance: float = 1e-7
    line_search: object = ExactLineSearch()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.stop_distance > 0.0:
            raise ValueError("stop_distance must be positive")
        check_A(self.A)  # rejects a negative or non-finite A now, not at first use
        if not isinstance(self.line_search, (ExactLineSearch, FixedStep)):
            raise ValueError("line_search must be ExactLineSearch or FixedStep")


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


def _decrease_function(c, f, direction):
    """phi(t) = f(r_c(t*direction)) - f(c) as a callable, for a field or
    a ``_CheckedField`` direction on c, used as given.

    The quadratic family uses the exactly differenced polar objective,
    whose step d*n it builds column-major so that the set-up reads the
    columns without copying them; other functionals evaluate the fan
    quadrature on the moved polygon, with inadmissible probes scored +inf
    so brackets shrink below them.
    """
    checked = _CheckedField.of(c, direction, "direction")
    if f.is_quadratic_mso:
        d, normal = checked.values, c.geometry.normal
        step = np.empty((len(d), 2), order="F")
        np.multiply(d, normal[:, 0], out=step[:, 0])
        np.multiply(d, normal[:, 1], out=step[:, 1])
        return mso_step_objective(c, step, f.mu)
    f0 = f.evaluate(c)

    def phi(t):
        try:
            moved = retract(c, checked, t)
            return f.evaluate(moved) - f0
        except (DegenerateCurve, ShapeDegenerate, NotStarShaped):
            return np.inf

    return phi


def line_search_exact(c, f, direction, bracket_max=2.0, tolerance=1e-10,
                      step_resolution=0.01):
    """Step parameter minimizing f along the retracted direction.

    Finds a decrease at t0 = 1e-3, halving t0 while it fails to decrease.
    Then brackets a descent interval by doubling from t0, refines with
    golden section to the requested bracket width, and snaps to the
    step_resolution grid h when that preserves the decrease.  Raises
    LineSearchFailed when no probed step above the tolerance decreases
    the objective.  phi(t), the decrease at t, is probed at most once
    per t in one search.  The direction is validated once, unless it is
    a ``_CheckedField`` already, used as given; the probes take it so.

    With h set, golden section stops early: once both bracket ends round
    to the same grid index k, every later bracket and its midpoint t_star
    round to k too (the brackets are nested and rounding is monotone), so
    k*h is tried at once and returned if it decreases the objective.  If
    it does not, the search runs on to the tolerance exactly as without
    the early stop.  That result is the same float as the full search's,
    with one exception: an accepted early snap skips the final check
    that phi(t_star) < 0, so a search whose collapsed bracket midpoint
    fails to decrease returns the snapped step instead of raising.

    With h set, and t0 below bracket_max, a parabolic search runs before
    the bracketing (``_snap_by_parabolas``): from the unit step it probes
    until the lowest probe p2 and its probed neighbours p1 < p2 < p3
    satisfy round((p1 - 2*tolerance)/h) == round((p3 + 2*tolerance)/h)
    == k, then returns k*h if 0 < k*h <= bracket_max and phi(k*h) < 0.
    When p2 is bracket_max itself there is no p3, and none is needed:
    golden section's brackets never pass bracket_max, which rounds to k.
    It hands over to the bracketing and golden section above, which run
    unchanged on the probes already made, when k is 0, a probe is nan,
    the snap fails, the probe budget SNAP_PROBES is spent, or (below)
    the star check fails.

    The parabolic search returns golden section's float whenever phi is
    unimodal on [0, bracket_max]: strictly decreasing up to its first
    minimizer A and non-decreasing after it, +inf included.  Every
    golden-section bracket then contains A, since its tie rule keeps the
    left part; and A lies in (p1, p3), since p2 is the leftmost lowest
    probe and p1 lies left of it and higher.  The last bracket golden
    section checks is about tolerance/GOLDEN < 2*tolerance wide at most,
    so it lies inside [p1 - 2*tolerance, p3 + 2*tolerance], which rounds
    to k as a whole; any bracket it stops at rounds as a whole to the
    index of a float in both intervals, which is k.  Golden section so
    decides the same k and tries the same k*h, with the same test.  A
    handover returns exactly what the search without the parabolic step
    returns.

    For the quadratic family the probes skip admissibility checks (the
    loop validates the accepted step when retracting), so bracket_max
    should be kept small enough that probed polygons stay star-shaped;
    where they do not, phi stops being unimodal.  The parabolic search's
    k*h is therefore returned only if the polygon that retract would
    build at k*h passes the star certificate of check_simple; otherwise
    the search hands over.  That polygon stays on the checked direction,
    and ``retract(c, direction, k*h)`` of that ``_CheckedField`` checks
    and returns it instead of building it again.

    Each probe of the quadratic family costs 15 O(N) array passes:
    ``mso_step_objective`` computes once per search what does not depend
    on t, and sums increments that carry no constant to cancel (see its
    docstring), so a decrease far below the objective's rounding noise
    is resolved to near full relative precision.
    """
    checked = _CheckedField.of(c, direction, "direction")
    direction = checked.values
    if not direction.any():
        raise LineSearchFailed("zero direction")
    decrease = _decrease_function(c, f, checked)
    probed = {}

    def phi(t):
        if t not in probed:
            probed[t] = decrease(t)
        return probed[t]

    t0, f0 = 1e-3, phi(1e-3)
    while f0 >= 0.0 and t0 > tolerance:
        t0 *= 0.5
        f0 = phi(t0)
    if f0 >= 0.0 or not math.isfinite(f0):
        raise LineSearchFailed(
            f"no decrease along the direction for any t >= {tolerance:g}")

    if step_resolution and t0 < bracket_max:
        t_snap = _snap_by_parabolas(phi, probed, bracket_max, tolerance,
                                    step_resolution)
        if t_snap is not None and (
                not f.is_quadratic_mso
                or _retraction_candidate(c, checked, t_snap).star_certified):
            return t_snap

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
    snap_open = bool(step_resolution)
    while hi - lo > tolerance:
        if snap_open:
            k = round(lo / step_resolution)
            if round(hi / step_resolution) == k:
                snap_open = False  # k is decided; try it once
                t_snap = k * step_resolution
                if 0.0 < t_snap <= bracket_max and phi(t_snap) < 0.0:
                    return float(t_snap)
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


def _snap_by_parabolas(phi, probed, bracket_max, tolerance, step_resolution):
    """The snapped step k * step_resolution decided by safeguarded
    parabolic interpolation, or None to hand over to bracketing and golden
    section.  probed maps every t that phi has evaluated to phi(t).

    The unit step is probed first and doubled, up to bracket_max, while
    it is the lowest probe.  Let p2 be the lowest probe (the leftmost of
    equal ones) and p1 < p2 < p3 its probed neighbours, with p1 = 0, where
    phi is 0, when p2 is the smallest probe.  With h = step_resolution,
    k = round(p2 / h) is decided once [p1 - 2*tolerance, p3 + 2*tolerance]
    rounds to k as a whole.  Until then each probe is the vertex of the
    parabola through the three lowest probes (Brent's choice), with these
    safeguards:

    - a vertex within h of p2 gives way to the far edge of its own grid
      cell, and one within h/8 of p2 (which confirms p2) to the edge of
      p2's cell on a side whose neighbour is still outside it; each edge
      is inset by h/1024 + 2*tolerance.  The bracket so closes on a cell
      instead of creeping up on the minimizer from one side.
    - the wider side of p2 is bisected when the vertex is not finite,
      not strictly inside (p1, p3) or already probed, or when the last
      two probes have not halved p3 - p1.
    - when p2 is at bracket_max, it has no right neighbour, and golden
      section's brackets never pass bracket_max; the left edge of its
      cell, inset as above, is probed, which decides k = round(p2 / h)
      if it is higher than p2: the first minimizer then lies in
      (edge, bracket_max], which rounds to k as a whole.

    None is returned when a probe is nan, k is 0, k*h lies above
    bracket_max or does not decrease phi, the inset edge of bracket_max's
    cell is not below bracket_max, or SNAP_PROBES probes leave k
    undecided.
    """
    h = step_resolution
    margin = 2.0 * tolerance
    inset = h / 1024.0 + margin
    t = min(1.0, bracket_max)
    phi(t)
    while t < bracket_max and min(probed, key=probed.get) == max(probed):
        t = min(2.0 * t, bracket_max)
        phi(t)
    # the probes in increasing t, with phi(0) = 0 first, kept sorted
    ts = [0.0] + sorted(probed)
    fs = [0.0] + [float(probed[t]) for t in ts[1:]]
    if any(f != f for f in fs):
        return None

    def probe(u):
        """phi(u), kept in ts and fs in order of u; False when it is nan."""
        if u in probed:
            return True
        i = bisect(ts, u)
        ts.insert(i, u)
        fs.insert(i, float(phi(u)))
        return fs[i] == fs[i]

    widths = [np.inf, np.inf]  # p3 - p1 before each of the last two probes
    for _ in range(SNAP_PROBES):
        j = fs.index(min(fs))
        at_max = j == len(ts) - 1
        p1, p2 = ts[j - 1:j + 1]
        p3 = p2 if at_max else ts[j + 1]
        f2 = fs[j]
        k = round(p2 / h)
        left_in = round((p1 - margin) / h) == k
        # golden section's brackets never pass bracket_max
        right_in = at_max or round((p3 + margin) / h) == k
        if left_in and right_in:
            t_snap = k * h
            if 0 < k and t_snap <= bracket_max and phi(t_snap) < 0.0:
                return float(t_snap)
            return None
        if at_max:
            # the left edge of bracket_max's cell, inset into it
            u = (k - 0.5) * h + inset
            if not p1 < u < p2 or not probe(u):
                return None
            continue
        (w, fw), (v, fv) = sorted(zip(ts, fs), key=lambda p: p[1])[1:3]
        a, b = p2 - w, p2 - v
        den = a * (f2 - fv) - b * (f2 - fw)
        u = p2 - 0.5 * (a * a * (f2 - fv) - b * b * (f2 - fw)) / den if den else np.nan
        if abs(u - p2) < h:
            if abs(u - p2) < h / 8.0:
                ku = k
                side = 1 if not right_in and (left_in or p3 - p2 >= p2 - p1) else -1
            else:
                ku, side = round(u / h), (1 if u > p2 else -1)
            edge = (ku + 0.5 * side) * h - side * inset
            if (edge - p2) * side > 0.0 and p1 < edge < p3 and edge not in probed:
                u = edge
        elif p3 - p1 > 0.5 * widths[0]:
            u = np.nan
        if not p1 < u < p3 or u in probed:
            u = 0.5 * (p2 + p3) if p3 - p2 >= p2 - p1 else 0.5 * (p1 + p2)
        widths = [widths[1], p3 - p1]
        if not probe(u):
            return None
    return None


def _choose_step(c, f, direction, line_search):
    if isinstance(line_search, FixedStep):
        return line_search.t
    return line_search_exact(c, f, direction, line_search.bracket_max,
                             line_search.tolerance, line_search.step_resolution)


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
    receives it from ``step_direction``, under either step rule; a
    direction of the wrong length or with a non-finite entry ends the run
    with a DimensionMismatch stop naming ``direction``.  The line search,
    the step norm and ``retract`` then take it as a ``_CheckedField`` and
    do not check it again; called directly, each validates its field.
    The line search leaves its polygon on that field for ``retract``.
    """
    records = []
    c = c0
    stop = None
    try:
        for k in range(config.max_iterations + 1):
            rec = IterationRecord(index=k, objective=f.evaluate(c),
                                  nodes=np.array(c.nodes),
                                  distance=_iterate_distance(c, f, reference))
            records.append(rec)
            if rec.distance is not None and rec.distance < config.stop_distance:
                stop = "distance"
            elif stop is None and k == config.max_iterations:
                stop = "max_iterations"
            if stop is not None:
                break
            direction = _CheckedField(c, step_direction(c, f, config), "direction")
            t = _choose_step(c, f, direction, config.line_search)
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
