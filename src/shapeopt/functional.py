"""Volume-integrand objectives f(Omega) = integral of psi over the enclosed
region, and the distance surrogates used to monitor optimizer progress.

Two quadratures are provided.  For the quadratic family

    psi(x) = x1^2 + mu^2 x2^2 - 1,   mu >= 1,

``evaluate_mso`` integrates in polar coordinates of the stretched plane
y = (x1, mu*x2), where the region of interest becomes a perturbed unit
disk: with rho = |y| the primitive P(rho) = rho^4/4 - rho^2/2 gives the
radial integral in closed form and only the angular direction is
discretized (trapezoid over the node angles).  ``evaluate_general``
handles arbitrary integrands by fanning the polygon into triangles from
the node centroid with a three-midpoint rule per triangle, exact for
quadratic psi.

Angle convention: ``evaluate_mso``, ``distance_bar`` and
``mso_step_objective`` measure node angles in the original plane, the
curve's own ``angle_steps``, while radii are taken in the stretched
plane: the convention of the reference optimizer runs that the
regression suite pins down.  Measuring the angles of the stretched nodes
as well (``_evaluate_mso_stretched``, the same polar sum) is the
consistent quadrature of the area integral, which matches
``evaluate_general`` as the node count grows; the property suite
compares the two quadratures with it.  The two conventions coincide for
mu = 1 and at any curve whose stretched image is a circle.

What an iterate of the quadratic family derives from its nodes is formed
once and kept on the curve (``_quadratic_record``, one per mu): the node
columns, their squares, rho^2 and psi, in one pass over the curve's ghost
columns (see ``curve``).  The polar quadratures read rho^2 from it (and
the curve's own angle steps), ``boundary_kernel`` returns its psi with
the exact normal derivative, and the line-search set-up of
``mso_step_objective`` reads the columns, the squares and psi.  Where a
periodic sum needs the next or the previous node of rho^2, psi or the
angle steps, it reads a shifted view of the whole periodic array that
``curve._periodic`` returns for the node-range view, instead of a
shifted copy.
"""

from collections import namedtuple

import numpy as np

from .curve import _angle_steps, _periodic, as_field
from .errors import NotStarShaped, ProjectionFailed

# distance_tilde discards normal offsets beyond this window
TILDE_WINDOW = 2.0


class VolumeFunctional:
    """Objective f(Omega) = integral of psi over the region bounded by the
    curve.

    psi and grad_psi are vectorized callables on (M, 2) point arrays,
    returning (M,) values and (M, 2) gradients.  Instances are built with
    ``quadratic_mso`` or ``custom``; ``mu`` is set only for the quadratic
    family and selects the exact polar evaluation path.
    """

    def __init__(self, psi, grad_psi, mu=None):
        self.psi = psi
        self.grad_psi = grad_psi
        self.mu = mu

    @classmethod
    def quadratic_mso(cls, mu):
        """psi(x) = x1^2 + mu^2 x2^2 - 1 with its exact gradient."""
        mu = float(mu)
        if not (mu >= 1.0 and np.isfinite(mu * mu)):
            raise ValueError(f"mu must be >= 1 with a finite mu^2, got {mu}")

        def psi(p):
            p = np.asarray(p, dtype=float)
            return p[..., 0] ** 2 + mu ** 2 * p[..., 1] ** 2 - 1.0

        def grad_psi(p):
            p = np.asarray(p, dtype=float)
            return np.stack([2.0 * p[..., 0], 2.0 * mu ** 2 * p[..., 1]], axis=-1)

        return cls(psi, grad_psi, mu=mu)

    @classmethod
    def custom(cls, psi, grad_psi=None):
        return cls(psi, grad_psi, mu=None)

    @property
    def is_quadratic_mso(self):
        return self.mu is not None

    def evaluate(self, c):
        """Objective value on curve c, dispatching to the polar rule for
        the quadratic family and to the fan rule otherwise."""
        if self.is_quadratic_mso:
            return evaluate_mso(c, self.mu)
        return evaluate_general(c, self)


def _require_star(dang, where):
    """Raise NotStarShaped unless the wrapped angle steps dang are all
    positive and wind once around the origin: the polar quadratures
    require the node angles to be strictly monotone modulo 2*pi."""
    if (dang <= 0.0).any():
        raise NotStarShaped(f"{where}: node angles are not monotone around the origin")
    if abs(dang.sum() - 2.0 * np.pi) > 1e-9:
        raise NotStarShaped(f"{where}: node angles do not wind once around the origin")


_QuadraticRecord = namedtuple("_QuadraticRecord", "x y xx yy rho2 psi")


def _quadratic_record(c, mu):
    """What an iterate of the quadratic family derives from its nodes:
    the contiguous columns x and y, xx = x*x, yy = y*y, the stretched
    squared radius rho2 = xx + mu^2 yy and psi = rho2 - 1, the integrand
    at the nodes.  Every array is read-only and has the bits of the
    direct formulas (x ** 2 + mu ** 2 * y ** 2 - 1.0 for psi).

    All six are node-range views, formed in one pass over the ghost
    columns: x and y are views of them, and the others are the [1:-1] of
    arrays of length N+2, which a periodic stencil reads shifted through
    ``curve._periodic``.

    A DiscreteCurve c keeps its record per mu, so the polar sums,
    boundary_kernel and the set-up of mso_step_objective of one iterate
    share it.  Pure arithmetic: it raises no NotStarShaped, whatever the
    nodes."""
    kept = c._quadratic
    if mu not in kept:
        columns = c.columns
        squares = columns * columns
        rho2 = squares[0] + mu ** 2 * squares[1]
        psi = rho2 - 1.0
        for arr in (squares, rho2, psi):
            arr.setflags(write=False)
        (x, y), (xx, yy) = columns[:, 1:-1], squares[:, 1:-1]
        kept[mu] = _QuadraticRecord(x, y, xx, yy, rho2[1:-1], psi[1:-1])
    return kept[mu]


def _node_angle_steps(c, where):
    """The curve's own ``angle_steps``, which skip _require_star when the
    curve is ``star_certified``: the certificate's steps all exceed 1e-12
    and sum to 2*pi within 1e-9, which passes both of its tests.  A call
    that fails raises NotStarShaped naming its caller ``where``."""
    dang = c.angle_steps
    if not c.star_certified:
        _require_star(dang, where)
    return dang


def evaluate_mso(c, mu):
    """Polar-trapezoid value of the quadratic objective on curve c.

    With rho the stretched node radius and P(rho) = rho^4/4 - rho^2/2,

        f ~ (1/2mu) sum_i dang_i (P_{i+1} + P_i),

    dang_i the node-angle steps (see the module docstring).  Raises
    NotStarShaped when the curve is not star-shaped about the origin.
    """
    return _polar_sum(c, mu, _node_angle_steps(c, "evaluate_mso"))


def _evaluate_mso_stretched(c, mu):
    """evaluate_mso with the angle steps of the stretched nodes
    (x, mu*y), computed on each call; equal to evaluate_mso to the bit at
    mu = 1.  Raises NotStarShaped like evaluate_mso."""
    x, y = c.columns
    dang = _angle_steps(x, mu * y)[1:]
    _require_star(dang, "evaluate_mso")
    return _polar_sum(c, mu, dang)


def _polar_sum(c, mu, dang):
    """(1/2mu) sum_i dang_i (P_{i+1} + P_i) over the rho2 of c's
    quadratic record."""
    rho2 = _periodic(_quadratic_record(c, float(mu)).rho2)  # node N-1 first, node 0 last
    P = rho2 ** 2 / 4.0 - rho2 / 2.0
    return float((dang * (P[2:] + P[1:-1])).sum() / (2.0 * mu))


def evaluate_general(c, f):
    """Integral of f.psi over the polygon via a centroid fan, for a
    VolumeFunctional f.

    Each boundary edge spans a triangle with the node centroid; the
    three-edge-midpoint rule on each triangle is exact for quadratic
    integrands, so the only error is the polygonal boundary itself.
    """
    nodes = c.nodes
    psi = f.psi
    # a mean over the column-major node view would sum in another order
    z = np.ascontiguousarray(nodes).mean(axis=0)
    a = nodes
    b = c.columns[:, 2:].T
    area2 = (a[:, 0] - z[0]) * (b[:, 1] - z[1]) - (a[:, 1] - z[1]) * (b[:, 0] - z[0])
    vals = psi((a + b) / 2.0) + psi((b + z) / 2.0) + psi((z + a) / 2.0)
    return float((area2 * vals).sum() / 6.0)


def boundary_kernel(c, f):
    """Pointwise boundary data (g, dpsi_dn) of a volume functional.

    g_i = psi(node_i) is the density of the first shape derivative,
    df(alpha) = sum g alpha w; dpsi_dn_i = <grad psi(node_i), n_i> feeds
    the second-derivative forms.  No quadrature is involved.

    For the quadratic family g is the psi of the curve's quadratic record
    (read-only) and dpsi_dn = (2x) n1 + (2 mu^2 y) n2, the bits of
    f.psi and of the row sum of f.grad_psi times the normals.  With the
    normal (ty, -tx) both are formed as a1 ty - a2 tx, which is
    a1 ty + a2 (-tx) to the bit.
    """
    if f.is_quadratic_mso:
        rec, geo = _quadratic_record(c, f.mu), c.geometry
        dpsi_dn = (2.0 * rec.x) * geo.ty - (2.0 * f.mu ** 2 * rec.y) * geo.tx
        return rec.psi, dpsi_dn
    g = np.asarray(f.psi(c.nodes), dtype=float)
    if f.grad_psi is None:
        raise ValueError("functional has no gradient field; construct it with grad_psi")
    gp, geo = np.asarray(f.grad_psi(c.nodes), dtype=float), c.geometry
    dpsi_dn = gp[:, 0] * geo.ty - gp[:, 1] * geo.tx
    return g, dpsi_dn


def distance_bar(c, mu):
    """First distance surrogate: the angular integral of the stretched
    radial defect, (1/2mu) sum_i dang_i (|rho_{i+1} - 1| + |rho_i - 1|).

    Zero exactly when the stretched image of the curve has unit node
    radii.  Raises NotStarShaped like evaluate_mso.
    """
    dang = _node_angle_steps(c, "distance_bar")
    rho2 = _quadratic_record(c, float(mu)).rho2
    q = np.abs(np.sqrt(_periodic(rho2)) - 1.0)  # node N-1 first, node 0 last
    return float((dang * (q[2:] + q[1:-1])).sum() / (2.0 * mu))


def distance_tilde(c, reference):
    """Second distance surrogate: represent c as reference + alpha*n and
    integrate |alpha| over the reference curve.

    alpha is recovered per reference node by intersecting the node's
    normal line with the polygon c and keeping the intersection closest
    to the node; offsets beyond TILDE_WINDOW are discarded.  Intended for
    nearby shapes.  Raises ProjectionFailed when some normal line finds
    no admissible intersection, which happens when the shapes are far
    apart or the normal rays of the reference do not cover c.
    """
    ref_nodes = reference.nodes
    geo = reference.geometry
    a = c.nodes
    d = (c.columns[:, 2:] - c.columns[:, 1:-1]).T
    offsets = np.empty(reference.n_nodes)
    misses = 0
    # the outward normal (nx, ny) = (ty, -tx) of each reference node
    for i, (p, nx, ny) in enumerate(zip(ref_nodes, geo.ty, -geo.tx)):
        den = nx * d[:, 1] - ny * d[:, 0]
        ap = a - p
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (ap[:, 0] * d[:, 1] - ap[:, 1] * d[:, 0]) / den
            u = (ap[:, 0] * ny - ap[:, 1] * nx) / den
        # slack on the segment-parameter test so an intersection at a
        # polygon vertex is claimed by exactly one of the two segments
        ok = ((np.abs(den) > 1e-14) & (u >= -1e-9) & (u < 1.0 - 1e-9)
              & (np.abs(s) <= TILDE_WINDOW))
        if not ok.any():
            misses += 1
            offsets[i] = np.nan
            continue
        sv = s[ok]
        offsets[i] = sv[np.argmin(np.abs(sv))]
    if misses:
        raise ProjectionFailed(
            f"{misses} of {reference.n_nodes} reference normal lines miss the "
            f"curve within window {TILDE_WINDOW}; the shapes are too far apart "
            "for a normal-field representation")
    return float(np.sum(np.abs(offsets) * geo.weights))


def mso_step_objective(c, h, mu, model=None):
    """Exact decrease function t -> f(r_c(t*h)) - f(c) for the quadratic
    family along the normal field h, in the node-angle convention: node i
    moves by t*h_i along its outward normal, as in ``retract``.

    Built for line searches near optimality: the difference is assembled
    from per-node increments (radial and angular) instead of subtracting
    two nearly equal objective values, so minima far below the rounding
    noise of evaluate_mso remain resolvable.  c is a DiscreteCurve, whose
    ``angle_steps``, frame and quadratic record are reused.  h is
    validated with ``as_field`` as ``retract`` validates it, and a
    ``_CheckedField`` is used as given.  The node step is
    s = h*n = (h ty, -(h tx)).  The caller guarantees the probed polygons
    stay star-shaped.

    With dP_i = P(rho_i(t)) - P(rho_i(0)) and a_i the angle that node i
    turns through, the angle step dang_i of evaluate_mso becomes
    dang_i + a_{i+1} - a_i, and summing by parts gives

        2 mu phi(t) = sum_i dP_i (dang_i + dang_{i-1})
                      + sum_i a_i (D_i + dP_{i-1} - dP_{i+1}),
        D_i = P0_{i-1} - P0_{i+1}.

    With u = t*lin + t^2*quad, half the change of rho^2, and r = rho2_0 - 1,
    dP_i = u (r + u) is a quartic in t with no constant term:
    dP_i = sum_{p=1..4} t^p c_{p,i}, where c_1 = lin r, c_2 = quad r + lin^2,
    c_3 = 2 lin quad and c_4 = quad^2.  So

        2 mu phi(t) = sum_p t^p (S_p + dC_p . a) + D . a,

    with S_p = c_p . (dang_i + dang_{i-1}) and dC_{p,i} = c_{p,i-1} - c_{p,i+1}.
    A probe is one angular pass, a_i = arctan2(t cross_i, |x_i|^2 + t x_i.s_i),
    one (5, N) matrix-vector product [D; dC] @ a and a Horner step in t.

    Every term is still an increment: each is a power of t, or an angle
    a_i that vanishes at t = 0, times constants of the search, and D_i is
    formed as (r_{i-1} - r_{i+1})(r_{i-1} + r_{i+1})/4.  D vanishes on the
    optimal ellipse, so no constant P0 has to cancel, and phi(0) is 0
    exactly.

    Everything that does not depend on t is computed here, once per
    search: the coefficient rows c_p in one periodic (4, N+2) array, the
    sums S_p and the (5, N) matrix; r is the psi of the quadratic record,
    whose columns and squares this reads as well.  The previous angle
    step and the neighbours' r are shifted views of the periodic arrays
    behind the angle steps and psi.  The returned closure reuses buffers
    allocated here, so a probe makes no array allocation; each call still
    depends on t alone.

    ``model``, when given, is a list that receives phi'(0) and phi''(0),
    exact from the same constants: with a' = cross/|x|^2 and
    a'' = -2 cross (x.s)/|x|^4 the derivatives of a_i at 0,
    2 mu phi'(0) = S_1 + D . a' and 2 mu phi''(0) = 2 S_2 + 2 dC_1 . a' + D . a''.
    """
    dang0 = c.angle_steps
    x, y, xx, yy, _, r = _quadratic_record(c, mu)
    h, geo = as_field(c, h, "h"), c.geometry
    sx, sy = h * geo.ty, -(h * geo.tx)
    mu2 = mu ** 2
    n = len(x)
    mul, add = np.multiply, np.add
    xsx, ysy = x * sx, y * sy
    # rho2(t) = rho2_0 + 2*(t*lin + t^2*quad) in the stretched plane
    lin = xsx + mu2 * ysy
    quad = (sx * sx + mu2 * (sy * sy)) / 2.0
    # dot and cross products of the moved node with the old one
    r2, xs = xx + yy, xsx + ysy
    cross0 = x * sy - y * sx
    # rows c_1, c_2, c_3 / 2 and c_4, node N-1 first and node 0 last
    coef = np.empty((4, n + 2))
    c2 = coef[1, 1:-1]
    mul(lin, r, coef[0, 1:-1])
    add(mul(quad, r, c2), lin * lin, c2)
    mul(lin, quad, coef[2, 1:-1])
    mul(quad, quad, coef[3, 1:-1])
    coef[:, 0], coef[:, -1] = coef[:, -2], coef[:, 1]
    steps, r_ext = _periodic(dang0), _periodic(r)  # step N-1 first; psi of N-1 first
    s1, s2, s3, s4 = (coef[:, 1:-1] @ (steps[1:] + steps[:-1])).tolist()
    # rows 4 D, dC_1, dC_2, dC_3 / 2 and dC_4 of the angular sum, each in
    # the first n of n + 2 entries: one subtraction over the flat rows
    # forms dC, and the two entries of each row that mix rows are unused
    rows = np.empty((5, n + 2))
    flat = coef.reshape(-1)
    np.subtract(flat[:-2], flat[2:], rows.reshape(-1)[n + 2:-2])
    rm, rp = r_ext[:-2], r_ext[2:]
    weights = rows[:, :n]
    mul(rm - rp, rm + rp, weights[0])
    two_mu = 2.0 * mu

    if model is not None:
        # a' and a'' / -2, the derivatives of a at t = 0
        da = np.empty((2, n))
        np.divide(cross0, r2, da[0])
        np.divide(mul(da[0], xs, da[1]), r2, da[1])
        (d_a, d_aa), (dc1_a, _) = (weights[:2] @ da.T).tolist()
        model[:] = ((s1 + 0.25 * d_a) / two_mu,
                    (2.0 * (s2 + dc1_a) - 0.5 * d_aa) / two_mu)

    u, v, a = np.empty((3, n))
    m = np.empty(5)
    # t as a 0-d array: a ufunc takes it faster than a float
    tt = np.empty(())
    atan2, matmul = np.arctan2, np.matmul

    def delta_phi(t):
        t = float(t)
        tt[()] = t
        mul(tt, xs, u)
        add(r2, u, u)
        mul(tt, cross0, v)
        atan2(v, u, a)
        m0, m1, m2, m3, m4 = matmul(weights, a, m).tolist()
        return (((((s4 + m4) * t + 2.0 * (s3 + m3)) * t + (s2 + m2)) * t + (s1 + m1)) * t
                + 0.25 * m0) / two_mu

    return delta_phi
