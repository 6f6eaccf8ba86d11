"""Discrete closed planar curves and their local geometry.

A shape is represented by a periodic polygon of N nodes.  Tangent vectors
of the shape manifold are normal fields: one scalar per node, the field
h = alpha * n.  Normal fields are passed around as plain 1-D float arrays;
``as_field`` validates them at operation boundaries, once per field: a
field already validated against a curve travels as a ``_CheckedField``.

A curve is immutable and keeps only what its nodes and params determine,
computed once per curve and read-only:

- ``chords``: the forward chord lengths |node_{i+1} - node_i|, computed by
  the constructor's coincident-node check;
- ``geometry``: unit tangent, outward unit normal, curvature and node
  quadrature weights, computed on first use;
- ``angle_steps``: the wrapped polar angle steps between consecutive
  nodes about the origin, computed on first use; ``check_simple``,
  ``functional.evaluate_mso``/``distance_bar`` (node-angle convention) and
  the set-up of ``functional.mso_step_objective`` all read this one array;
- ``star_certified``: whether those steps pass the star certificate of
  ``check_simple``, computed on first use; ``check_simple`` and the polar
  quadratures read it;
- the quadratic record of ``functional._quadratic_record``: for the
  quadratic family psi = x^2 + mu^2 y^2 - 1, the contiguous node columns
  x and y, xx, yy, rho2 = xx + mu^2 yy and psi, one entry per mu on first
  use; the polar quadratures (with the angle steps above),
  ``functional.boundary_kernel`` and the set-up of
  ``functional.mso_step_objective`` all read it;
- the curvature stencil weights of its params, computed on first use of
  ``geometry`` and shared with every curve retracted from it, which
  keeps the params.

The polygon that the line search built and star-checked at its step
belongs to the step, not to the curve: it travels on the step's
``_CheckedField`` to ``retract``, which admits or rejects it and drops it.

A curve that ``retract`` returns carries its nodes, params, chords,
angle steps and star flag, and shares the stencil weights; everything
else is computed on first use.
"""

import json

import numpy as np

from .errors import DegenerateCurve, DimensionMismatch, ShapeDegenerate

MIN_NODES = 8


def as_field(c, values, name="field"):
    """Validate a per-node scalar field against curve c and return it as
    a float array.  Raises DimensionMismatch on length or finiteness
    violations.  A ``_CheckedField`` of c's length is returned as its
    values, which passed these checks when it was made."""
    if type(values) is _CheckedField and values.values.shape[0] == c.n_nodes:
        return values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != c.n_nodes:
        raise DimensionMismatch(
            f"{name}: expected {c.n_nodes} values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name}: contains non-finite values")
    return arr


class _CheckedField:
    """A field that ``as_field`` validated against curve, handed on to the
    functions that take fields on that curve so that they do not validate
    it again: ``solver.optimize`` checks each direction where it receives
    it and passes it on like this to the line search, the step norm and
    the retraction, none of which changes its values.  Its only other
    content is the retraction candidate, which ``retract`` drops, so an
    iterate is freed as soon as the loop moves on."""

    __slots__ = ("values", "_candidate")

    def __init__(self, curve, values, name="field"):
        self.values = as_field(curve, values, name)
        self._candidate = None  # (curve, t, moved) of _retraction_candidate

    @classmethod
    def of(cls, curve, values, name="field"):
        """values itself when it is a _CheckedField of curve's length, so
        that a candidate set on it reaches ``retract``, else a new one."""
        if type(values) is cls and values.values.shape[0] == curve.n_nodes:
            return values
        return cls(curve, values, name)


def shift_next(a):
    """Row i of the result is row i+1 of a, periodically.  Equal to numpy's
    roll(a, -1, axis=0), without roll's per-call overhead."""
    return np.concatenate((a[1:], a[:1]))


def shift_prev(a):
    """Row i of the result is row i-1 of a, periodically.  Equal to numpy's
    roll(a, 1, axis=0)."""
    return np.concatenate((a[-1:], a[:-1]))


def row_norm(v):
    """Euclidean length of each row of an (N, 2) array.  The same bits as
    numpy's linalg.norm(v, axis=1), which computes sqrt(add.reduce(v*v,
    axis=1)), and a two-term reduce is exactly v0*v0 + v1*v1."""
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1])


def signed_area(nodes):
    """Shoelace area of the closed polygon; positive for counterclockwise."""
    x, y = nodes[:, 0], nodes[:, 1]
    xn, yn = shift_next(x), shift_next(y)
    return 0.5 * float((x * yn - xn * y).sum())


def _wrapped_angle_steps(nodes):
    """Polar angle increments about the origin between consecutive nodes,
    wrapped into [-pi, pi): the arctan2 angle of each node, its forward
    difference d, then (d + pi) mod 2*pi - pi.

    The remainder is taken by branches: s = d + pi lies in [-pi, 3*pi]
    since arctan2 returns angles in [-pi, pi], and numpy's float
    remainder of such an s by 2*pi is s + 2*pi below zero (rounded, so
    up to 2*pi itself), s - 2*pi at or above 2*pi (exact by Sterbenz's
    lemma, +0.0 at 2*pi) and s otherwise (+0.0 at zero, where s is never
    -0.0).  Both masks are taken from s before either branch is applied.
    The result is the remainder form's, bit for bit, nan included."""
    ang = np.arctan2(nodes[:, 1], nodes[:, 0])
    s = shift_next(ang) - ang
    s += np.pi
    below, above = s < 0.0, s >= 2.0 * np.pi
    s[below] += 2.0 * np.pi
    s[above] -= 2.0 * np.pi
    s -= np.pi
    return s


# the star certificate of check_simple: every wrapped angle step in
# (_STEP_MARGIN, pi - _STEP_MARGIN) and every squared node radius in
# [_RADIUS2_MIN, _RADIUS2_MAX]
_STEP_MARGIN = 1e-12
_RADIUS2_MIN, _RADIUS2_MAX = 1e-290, 1e290


def _star_certified(nodes, dang):
    """True when the angle steps dang of nodes certify the polygon as
    simple and counterclockwise; see check_simple.  Every comparison is
    written so that a nan makes it False."""
    if not (abs(dang.sum() - 2.0 * np.pi) <= 1e-9
            and dang.min() > _STEP_MARGIN and dang.max() < np.pi - _STEP_MARGIN):
        return False
    x, y = nodes[:, 0], nodes[:, 1]
    r2 = x * x + y * y
    return bool(r2.min() >= _RADIUS2_MIN and r2.max() <= _RADIUS2_MAX)


# candidate pairs tested per chunk; bounds the broad phase's memory when
# every segment overlaps every other in x (a comb or zigzag)
_PAIR_CHUNK = 1 << 16
# a pair of segments d_i, d_j counts as parallel, and so as not crossing,
# unless |d_i x d_j| > _SIN_MIN * |d_i| * |d_j|: a test on the angle
# between them, the same at every scale
_SIN_MIN = 1e-10


def _segments_intersect(nodes):
    """True if any two non-adjacent closed-polygon segments properly cross.

    Sort-and-sweep broad phase on segment bounding boxes (the sweep of
    Shamos-Hoey and Bentley-Ottmann): the boxes are sorted by xmin,
    ``searchsorted`` on xmax yields every pair that overlaps in x, and
    pairs that miss in y or are adjacent are dropped.  The exact test
    then runs on the survivors with the arithmetic of an all-pairs loop
    over i < j: r = nodes[j] - nodes[i], den = d_i x d_j with
    |den| > _SIN_MIN * |d_i| * |d_j| (lengths from hypot) and t, u
    strictly inside (0, 1).

    Each box is padded by a forward bound on how far the computed t and
    u can place the crossing from the segments.  With eps the machine
    epsilon, each cross product is computed within 8 eps |p||q| of its
    exact value, so the degeneracy test leaves |den| > s |d_i||d_j| with
    s = _SIN_MIN (1 - 4 eps) - 8 eps; with grow = 8 eps / s and D the
    diameter of the nodes, the computed t lands within
    e_i = (grow (D + |d_i|) + eps |d_i|) / (1 - grow) / |d_i| of the
    exact one.
    A pair whose computed t and u lie in (0, 1) therefore has its exact
    crossing point within e_i |d_i| of segment i and e_j |d_j| of
    segment j, so boxes padded by those distances (plus the rounding of
    the padded box edges, 8 eps max|node|) overlap.  The result is the
    all-pairs loop's boolean, bit for bit.  The pad is about 2e-5 D for
    every segment, whatever its length.

    Cost is O(N log N) plus the candidate pairs, which is O(N) for the
    smooth curves the solvers produce.  Pairs are generated in chunks of
    at most ``_PAIR_CHUNK`` and the function returns on the first hit,
    so the worst case (all pairs overlapping in x and y) is O(N^2) time
    in O(N + chunk) memory.
    """
    n = len(nodes)
    x, y = nodes[:, 0].copy(), nodes[:, 1].copy()
    xn, yn = shift_next(x), shift_next(y)
    dx, dy = xn - x, yn - y

    eps = np.finfo(float).eps
    seglen = np.hypot(dx, dy)
    diam = float(np.hypot(np.ptp(x), np.ptp(y)))
    grow = 8.0 * eps / (_SIN_MIN * (1.0 - 4.0 * eps) - 8.0 * eps)
    pad = ((grow * (diam + seglen) + eps * seglen) / (1.0 - grow)
           + 8.0 * eps * float(np.abs(nodes).max()))
    xlo, xhi = np.minimum(x, xn) - pad, np.maximum(x, xn) + pad
    ylo, yhi = np.minimum(y, yn) - pad, np.maximum(y, yn) + pad

    order = np.argsort(xlo)
    end = np.searchsorted(xlo[order], xhi[order], side="right")
    counts = end - np.arange(n) - 1
    cum = np.cumsum(counts)

    row = 0
    while row < n:
        base = int(cum[row - 1]) if row else 0
        stop = max(int(np.searchsorted(cum, base + _PAIR_CHUNK, side="right")), row + 1)
        cnt = counts[row:stop]
        k = np.repeat(np.arange(row, stop), cnt)
        m = k + 1 + np.arange(len(k)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        row = stop
        p, q = order[k], order[m]
        i, j = np.minimum(p, q), np.maximum(p, q)
        # adjacent segments, including the wrap pair (0, N-1), share an
        # endpoint and are skipped
        keep = ((ylo[p] <= yhi[q]) & (ylo[q] <= yhi[p])
                & (j - i >= 2) & (j - i != n - 1))
        i, j = i[keep], j[keep]
        rx, ry = x[j] - x[i], y[j] - y[i]
        dix, diy, djx, djy = dx[i], dy[i], dx[j], dy[j]
        den = dix * djy - diy * djx
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rx * djy - ry * djx) / den
            u = (rx * diy - ry * dix) / den
        hit = ((np.abs(den) > _SIN_MIN * seglen[i] * seglen[j])
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        if hit.any():
            return True
    return False


def check_simple(curve_or_nodes):
    """True iff the closed polygon is admissible: no two non-adjacent
    segments intersect and the orientation is counterclockwise.

    Orientation is part of the test because a curve update that flips the
    winding has passed through a degenerate state even when the final
    polygon does not self-cross (for example a circle pushed inward
    through its own center).  Accepts a DiscreteCurve, whose
    ``angle_steps`` it computes or reuses, or a raw (N, 2) node array,
    which is inadmissible when any coordinate is not finite.

    Star certificate, O(N).  Let the wrapped angle steps d_i about the
    origin all lie in (m, pi - m) with margin m = 1e-12 and sum to 2*pi
    within 1e-9, and let no node lie at the origin.  Then the true
    counterclockwise angle from node i to node i+1 lies in (0, pi) and
    the true angles sum to exactly 2*pi, so the rays through the nodes
    cut the plane into N convex sectors, one per edge, that meet only
    along their boundary rays.  Edge i lies in its own sector and misses
    the origin, non-adjacent sectors share only the origin, and adjacent
    edges meet their common ray only at their common node: the polygon
    is simple, and counterclockwise since it winds once around the
    origin.  The margin covers the rounding of the computed steps: a
    node angle from arctan2 is within a few ulps of pi of the true one,
    and the difference, the wrap (d + pi) mod 2*pi - pi and the rounded
    constants pi and 2*pi add a few ulps of 2*pi each, so every
    computed step is within 1e-14 of the true one.  A computed step in
    (m, pi - m) therefore places the true one in (0, pi), far from the
    wrap's jump at +-pi, and the sums of the computed and the true steps
    differ by at most 1e-9 + N*1e-14, far less than the 2*pi between
    windings.  "No node at the origin" is taken as every squared node
    radius in [1e-290, 1e290]: then each shoelace term of signed_area,
    |p_i||p_{i+1}| sin(d_i) with sin(d_i) > 1e-12, computes positive and
    finite, so a certified polygon also has a positive computed area.
    It is accepted without computing that area or running
    ``_segments_intersect``, which the tests check agrees on certified
    polygons down to steps at the margin and nodes near the origin.

    Every other polygon runs the general test: signed_area (reusing the
    orientation area that the DiscreteCurve constructor computed, when
    it kept the node order) and the bounding-box sweep of
    ``_segments_intersect``, O(N log N) plus the candidate pairs; a
    polygon whose segments all overlap each other falls back to O(N^2)
    time in bounded chunks.
    """
    if isinstance(curve_or_nodes, DiscreteCurve):
        nodes, area = curve_or_nodes.nodes, curve_or_nodes._area
        certified = curve_or_nodes.star_certified
    else:
        nodes = np.asarray(curve_or_nodes, dtype=float)
        if not np.isfinite(nodes).all():
            return False
        certified, area = _star_certified(nodes, _wrapped_angle_steps(nodes)), None
    if certified:
        return True
    if area is None:
        area = signed_area(nodes)
    if area <= 0.0:
        return False
    return not _segments_intersect(nodes)


class CurveGeometry:
    """Per-node geometric data of a DiscreteCurve.

    tangent   : (N, 2) unit tangent from periodic central differences
    normal    : (N, 2) outward unit normal (tangent rotated by -90 degrees)
    curvature : (N,) signed curvature
    weights   : (N,) quadrature weights for the length measure ds;
                their sum is exactly the polygon perimeter
    """

    __slots__ = ("tangent", "normal", "curvature", "weights")

    def __init__(self, tangent, normal, curvature, weights):
        self.tangent = tangent
        self.normal = normal
        self.curvature = curvature
        self.weights = weights
        for arr in (tangent, normal, curvature, weights):
            arr.setflags(write=False)


class DiscreteCurve:
    """Periodic polygon of N planar nodes, oriented counterclockwise.

    Parameters
    ----------
    nodes : (N, 2) array of node coordinates, N >= 8, consecutive nodes
        distinct.  Orientation is normalized on construction: if the
        signed area is negative the node order is reversed so that the
        outward-normal convention holds unconditionally.
    params : optional (N,) strictly increasing parameter values in
        [0, 2*pi); defaults to the equidistant grid 2*pi*i/N.
    require_simple : when True (default) a self-intersecting polygon is
        rejected with ShapeDegenerate.  Pass False to build a
        non-admissible polygon on purpose, e.g. to feed check_simple.

    ``nodes``, ``params``, ``chords`` (the (N,) forward chord lengths) and
    ``angle_steps`` are read-only arrays; ``star_certified`` is a bool.
    """

    def __init__(self, nodes, params=None, require_simple=True):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise DegenerateCurve(f"nodes must be (N, 2), got {nodes.shape}")
        n = nodes.shape[0]
        if n < MIN_NODES:
            raise DegenerateCurve(f"need at least {MIN_NODES} nodes, got {n}")
        _check_finite(nodes)
        chords = _chords(nodes)

        if params is None:
            params = 2.0 * np.pi * np.arange(n) / n
        else:
            params = np.array(params, dtype=float)
            if params.shape != (n,):
                raise DegenerateCurve("params length must match node count")
            # written so that a nan or an infinite value fails it
            if not ((np.diff(params) > 0).all() and params[0] >= 0
                    and params[-1] < 2 * np.pi):
                raise DegenerateCurve("params must be strictly increasing in [0, 2*pi)")

        area = signed_area(nodes)
        if area < 0.0:
            # reverse traversal so orientation is counterclockwise; keep the
            # first node first and mirror the parameter gaps
            order = np.concatenate([[0], np.arange(n - 1, 0, -1)])
            nodes = nodes[order]
            gaps = np.diff(np.append(params, params[0] + 2 * np.pi))
            params = params[0] + np.concatenate([[0.0], np.cumsum(gaps[::-1][:-1])])
            # chord i of the reversed polygon is chord N-1-i of the input
            chords = chords[::-1].copy()
            # the reversed polygon sums its shoelace terms in another order
            area = None

        self._set(nodes, params, area)
        self._set_chords(chords)
        if require_simple and not check_simple(self):
            raise ShapeDegenerate("polygon self-intersects")

    @classmethod
    def _unchecked(cls, nodes, source):
        """Curve on fresh nodes moved from the curve source, whose validated
        read-only params and stencil weights it shares, with no chords yet:
        retract runs its checks on it, then sets the chords with
        _set_chords."""
        c = cls.__new__(cls)
        c._set(nodes, source.params)
        c._stencil = source._stencil
        return c

    def _set(self, nodes, params, area=None):
        for arr in (nodes, params):
            arr.setflags(write=False)
        self.nodes = nodes
        self.params = params
        # signed_area(nodes) when the constructor has it, for check_simple
        self._area = area
        self._angle_steps = None
        self._star = None
        self._geometry = None
        # the curvature stencil weights of params, from _stencil_weights
        self._stencil = None
        # mu -> the read-only record of functional._quadratic_record
        self._quadratic = {}

    def _set_chords(self, chords):
        chords.setflags(write=False)
        self.chords = chords

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def geometry(self):
        if self._geometry is None:
            self._geometry = _compute_geometry(self)
        return self._geometry

    @property
    def angle_steps(self):
        """(N,) read-only wrapped polar angle steps about the origin from
        node i to node i+1, computed on first use."""
        if self._angle_steps is None:
            dang = _wrapped_angle_steps(self.nodes)
            dang.setflags(write=False)
            self._angle_steps = dang
        return self._angle_steps

    @property
    def star_certified(self):
        """True when ``angle_steps`` pass the star certificate of
        check_simple, computed on first use."""
        if self._star is None:
            self._star = _star_certified(self.nodes, self.angle_steps)
        return self._star

    # -- serialization ----------------------------------------------------

    def to_csv(self, path):
        """Write one ``x,y`` row per node.  repr() gives the shortest
        decimal that round-trips, so reading the file back reproduces the
        coordinates exactly."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("".join(f"{x!r},{y!r}\n" for x, y in self.nodes.tolist()))

    @classmethod
    def from_csv(cls, path, **kwargs):
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                x, y = line.split(",")
                rows.append((float(x), float(y)))
        return cls(np.array(rows), **kwargs)

    def to_json(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump({"nodes": self.nodes.tolist()}, fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path, **kwargs):
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
        return cls(np.array(data["nodes"], dtype=float), **kwargs)


def _check_finite(nodes):
    if not np.isfinite(nodes).all():
        raise DegenerateCurve("nodes contain non-finite coordinates")


def _chords(nodes):
    """Forward chord lengths |node_{i+1} - node_i|; DegenerateCurve when
    two consecutive nodes coincide."""
    chords = row_norm(shift_next(nodes) - nodes)
    if (chords == 0.0).any():
        raise DegenerateCurve("consecutive nodes coincide")
    return chords


def _param_gaps(params):
    """Forward parameter gaps d+ with periodic wrap, and backward gaps d-."""
    dp = np.diff(np.append(params, params[0] + 2 * np.pi))
    return dp, shift_prev(dp)


def _stencil_weights(params):
    """Weights of the three-point parameter stencils of _compute_geometry:
    (dm, dp, den, cp, cm, c0, s).  They depend on params alone, which a
    retraction keeps, so a curve computes them once and the curves moved
    from it share them."""
    dp, dm = _param_gaps(params)
    return dm, dp, dm * dp * (dm + dp), dm ** 2, dp ** 2, dp ** 2 - dm ** 2, dm + dp


def _compute_geometry(c):
    # contiguous x and y columns: the same elementwise arithmetic as on the
    # (N, 2) rows, so the same bits, with faster ufunc loops
    nodes = c.nodes
    x, y = nodes[:, 0].copy(), nodes[:, 1].copy()
    xp, yp = shift_next(x), shift_next(y)
    xm, ym = shift_prev(x), shift_prev(y)
    cx, cy = xp - xm, yp - ym
    norms = np.sqrt(cx * cx + cy * cy)
    if (norms == 0.0).any():
        raise DegenerateCurve("central difference stencil produced a zero tangent")
    tx, ty = cx / norms, cy / norms
    tangent = np.column_stack([tx, ty])
    # rotate by -90 degrees: outward for counterclockwise orientation
    normal = np.column_stack([ty, -tx])
    # the backward chord at node i is the forward chord at node i-1
    weights = 0.5 * (c.chords + shift_prev(c.chords))

    # curvature kappa = (x'y'' - y'x'') / |(x', y')|^3 with three-point
    # stencils in the parameter; the nonuniform weights reduce to the
    # classical central differences on the equidistant grid
    if c._stencil is None:
        c._stencil = _stencil_weights(c.params)
    dm, dp, den, cp, cm, c0, s = c._stencil
    d1x = (cp * xp - cm * xm + c0 * x) / den
    d1y = (cp * yp - cm * ym + c0 * y) / den
    d2x = 2.0 * (dm * xp + dp * xm - s * x) / den
    d2y = 2.0 * (dm * yp + dp * ym - s * y) / den
    speed = np.sqrt(d1x * d1x + d1y * d1y)
    if (speed == 0.0).any():
        raise DegenerateCurve("zero speed in curvature stencil")
    curvature = (d1x * d2y - d1y * d2x) / speed ** 3
    return CurveGeometry(tangent, normal, curvature, weights)


def _moved(c, h, t):
    """The unchecked curve on the nodes of c moved by t*h_i along the
    outward normals: the node update of ``retract``, for a validated
    field h."""
    return DiscreteCurve._unchecked(c.nodes + float(t) * h[:, None] * c.geometry.normal, c)


def _retraction_candidate(c, field, t):
    """The unchecked curve that retract(c, field, t) admits or rejects,
    for a ``_CheckedField`` field.  It is kept on the field, with c and
    t, until the next retract of that field: a retract of c by this field
    at this t runs its checks on this very curve, so the nodes, angle
    steps and star flag computed here are not computed again."""
    moved = _moved(c, field.values, t)
    field._candidate = (c, float(t), moved)
    return moved


def retract(c, h, t=1.0):
    """Move every node of c by t*h_i along its outward normal.

    The straight-line retraction of the shape manifold: r_c(t h) has nodes
    nodes_i + t h_i n_i with parameters carried over unchanged.  The moved
    polygon must stay admissible: ShapeDegenerate is raised when it
    self-intersects, or when a local tangent reverses against the
    pre-step tangent.  The tangent test catches updates that drag the
    curve through itself and out the other side (for example a unit
    circle moved inward by 1.5), which end simple and counterclockwise
    again and so would slip past a pure self-intersection check.
    DegenerateCurve is raised when a moved node is not finite or two
    consecutive moved nodes coincide.

    When h is a ``_CheckedField`` that holds the moved curve of c at this
    t (``_retraction_candidate``), that curve is the one checked and
    returned; every check runs on it all the same.  Either way h keeps
    no candidate after the call.
    """
    kept = None
    if type(h) is _CheckedField:
        kept, h._candidate = h._candidate, None
    h = as_field(c, h, "h")
    if kept is not None and kept[0] is c and kept[1] == t:
        moved = kept[2]
    else:
        moved = _moved(c, h, t)
    nodes = moved.nodes
    chord = shift_next(nodes) - shift_prev(nodes)
    tan = c.geometry.tangent
    if (chord[:, 0] * tan[:, 0] + chord[:, 1] * tan[:, 1] <= 0.0).any():
        raise ShapeDegenerate("retraction reversed the local orientation of the curve")
    _check_finite(nodes)
    if not check_simple(moved):
        raise ShapeDegenerate("retracted polygon self-intersects")
    moved._set_chords(_chords(nodes))
    return moved


def tangential_second_derivative(c, u):
    """Discrete second derivative u_tautau along the curve.

    Three-point second-difference stencil for unequally spaced points,
    with the chord lengths to the two neighbors as arc distances:

        u_tautau(i) ~ 2 [ u(i-1)/(d-(d-+d+)) - u(i)/(d-d+) + u(i+1)/(d+(d-+d+)) ]

    Exact for fields quadratic in arc length; second order on smooth data.
    """
    u = as_field(c, u, "u")
    dp = c.chords
    dm = shift_prev(dp)
    up = shift_next(u)
    um = shift_prev(u)
    return 2.0 * (dm * up + dp * um - (dm + dp) * u) / (dm * dp * (dm + dp))
