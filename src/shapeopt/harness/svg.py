"""Static SVG emitter for curve iterates.

One closed polyline per curve, blue-to-red over the sequence, y flipped so
the plane's orientation matches the picture.  Points are integers in units
of 1e-5 of the plane (np.rint of 1e5 x): a drawing at 1e-5 resolution in
the viewBox "-120000 -120000 240000 240000", which is [-1.2, 1.2]^2.  The
exact nodes live in the CSV and JSON outputs.

The rounded points are formatted as int64, so each must lie below 2**63
in magnitude: a node coordinate up to about 9.2e13.  A curve with a node
beyond that, or one that is not finite, raises ValueError.
"""

import numpy as np


def _ramp(i, count):
    frac = i / (count - 1) if count > 1 else 1.0
    r = round(255 * frac)
    return f"rgb({r},0,{255 - r})"


def _polyline(nodes, color, name="curve"):
    q = np.rint(np.column_stack([nodes[:, 0], -nodes[:, 1]]) * 100000.0)
    if not (np.abs(q) < 2.0 ** 63).all():  # also false for nan
        raise ValueError(f"{name} has a node that is not finite or beyond 9.2e13")
    # int64 formats twice as fast as float under %d, with the same digits
    q = q.astype(np.int64)
    pts = ("%d,%d " * (len(q) + 1))[:-1] % tuple(np.vstack([q, q[:1]]).ravel().tolist())
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1200" />'


def render_curves(node_arrays, path):
    """Write the curves (a sequence of (N, 2) node arrays) to an SVG file
    and return the path; ValueError if a node is not finite or beyond
    9.2e13."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="-120000 -120000 240000 240000">']
    for i, nodes in enumerate(node_arrays):
        lines.append(_polyline(nodes, _ramp(i, len(node_arrays)), f"curve {i}"))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n</svg>\n")
    return path
