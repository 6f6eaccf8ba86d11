"""Static SVG emitter for curve iterates.

One closed polyline per curve inside a fixed [-1.2, 1.2]^2 viewBox, with
a blue-to-red ramp over the sequence (first curve blue, last red).  The
y axis is flipped so the plane's orientation matches the picture.
"""

import numpy as np


def _ramp(i, count):
    frac = i / (count - 1) if count > 1 else 1.0
    r = round(255 * frac)
    return f"rgb({r},0,{255 - r})"


def _polyline(nodes, color):
    xy = np.column_stack([nodes[:, 0], -nodes[:, 1]])
    # tolist() yields Python floats, whose repr is the shortest round-trip
    pts = " ".join(f"{x!r},{y!r}" for x, y in np.vstack([xy, xy[:1]]).tolist())
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="0.012" />')


def render_curves(node_arrays, path):
    """Write the curves (a sequence of (N, 2) node arrays) to an SVG file
    and return the path."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">',
    ]
    count = len(node_arrays)
    for i, nodes in enumerate(node_arrays):
        lines.append(_polyline(nodes, _ramp(i, count)))
    lines.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
