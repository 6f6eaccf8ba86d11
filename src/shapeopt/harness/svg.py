"""Static SVG emitter for curve iterates.

One closed polyline per curve, blue-to-red over the sequence, y flipped so
the plane's orientation matches the picture.  Points are integers in units
of 1e-5 of the plane (np.rint of 1e5 x): a drawing at 1e-5 resolution in
the viewBox "-120000 -120000 240000 240000", which is [-1.2, 1.2]^2.  The
exact nodes live in the CSV and JSON outputs.

The rounded points are formatted as int64, so each must lie below 2**63
in magnitude: a node coordinate up to about 9.2e13.  A curve with a node
beyond that, or one that is not finite, raises ValueError.

The points are written by a numpy kernel, the bytes "%d" would give.  Each
value becomes a row of 4-byte words: a sign word ("-" or NULs), its
magnitude's base-10**4 chunks from the most significant, and a separator
word ("," after x, " " after y, NULs after the last value); the NULs are
then deleted from the row-major bytes.  A chunk's word comes from a table
of 3 * 10**4 words built at import (120 KB): its digits zero-padded for an
inner chunk, right-aligned and NUL-padded for the leading chunk (0 as "0"),
and four NULs for a chunk above the leading one.  The chunk count follows
the curve's largest magnitude, so one path covers 1 to 19 digits.
"""

import numpy as np


def _chunk_words():
    """Word of chunk c at c (inner), 10**4 + c (leading) and 2 * 10**4 + c
    (above the leading chunk).  Built one digit column at a time: a
    (10**4, 4) integer temporary would add 1 MB to the peak RSS."""
    c = np.arange(10 ** 4)
    chars = np.zeros((3, 10 ** 4, 4), np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        digit = (c // place % 10 + ord("0")).astype(np.uint8)
        chars[0, :, i] = digit
        chars[1, :, i] = digit if place == 1 else np.where(c >= place, digit, 0)
    return chars.view(np.uint32).reshape(-1)


_CHUNK_WORDS = _chunk_words()
_MINUS, _COMMA, _SPACE = np.frombuffer(b"-\0\0\0,\0\0\0 \0\0\0", np.uint32)


def _points(values):
    """ASCII of the int64 values (|v| < 2**63) as "x0,y0 x1,y1 ..."."""
    mag = np.abs(values)
    top = int(mag.max())
    k = 1  # chunks of the largest magnitude
    while top >= 10 ** (4 * k):
        k += 1
    words = np.empty((len(values), k + 2), np.uint32)
    words[:, 0] = (values < 0) * _MINUS
    words[0::2, -1] = _COMMA
    words[1::2, -1] = _SPACE
    words[-1, -1] = 0
    rest = mag
    for j in range(k):  # chunk j counts 10**(4j), written in column k - j
        high = rest // 10 ** 4
        # table row: 0 (inner), +1 below 10**(4j+4) (leading), +1 more below
        # 10**(4j) (above); every magnitude is below 10**(4k), which may
        # not fit in int64, so the top chunk skips its first test
        row = 1 if j == k - 1 else (mag < 10 ** (4 * j + 4)).astype(np.int64)
        if j:
            row = row + (mag < 10 ** (4 * j))
        words[:, k - j] = _CHUNK_WORDS.take(rest - 10 ** 4 * high + 10 ** 4 * row)
        rest = high
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _ramp(i, count):
    frac = i / (count - 1) if count > 1 else 1.0
    r = round(255 * frac)
    return f"rgb({r},0,{255 - r})"


def _polyline(nodes, color, name="curve"):
    q = np.rint(np.column_stack([nodes[:, 0], -nodes[:, 1]]) * 100000.0)
    if not (np.abs(q) < 2.0 ** 63).all():  # also false for nan
        raise ValueError(f"{name} has a node that is not finite or beyond 9.2e13")
    q = q.astype(np.int64)
    pts = _points(np.vstack([q, q[:1]]).ravel())
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
