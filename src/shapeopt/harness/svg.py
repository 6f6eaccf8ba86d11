"""Static SVG emitter for curve iterates.

One closed polyline per curve, blue-to-red over the sequence, y flipped so
the plane's orientation matches the picture.  Points are integers in units
of 1e-5 of the plane (np.rint of 1e5 x): a drawing at 1e-5 resolution in
the viewBox "-120000 -120000 240000 240000", which is [-1.2, 1.2]^2.  The
exact nodes live in the CSV and JSON outputs.

The rounded points are formatted as int64, so each must lie below 2**63
in magnitude: a node coordinate up to about 9.2e13.  A curve with a node
beyond that, or one that is not finite, raises ValueError.

``render_curves`` runs that range test over every curve before it opens
the file, then writes the file polyline by polyline: a drawing is never
held whole in memory, only the one polyline being written, and a bad
curve leaves no file behind.

The points are written by a numpy kernel, the bytes "%d" would give.  Each
value becomes a row of k 4-byte group words, its magnitude's base-1000
groups from the most significant, and the NULs are then deleted from the
row-major bytes.  A group word holds its three digits right-aligned in
bytes 1-3, with byte 0 NUL.  k >= 2 is chosen so that every value's top
group has at most 2 digits, which leaves bytes 0 and 1 of the top word
for the separator before the value (none before the first, "," before y
and " " before x) and the sign.  The words come from a table of 9 rows of
1000 words built at import (36 KB): the digits zero-padded for an inner
group, right-aligned and NUL-padded for the leading group (0 as "0"),
NULs for a group above the leading one, and 6 rows of top words, one per
separator and sign.  A top group of 0 lies above the leading group,
since k >= 2, so its top word holds the separator and sign alone.  A
value below 10**5 in magnitude, as every Table-1 point is, so takes an
8-byte row, and one path covers 1 to 19 digits.
"""

import numpy as np

# table rows of an inner and of the leading group; row 2, for a group
# above the leading one, is all NULs, and the top words follow it
INNER, LEADING = 0, 1
SEPARATORS = b"\0, "


def _top_row(sep, negative):
    """Table row of the top words with separator SEPARATORS[sep] and the
    sign."""
    return 3 + 2 * sep + negative


def _group_words():
    """Word of group g at g + 1000 * row, for the rows INNER, LEADING,
    2 (above the leading group) and the ``_top_row`` rows."""
    g = np.arange(1000)
    chars = np.zeros((9, 1000, 4), np.uint8)
    for i, place in enumerate((100, 10, 1), start=1):
        digit = (g // place % 10 + ord("0")).astype(np.uint8)
        chars[INNER, :, i] = digit
        chars[LEADING, :, i] = digit if place == 1 else np.where(g >= place, digit, 0)
        if place < 100:  # a top group has at most 2 digits, in bytes 2-3
            chars[3:, :, i] = np.where(g >= place, digit, 0)
    for sep in range(3):
        for negative in range(2):
            row = chars[_top_row(sep, negative)]
            row[:, 0] = SEPARATORS[sep]
            row[:, 1] = ord("-") if negative else 0
    return chars.view(np.uint32).reshape(-1)


_GROUP_WORDS = _group_words()


def _points(values):
    """ASCII bytes of the int64 values (|v| < 2**63) as "x0,y0 x1,y1 ..."."""
    n = len(values)
    mag = np.abs(values)
    top = int(mag.max())
    k = 2  # groups of the largest magnitude, its top group below 100
    while top >= 10 ** (3 * k - 1):
        k += 1
    words = np.empty((n, k), np.uint32)
    # table offset of each value's top word: its separator and sign
    top_offset = np.full(n, 1000 * _top_row(2, 0))
    top_offset[1::2] = 1000 * _top_row(1, 0)
    top_offset[0] = 1000 * _top_row(0, 0)
    top_offset += 1000 * (values < 0)
    rest, above = mag, False
    for j in range(k - 1):  # group j counts 10**(3j), written in column k - 1 - j
        high = rest // 1000
        # table row: 0 (inner), +1 below 10**(3j+3) (leading), +1 more
        # below 10**(3j) (above the leading group)
        leads = mag < 10 ** (3 * j + 3)
        row = np.add(leads, above, dtype=np.int64) if j else leads
        words[:, k - 1 - j] = _GROUP_WORDS.take(rest - 1000 * (high - row))
        rest, above = high, leads
    words[:, 0] = _GROUP_WORDS.take(rest + top_offset)
    return words.tobytes().translate(None, b"\0")


def _ramp(i, count):
    frac = i / (count - 1) if count > 1 else 1.0
    r = round(255 * frac)
    return f"rgb({r},0,{255 - r})"


def _drawable(nodes, name):
    """The nodes as a float array, or ValueError naming the curve when it
    has no nodes or a point that, scaled and rounded, does not cast to
    int64.  The test is 1e5 * max|node| < 2**63, which equals the test
    on the rounded points: scaling by 1e5 is monotone, rint is the
    identity above 2**52, and a nan fails both."""
    nodes = np.asarray(nodes, dtype=float)
    if not len(nodes):
        raise ValueError(f"{name} has no nodes")
    if not 1e5 * np.abs(nodes).max() < 2.0 ** 63:
        raise ValueError(f"{name} has a node that is not finite or beyond 9.2e13")
    return nodes


def _polyline(nodes, color):
    """The polyline element of one curve, as ASCII bytes, from a float
    array that passed ``_drawable``."""
    # the scaled points, the first repeated last to close the loop
    q = np.empty((len(nodes) + 1, 2))
    np.multiply(nodes[:, 0], 100000.0, out=q[:-1, 0])
    np.multiply(nodes[:, 1], -100000.0, out=q[:-1, 1])
    q[-1] = q[0]
    np.rint(q, out=q)
    return (b'<polyline points="' + _points(q.astype(np.int64).ravel())
            + f'" fill="none" stroke="{color}" stroke-width="1200" />'.encode("ascii"))


def render_curves(node_arrays, path):
    """Write the curves (a sequence of (N, 2) node arrays) to an SVG file
    and return the path.  Every curve passes ``_drawable`` before the
    file is opened, so a bad one raises its ValueError and leaves the
    path untouched; the file is then written polyline by polyline from
    the arrays ``_drawable`` returned."""
    curves = [_drawable(nodes, f"curve {i}") for i, nodes in enumerate(node_arrays)]
    with open(path, "wb") as fh:
        fh.write(b'<?xml version="1.0" encoding="UTF-8"?>\n'
                 b'<svg xmlns="http://www.w3.org/2000/svg" '
                 b'viewBox="-120000 -120000 240000 240000">\n')
        for i, nodes in enumerate(curves):
            # one write per polyline: a newline written apart would cost a
            # second system call, as the buffer flushes before a large write
            fh.write(_polyline(nodes, _ramp(i, len(curves))) + b"\n")
        fh.write(b"</svg>\n")
    return path
