"""Deterministic SVG rendering of lattice-embedded complexes and paths.

Unit triangle side = 40px, rows drawn top-down.  Output is byte-stable for a
given input: elements are emitted in sorted order with fixed float widths.
"""

from __future__ import annotations

import math
from fractions import Fraction

SIDE = 40.0
ROW_H = SIDE * math.sqrt(3) / 2
PAD = 20.0

_PATH_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(coords: dict[int, tuple[int, Fraction]], edges, triangles=(),
               paths=()) -> str:
    """Render an embedded complex plus optional (row, x) polyline paths."""
    if not coords:
        raise ValueError("nothing to render")

    def to_px(point):
        row, x = point
        return float(x) * SIDE, float(row) * ROW_H

    pts = [to_px(p) for p in coords.values()]
    for path in paths:
        pts += [to_px(p) for p in path]
    min_x = min(p[0] for p in pts) - PAD
    min_y = min(p[1] for p in pts) - PAD
    max_x = max(p[0] for p in pts) + PAD
    max_y = max(p[1] for p in pts) + PAD
    w, h = max_x - min_x, max_y - min_y

    def px(point) -> str:
        x, y = to_px(point)
        return f"{_fmt(x - min_x)},{_fmt(y - min_y)}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">'
    ]
    for tri in sorted(tuple(sorted(t)) for t in triangles):
        corners = " ".join(px(coords[v]) for v in tri)
        out.append(f'<polygon points="{corners}" fill="#f2e8cf" stroke="none"/>')
    for u, v in sorted(tuple(sorted(e)) for e in edges):
        a, b = px(coords[u]).split(","), px(coords[v]).split(",")
        out.append(f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
                   f'stroke="#7f7f7f" stroke-width="1.5"/>')
    for v in sorted(coords):
        x, y = px(coords[v]).split(",")
        out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#333333"/>')
    for i, path in enumerate(paths):
        color = _PATH_COLORS[i % len(_PATH_COLORS)]
        points = " ".join(px(p) for p in path)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="2.5" stroke-dasharray="{6 + 3 * i},3"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def poly_path_points(poly) -> list[tuple[int, Fraction]]:
    """(row, x) samples of a PolyPath, one per row."""
    return [(poly.first_row + k, x) for k, x in enumerate(poly.xs)]
