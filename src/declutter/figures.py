"""Minimal SVG scatter emission for 2-D outputs (static figure parity)."""
from __future__ import annotations

import numpy as np

from .geometry import GeometryError


def write_scatter_svg(path, layers) -> None:
    """Write a 640 px square scatter plot of 2-D point layers.

    ``layers`` is a list of (points, color) or (points, color, radius)
    tuples, drawn in order (radius 2 px when absent). All layers share one
    bounding box, padded by 5% of its span.
    """
    size, margin, point_radius = 640, 0.05, 2.0
    prepared = []
    for layer in layers:
        pts = np.atleast_2d(np.asarray(layer[0], dtype=np.float64))
        if pts.shape[1] != 2:
            raise GeometryError("SVG emission only supports 2-D points")
        color = layer[1]
        radius = layer[2] if len(layer) > 2 else point_radius
        prepared.append((pts, color, radius))
    allpts = np.vstack([p for p, _, _ in prepared if p.shape[0]])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = margin * span.max()
    lo = lo - pad
    span = span + 2 * pad
    scale = size / span.max()

    def to_px(pts):
        x = (pts[:, 0] - lo[0]) * scale
        y = size - (pts[:, 1] - lo[1]) * scale  # svg y grows downward
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for pts, color, radius in prepared:
        if pts.shape[0] == 0:
            continue
        x, y = to_px(pts)
        circles = "".join(
            f'<circle cx="{xi:.2f}" cy="{yi:.2f}" r="{radius}" fill="{color}"/>'
            for xi, yi in zip(x, y))
        parts.append(f"<g>{circles}</g>")
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
