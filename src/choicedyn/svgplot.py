"""Minimal deterministic SVG scatter output: one marker per cloud point."""

from __future__ import annotations

import numpy as np

SIZE = 480  # width in pixels
COLOR = "#1f4e8c"


def scatter_svg(points, xlim=None, ylim=None) -> str:
    """Render points (1-D points are laid out on the x-axis) as an SVG string."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] == 1:
        pts = np.column_stack((pts[:, 0], np.zeros(len(pts))))
    if xlim is None:
        xlim = (float(pts[:, 0].min()), float(pts[:, 0].max())) if len(pts) else (0.0, 1.0)
    if ylim is None:
        ylim = (float(pts[:, 1].min()), float(pts[:, 1].max())) if len(pts) else (0.0, 1.0)
    x0, x1 = xlim
    y0, y1 = ylim
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0
    pad = 0.04
    radius = max(spanx, spany) * 0.004
    height = int(round(SIZE * spany / spanx)) or SIZE
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{height}" '
        f'viewBox="{x0 - pad * spanx:.6f} {-(y1 + pad * spany):.6f} '
        f'{spanx * (1 + 2 * pad):.6f} {spany * (1 + 2 * pad):.6f}">',
        f'<rect x="{x0:.6f}" y="{-y1:.6f}" width="{spanx:.6f}" height="{spany:.6f}" '
        'fill="none" stroke="#999999" stroke-width="0.2%"/>',
    ]
    for row in pts:
        lines.append(f'<circle cx="{row[0]:.6f}" cy="{-row[1]:.6f}" r="{radius:.6f}" fill="{COLOR}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_scatter(path, points, xlim=None, ylim=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scatter_svg(points, xlim=xlim, ylim=ylim))
