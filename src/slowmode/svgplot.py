"""Minimal deterministic SVG figures.

Static figures for the two comparison views the command line exposes:
truncations against the exact branch, and the discrete operator
spectrum.  The writer is deliberately dependency-free and deterministic:
identical inputs yield byte-identical SVG text.
"""

import math
from typing import NamedTuple

__all__ = ["comparison_svg", "spectrum_svg"]

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: Decay-rate window of the comparison figure.
_Y_WINDOW = (-1.3, 0.3)

#: Figure size and the margin around the plotted viewport, in pixels.
_WIDTH = 640
_HEIGHT = 440
_MARGIN = 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _require_finite(name: str, values) -> None:
    """Refuse the first of ``values`` whose real or imaginary part is not
    finite: it would be written into the figure as "nan" or "inf"."""
    for value in values:
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{name} must be finite, got {value!r}")


class _Frame(NamedTuple):
    """Affine map from data coordinates to a margined viewport."""

    x0: float
    x1: float
    y0: float
    y1: float

    def px(self, x: float) -> float:
        span = self.x1 - self.x0
        u = (x - self.x0) / span if span else 0.5
        return _MARGIN + u * (_WIDTH - 2 * _MARGIN)

    def py(self, y: float) -> float:
        span = self.y1 - self.y0
        u = (y - self.y0) / span if span else 0.5
        return _HEIGHT - _MARGIN - u * (_HEIGHT - 2 * _MARGIN)


def _figure_head(frame: _Frame, x_label: str, y_label: str, marker_x: float) -> list[str]:
    """Document head, background, axes, their labels and a dashed
    vertical marker line at x = marker_x."""
    left = _fmt(_MARGIN)
    right = _fmt(_WIDTH - _MARGIN)
    top = _fmt(_MARGIN)
    bottom = _fmt(_HEIGHT - _MARGIN)
    marker = _fmt(frame.px(marker_x))
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}"'
        f' height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="#000000" stroke-width="1"/>',
        f'<text x="{left}" y="{_fmt(_HEIGHT - _MARGIN + 30)}" font-size="12">{_fmt(frame.x0)}</text>',
        f'<text x="{right}" y="{_fmt(_HEIGHT - _MARGIN + 30)}" font-size="12" text-anchor="end">{_fmt(frame.x1)}</text>',
        f'<text x="{_fmt(_MARGIN - 5)}" y="{bottom}" font-size="12" text-anchor="end">{_fmt(frame.y0)}</text>',
        f'<text x="{_fmt(_MARGIN - 5)}" y="{_fmt(_MARGIN + 4)}" font-size="12" text-anchor="end">{_fmt(frame.y1)}</text>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT - 10)}" font-size="13" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{_fmt(_HEIGHT / 2)}" font-size="13" text-anchor="middle" transform="rotate(-90 15 {_fmt(_HEIGHT / 2)})">{y_label}</text>',
        f'<line x1="{marker}" y1="{top}" x2="{marker}" y2="{bottom}" stroke="#888888"'
        ' stroke-width="1" stroke-dasharray="2,3"/>',
    ]


def _curve_path(frame: _Frame, x_pixels, ys, stroke: str, dasharray: str | None) -> str:
    """Polyline path through the formatted pixel x of each point;
    points outside the frame's y-window break the line."""
    chunks: list[str] = []
    pen_down = False
    for x_pixel, y in zip(x_pixels, ys):
        if not (math.isfinite(y) and frame.y0 <= y <= frame.y1):
            pen_down = False
            continue
        command = "L" if pen_down else "M"
        chunks.append(f"{command}{x_pixel},{_fmt(frame.py(y))}")
        pen_down = True
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    return (
        f'<path d="{" ".join(chunks)}" fill="none" stroke="{stroke}"'
        f' stroke-width="1.5"{dash}/>'
    )


def comparison_svg(
    x,
    exact,
    truncations: dict[int, tuple],
    critical_x: float,
) -> str:
    """Exact scaled branch (solid) versus truncations (dashed).

    Emits exactly one ``<path>`` per curve; truncation values that leave
    ``_Y_WINDOW`` (they grow without bound past their sign change) or are
    not finite break the corresponding path rather than distorting the
    frame.  A non-finite entry of ``x`` or ``critical_x``, or a curve
    without one value per entry of ``x``, raises ValueError.
    """
    xs = list(x)
    if not xs:
        raise ValueError("comparison figure needs at least one grid point")
    curves = [("exact", exact)] + [(f"truncation N={n}", ys) for n, ys in truncations.items()]
    for name, ys in curves:
        if len(ys) != len(xs):
            raise ValueError(f"{name} must hold one value per grid point: {len(ys)} for {len(xs)}")
    critical_x = float(critical_x)
    _require_finite("critical_x", [critical_x])
    _require_finite("x", xs)
    frame = _Frame(min(min(xs), 0.0), max(max(xs), critical_x), *_Y_WINDOW)
    parts = _figure_head(frame, "scaled wave number x", "scaled decay rate", critical_x)
    # Every curve shares the grid, so each point's pixel x is formatted once.
    x_pixels = [_fmt(frame.px(x)) for x in xs]
    parts.append(_curve_path(frame, x_pixels, exact, "#000000", None))
    legend_y = _MARGIN + 16
    parts.append(
        f'<text x="{_fmt(_WIDTH - _MARGIN - 5)}" y="{_fmt(legend_y)}"'
        ' font-size="12" text-anchor="end">exact</text>'
    )
    for i, order in enumerate(sorted(truncations)):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(_curve_path(frame, x_pixels, truncations[order], color, "6,3"))
        legend_y += 16
        parts.append(
            f'<text x="{_fmt(_WIDTH - _MARGIN - 5)}" y="{_fmt(legend_y)}"'
            f' font-size="12" text-anchor="end" fill="{color}">N={order}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def spectrum_svg(
    eigenvalues,
    essential_rate: float,
    hydrodynamic: complex | None,
) -> str:
    """Scatter of operator eigenvalues in the complex plane.

    The continuum line Re = essential_rate is marked dashed; the
    isolated slow eigenvalue, when present, is drawn as a filled marker.
    A non-finite eigenvalue or marker raises ValueError.
    """
    eigs = [complex(e) for e in eigenvalues]
    if not eigs:
        raise ValueError("spectrum figure needs at least one eigenvalue")
    essential_rate = float(essential_rate)
    hydrodynamic = None if hydrodynamic is None else complex(hydrodynamic)
    _require_finite("essential_rate", [essential_rate])
    if hydrodynamic is not None:
        _require_finite("hydrodynamic", [hydrodynamic])
    _require_finite("eigenvalues", eigs)
    res = [e.real for e in eigs]
    ims = [e.imag for e in eigs]
    pad_x = 0.1 * max(max(res) - min(res), 0.1)
    pad_y = 0.1 * max(max(ims) - min(ims), 0.1)
    frame = _Frame(
        x0=min(min(res), essential_rate) - pad_x,
        x1=max(max(res), 0.0) + pad_x,
        y0=min(ims) - pad_y,
        y1=max(ims) + pad_y,
    )
    parts = _figure_head(frame, "Re", "Im", essential_rate)
    for e in eigs:
        if hydrodynamic is not None and e == hydrodynamic:
            continue
        parts.append(
            f'<circle cx="{_fmt(frame.px(e.real))}" cy="{_fmt(frame.py(e.imag))}"'
            ' r="3" fill="none" stroke="#1f77b4" stroke-width="1"/>'
        )
    if hydrodynamic is not None:
        parts.append(
            f'<circle cx="{_fmt(frame.px(hydrodynamic.real))}"'
            f' cy="{_fmt(frame.py(hydrodynamic.imag))}" r="5" fill="#d62728"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
