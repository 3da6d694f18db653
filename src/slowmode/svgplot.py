"""Minimal deterministic SVG figures.

Static figures for the two comparison views the command line exposes:
truncations against the exact branch, and the discrete operator
spectrum.  The writer is deliberately dependency-free and deterministic:
identical inputs yield byte-identical SVG text.
"""

import math
from dataclasses import dataclass

__all__ = ["comparison_svg", "spectrum_svg"]

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


@dataclass(frozen=True)
class _Frame:
    """Affine map from data coordinates to a margined viewport."""

    x0: float
    x1: float
    y0: float
    y1: float
    width: int = 640
    height: int = 440
    margin: int = 50

    def px(self, x: float) -> float:
        span = self.x1 - self.x0
        u = (x - self.x0) / span if span else 0.5
        return self.margin + u * (self.width - 2 * self.margin)

    def py(self, y: float) -> float:
        span = self.y1 - self.y0
        u = (y - self.y0) / span if span else 0.5
        return self.height - self.margin - u * (self.height - 2 * self.margin)


def _figure_head(frame: _Frame, x_label: str, y_label: str, marker_x: float) -> list[str]:
    """Document head, background, axes, their labels and a dashed
    vertical marker line at x = marker_x."""
    left = _fmt(frame.margin)
    right = _fmt(frame.width - frame.margin)
    top = _fmt(frame.margin)
    bottom = _fmt(frame.height - frame.margin)
    marker = _fmt(frame.px(marker_x))
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}"'
        f' height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">',
        f'<rect x="0" y="0" width="{frame.width}" height="{frame.height}" fill="#ffffff"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="#000000" stroke-width="1"/>',
        f'<text x="{left}" y="{_fmt(frame.height - frame.margin + 30)}" font-size="12">{_fmt(frame.x0)}</text>',
        f'<text x="{right}" y="{_fmt(frame.height - frame.margin + 30)}" font-size="12" text-anchor="end">{_fmt(frame.x1)}</text>',
        f'<text x="{_fmt(frame.margin - 5)}" y="{bottom}" font-size="12" text-anchor="end">{_fmt(frame.y0)}</text>',
        f'<text x="{_fmt(frame.margin - 5)}" y="{_fmt(frame.margin + 4)}" font-size="12" text-anchor="end">{_fmt(frame.y1)}</text>',
        f'<text x="{_fmt(frame.width / 2)}" y="{_fmt(frame.height - 10)}" font-size="13" text-anchor="middle">{x_label}</text>',
        f'<text x="15" y="{_fmt(frame.height / 2)}" font-size="13" text-anchor="middle" transform="rotate(-90 15 {_fmt(frame.height / 2)})">{y_label}</text>',
        f'<line x1="{marker}" y1="{top}" x2="{marker}" y2="{bottom}" stroke="#888888"'
        ' stroke-width="1" stroke-dasharray="2,3"/>',
    ]


def _curve_path(frame: _Frame, xs, ys, stroke: str, dasharray: str | None) -> str:
    """Polyline path; points outside the frame's y-window break the line."""
    chunks: list[str] = []
    pen_down = False
    for x, y in zip(xs, ys):
        if not (math.isfinite(y) and frame.y0 <= y <= frame.y1):
            pen_down = False
            continue
        command = "L" if pen_down else "M"
        chunks.append(f"{command}{_fmt(frame.px(x))},{_fmt(frame.py(y))}")
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
    y_window: tuple[float, float] = (-1.3, 0.3),
) -> str:
    """Exact scaled branch (solid) versus truncations (dashed).

    Emits exactly one ``<path>`` per curve; truncation values that leave
    ``y_window`` (they grow without bound past their sign change) break
    the corresponding path rather than distorting the frame.
    """
    xs = list(x)
    if not xs:
        raise ValueError("comparison figure needs at least one grid point")
    frame = _Frame(
        x0=min(min(xs), 0.0),
        x1=max(max(xs), critical_x),
        y0=y_window[0],
        y1=y_window[1],
    )
    parts = _figure_head(frame, "scaled wave number x", "scaled decay rate", critical_x)
    parts.append(_curve_path(frame, xs, exact, "#000000", None))
    legend_y = frame.margin + 16
    parts.append(
        f'<text x="{_fmt(frame.width - frame.margin - 5)}" y="{_fmt(legend_y)}"'
        ' font-size="12" text-anchor="end">exact</text>'
    )
    for i, order in enumerate(sorted(truncations)):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            _curve_path(frame, xs, truncations[order], color, "6,3")
        )
        legend_y += 16
        parts.append(
            f'<text x="{_fmt(frame.width - frame.margin - 5)}" y="{_fmt(legend_y)}"'
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
    """
    eigs = [complex(e) for e in eigenvalues]
    if not eigs:
        raise ValueError("spectrum figure needs at least one eigenvalue")
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
