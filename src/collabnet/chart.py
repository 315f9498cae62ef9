"""Deterministic SVG line charts for metric series and forecast bands.

The layout is fixed-size with computed scales, so identical inputs yield
byte-identical documents; tests assert on XML structure rather than pixels.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DataError, NumericError
from .timeseries import MetricSeries

WIDTH, HEIGHT = 800, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 170, 44, 46
# the entities `xml.sax.saxutils.escape` writes, for text, and with `"` for a double-quoted attribute
ESCAPE_TEXT = str.maketrans({"&": "&amp;", ">": "&gt;", "<": "&lt;"})
ESCAPE_ATTR = str.maketrans({"&": "&amp;", ">": "&gt;", "<": "&lt;", '"': "&quot;"})
MIN_SPAN = 1e-12  # the narrowest value axis, relative to its values: a tick step stays far above their rounding
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target + 1:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def emit_chart(
    series_list: list[MetricSeries],
    title: str = "",
    band: dict | None = None,
    config_hash: str = "",
) -> str:
    """Render series as polylines, with an optional forecast band behind them.

    `band` carries years/points/lower/upper (the read_forecast_csv layout);
    the band polygon and its center line join the chart under the tag
    class="band" / class="forecast".
    """
    if not series_list:
        raise DataError("emit_chart needs at least one series")

    all_years: set[int] = set()
    lo, hi = math.inf, -math.inf
    for s in series_list:
        ys, vs = s.present()
        all_years.update(int(y) for y in ys)
        if len(vs):
            lo, hi = min(lo, float(vs.min())), max(hi, float(vs.max()))
    if band:
        all_years.update(band["years"])
        lo = min(lo, min(band["lower"]))
        hi = max(hi, max(band["upper"]))
    if not all_years or not math.isfinite(lo):
        raise DataError("no plottable values in the supplied series")
    low, high = lo, hi
    if hi - lo < MIN_SPAN * max(abs(lo), abs(hi), 1e-288):  # flat, or too narrow for a float tick step (subnormal too)
        mid = lo / 2 + hi / 2
        half = max(0.5, MIN_SPAN * abs(mid))
        lo, hi = mid - half, mid + half
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise NumericError(f"values from {low:.6g} to {high:.6g} overflow a float once padded for the axis")
    x_lo, x_hi = min(all_years), max(all_years)
    if x_hi == x_lo:
        x_hi = x_lo + 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(year: float) -> float:
        return MARGIN_L + (year - x_lo) / (x_hi - x_lo) * plot_w

    def sy(value: float) -> float:
        return MARGIN_T + (hi - value) / (hi - lo) * plot_h

    config_attr = f' data-config="{config_hash.translate(ESCAPE_TEXT)}"' if config_hash else ""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12"{config_attr}>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title.translate(ESCAPE_TEXT)}</text>'
        )

    # axes and ticks
    x_axis_y = MARGIN_T + plot_h
    parts.append(
        f'<g class="axes" stroke="#333"><line x1="{MARGIN_L}" y1="{x_axis_y}" x2="{MARGIN_L + plot_w}" y2="{x_axis_y}"/>'
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{x_axis_y}"/></g>'
    )
    tick_parts = ['<g class="ticks" fill="#333">']
    for year in _nice_ticks(x_lo, x_hi, 8):
        if year != int(year):
            continue
        x = sx(year)
        tick_parts.append(f'<line x1="{_fmt(x)}" y1="{x_axis_y}" x2="{_fmt(x)}" y2="{x_axis_y + 5}" stroke="#333"/>')
        tick_parts.append(
            f'<text x="{_fmt(x)}" y="{x_axis_y + 18}" text-anchor="middle">{int(year)}</text>'
        )
    for val in _nice_ticks(lo, hi, 5):
        y = sy(val)
        tick_parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="#333"/>')
        tick_parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end">{val:.6g}</text>'
        )
    tick_parts.append("</g>")
    parts.extend(tick_parts)

    if band:
        upper_pts = [f"{_fmt(sx(y))},{_fmt(sy(v))}" for y, v in zip(band["years"], band["upper"])]
        lower_pts = [f"{_fmt(sx(y))},{_fmt(sy(v))}" for y, v in zip(reversed(band["years"]), reversed(band["lower"]))]
        parts.append(
            f'<polygon class="band" points="{" ".join(upper_pts + lower_pts)}" '
            f'fill="#c6dbef" fill-opacity="0.6" stroke="none"/>'
        )
        center = [f"{_fmt(sx(y))},{_fmt(sy(v))}" for y, v in zip(band["years"], band["points"])]
        parts.append(
            f'<polyline class="forecast" points="{" ".join(center)}" fill="none" '
            f'stroke="#555" stroke-dasharray="4 3"/>'
        )

    legend_items = []
    for i, s in enumerate(series_list):
        color = PALETTE[i % len(PALETTE)]
        # break the polyline at missing values
        segment: list[str] = []
        segments: list[list[str]] = []
        for year, value in zip(s.years, s.values):
            if value is None:
                if len(segment) > 1:
                    segments.append(segment)
                segment = []
            else:
                segment.append(f"{_fmt(sx(year))},{_fmt(sy(value))}")
        if len(segment) > 1:
            segments.append(segment)
        for seg in segments:
            parts.append(
                f'<polyline class="series" data-name="{s.name.translate(ESCAPE_ATTR)}" '
                f'points="{" ".join(seg)}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        if len(segments) == 0:  # single points still get a marker
            for year, value in zip(s.years, s.values):
                if value is not None:
                    parts.append(
                        f'<circle class="series" data-name="{s.name.translate(ESCAPE_ATTR)}" '
                        f'cx="{_fmt(sx(year))}" cy="{_fmt(sy(value))}" r="2.5" fill="{color}"/>'
                    )
        legend_items.append((s.name, color))

    legend_x = MARGIN_L + plot_w + 14
    legend_parts = ['<g class="legend">']
    for i, (name, color) in enumerate(legend_items):
        y = MARGIN_T + 14 + i * 18
        legend_parts.append(f'<rect x="{legend_x}" y="{y - 9}" width="12" height="12" fill="{color}"/>')
        legend_parts.append(f'<text x="{legend_x + 17}" y="{y + 1}">{name.translate(ESCAPE_TEXT)}</text>')
    legend_parts.append("</g>")
    parts.extend(legend_parts)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(
    series_list: list[MetricSeries],
    path: str | Path,
    title: str = "",
    band: dict | None = None,
    config_hash: str = "",
) -> None:
    svg, path = emit_chart(series_list, title, band, config_hash), Path(path)  # a refused chart leaves no directory
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg, encoding="utf-8")
