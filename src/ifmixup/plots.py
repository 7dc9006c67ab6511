"""CSV and SVG emission for the three standard figures.

* beta_density - the probability density of each configured Beta(alpha,
  beta) over 1001 evenly spaced points of [0, 1] (mixing-ratio figures).
* loss_curve  - per-epoch train loss and validation accuracy, one column
  pair per method (regularization-effect figures).
* sweep_bars  - mean +- std accuracy per (dataset, method, setting) cell
  (Beta/depth sweep figures).

Each kind builds one table - a CSV header, its rows and the chart that draws
them - and one writer saves both files. The SVG is a plain line or bar chart
with no external dependencies, one path (or one bar group) per series. A line
chart skips the points that are not finite (a U-shaped Beta's density at 0
and 1) and spans its axes on the rest; the CSV keeps every value.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from xml.sax.saxutils import escape

import numpy as np

from .mixing import beta_pdf
from .training import MetricsLog

PLOT_KINDS = ("beta_density", "loss_curve", "sweep_bars")
BETA_DENSITY_POINTS = 1001

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 400
# The plot box inside the margins (left 60, right 20, top 30, bottom 45).
_LEFT, _RIGHT, _TOP, _BOTTOM = 60, _WIDTH - 20, 30, _HEIGHT - 45


@dataclass(frozen=True)
class SweepBarRow:
    """One cell of a sweep comparison."""

    dataset: str
    method: str
    setting: str
    mean: float
    std: float


def emit_plot_data(kind: str, inputs, out_base: str) -> tuple[str, str]:
    """Write <out_base>.csv and <out_base>.svg; returns both paths.

    inputs by kind: beta_density - a sequence of BetaParams; loss_curve - a
    MetricsLog or a {method: MetricsLog} mapping; sweep_bars - a sequence of SweepBarRow.
    """
    tables = {"beta_density": _beta_density, "loss_curve": _loss_curve, "sweep_bars": _sweep_bars}
    if kind not in tables:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    header, rows, svg = tables[kind](inputs)
    csv_path, svg_path = f"{out_base}.csv", f"{out_base}.svg"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # repr keeps every float bit for bit; other cells are written as given
        writer.writerows(
            [repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row]
            for row in rows
        )
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(svg) + "\n</svg>\n")
    return csv_path, svg_path


def _beta_density(params):
    params = list(params)
    if not params:
        raise ValueError("need at least one Beta configuration")
    xs = np.linspace(0.0, 1.0, BETA_DENSITY_POINTS)
    names = [f"beta({p.alpha:g},{p.beta:g})" for p in params]
    cols = [np.array([beta_pdf(p, float(x)) for x in xs]) for p in params]
    rows = [[x, *(c[i] for c in cols)] for i, x in enumerate(xs)]
    return ["x", *names], rows, _line_chart(names, xs, cols, "lambda", "density")


def _loss_curve(inputs):
    logs = {"train": inputs} if isinstance(inputs, MetricsLog) else dict(inputs)
    lengths = {len(col) for lg in logs.values() for col in (lg.train_loss, lg.val_acc)}
    if not any(lengths):
        raise ValueError("need at least one nonempty metrics log")
    if len(lengths) != 1:
        raise ValueError(f"metric logs have differing epoch counts: {sorted(lengths)}")
    n_epochs = lengths.pop()
    single = len(logs) == 1
    header, names, cols = ["epoch"], [], []
    for name, lg in logs.items():
        column, label = ("", "") if single else (f"{name}_", f"{name} ")
        header += [f"{column}train_loss", f"{column}val_acc"]
        names += [f"{label}train loss", f"{label}val acc"]
        cols += [lg.train_loss, lg.val_acc]
    rows = [[epoch, *(c[epoch] for c in cols)] for epoch in range(n_epochs)]
    xs = np.arange(n_epochs, dtype=np.float64)
    return header, rows, _line_chart(names, xs, cols, "epoch", "value")


def _sweep_bars(rows):
    """The sweep table, drawn as grouped bars: a <g> per (dataset, method), a bar per setting."""
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one sweep row")
    settings = list(dict.fromkeys(r.setting for r in rows))
    series_names = list(dict.fromkeys(f"{r.dataset}/{r.method}" for r in rows))
    y_hi = max(r.mean + r.std for r in rows)
    y_hi = y_hi if y_hi > 0 else 1.0
    group_w = (_RIGHT - _LEFT) / len(settings)
    bar_w = 0.8 * group_w / len(series_names)

    parts = _frame("setting", "accuracy", (0.0, y_hi))
    for si, sname in enumerate(series_names):
        color = _PALETTE[si % len(_PALETTE)]
        bars = []
        for r in (r for r in rows if f"{r.dataset}/{r.method}" == sname):
            gi = settings.index(r.setting)
            x = _LEFT + gi * group_w + 0.1 * group_w + si * bar_w
            y = _scale(r.mean, 0.0, y_hi, _BOTTOM, _TOP)
            bars.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{_BOTTOM - y:.1f}" fill="{color}"/>'
            )
            if r.std > 0:
                y1, y2 = (_scale(r.mean + s, 0.0, y_hi, _BOTTOM, _TOP) for s in (-r.std, r.std))
                cx = x + bar_w / 2
                bars.append(
                    f'<line x1="{cx:.1f}" y1="{y1:.1f}" x2="{cx:.1f}" y2="{y2:.1f}" '
                    f'stroke="black" stroke-width="1"/>'
                )
        parts.append(f'<g id="{escape(sname, {chr(34): "&quot;"})}">' + "".join(bars) + "</g>")
        parts += _legend_entry(si, sname, color, bar=True)
    for gi, setting in enumerate(settings):
        parts.append(_x_text(_LEFT + (gi + 0.5) * group_w, str(setting)))
    return [f.name for f in fields(SweepBarRow)], [astuple(r) for r in rows], parts


# -- SVG rendering ------------------------------------------------------------------


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _x_text(px: float, text: str) -> str:
    """A label under the x axis, centred at ``px``."""
    return (
        f'<text x="{px:.1f}" y="{_BOTTOM + 17}" text-anchor="middle" font-size="11">'
        f"{escape(text)}</text>"
    )


def _frame(x_label: str, y_label: str, y_span, x_span=None) -> list[str]:
    """An open SVG document: background, axes, axis labels, ticks on y and on x if spanned."""
    mid_x, mid_y = (_LEFT + _RIGHT) / 2, (_TOP + _BOTTOM) / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" stroke="black"/>',
        f'<text x="{mid_x:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="13">{escape(x_label)}</text>',
        f'<text x="14" y="{mid_y:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {mid_y:.1f})">{escape(y_label)}</text>',
    ]
    for t in _ticks(*x_span) if x_span else []:
        px = _scale(t, *x_span, _LEFT, _RIGHT)
        parts += [
            f'<line x1="{px:.1f}" y1="{_BOTTOM}" x2="{px:.1f}" y2="{_BOTTOM + 4}" stroke="black"/>',
            _x_text(px, f"{t:g}"),
        ]
    for t in _ticks(*y_span):
        py = _scale(t, *y_span, _BOTTOM, _TOP)
        parts += [
            f'<line x1="{_LEFT - 4}" y1="{py:.1f}" x2="{_LEFT}" y2="{py:.1f}" stroke="black"/>',
            f'<text x="{_LEFT - 7}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{t:g}</text>',
        ]
    return parts


def _legend_entry(i: int, name: str, color: str, bar: bool) -> list[str]:
    """Row ``i`` of the legend: a swatch (a bar's square or a line's stroke) and the name."""
    ly = _TOP + 14 + 14 * i
    marker = (
        f'<rect x="{_RIGHT - 150}" y="{ly - 9}" width="12" height="9" fill="{color}"/>'
        if bar
        else f'<line x1="{_RIGHT - 150}" y1="{ly - 4}" x2="{_RIGHT - 130}" y2="{ly - 4}" '
        f'stroke="{color}" stroke-width="2"/>'
    )
    text_x = _RIGHT - (133 if bar else 125)
    return [marker, f'<text x="{text_x}" y="{ly}" font-size="11">{escape(name)}</text>']


def _line_chart(names, xs, cols, x_label: str, y_label: str) -> list[str]:
    """One <path> per column of ``cols`` over the shared ``xs``, through its finite points."""
    ys = [np.asarray(c, dtype=np.float64) for c in cols]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys])
    if finite.size == 0:
        raise ValueError("no finite point to draw")
    x_span = (float(xs.min()), float(xs.max()))
    y_lo, y_hi = min(0.0, float(finite.min())), float(finite.max())
    y_span = (y_lo, y_hi if y_hi != y_lo else y_lo + 1.0)
    parts = _frame(x_label, y_label, y_span, x_span)
    for i, (name, y) in enumerate(zip(names, ys)):
        color = _PALETTE[i % len(_PALETTE)]
        keep = np.isfinite(y)
        pts = [
            f"{_scale(px, *x_span, _LEFT, _RIGHT):.2f},{_scale(py, *y_span, _BOTTOM, _TOP):.2f}"
            for px, py in zip(xs[keep].tolist(), y[keep].tolist())
        ]
        d = "M " + " L ".join(pts)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts += _legend_entry(i, name, color, bar=False)
    return parts
