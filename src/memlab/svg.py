"""Static SVG learning-curve plots, byte-deterministic for identical logs.

One polyline per (round, split): train solid, val dashed, rounds laid out
left to right on a shared global epoch axis with a vertical marker at
every round boundary.  Legend text comes from the log's per-round
labeling provenance when present.
"""

from __future__ import annotations

from .errors import RangeError
from .protocol import MetricsLog

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 56, 200, 24, 48  # margins: left, right (legend), top, bottom

_PALETTE = ("#1f6fb2", "#c4493b", "#3a8f5d", "#8a5fa8", "#b07c2a", "#4f4f4f")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_svg(log: MetricsLog) -> bytes:
    """The plot as bytes; raises on an empty log."""
    if not log.records:
        raise RangeError("cannot plot an empty log")
    rounds = log.rounds()

    # global x position: rounds concatenated, each spanning its epoch count
    span = {r: max(rec.epoch for rec in log.rows(round=r)) for r in rounds}
    offset = {}
    total = 0
    for r in rounds:
        offset[r] = total
        total += span[r]

    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT  # y grows downward in SVG

    def x_of(r: int, epoch: float) -> float:
        g = offset[r] + epoch
        if total == 1:
            return (x0 + x1) / 2
        return x0 + (g - 1) * (x1 - x0) / (total - 1)

    def y_of(acc: float) -> float:
        return y0 + acc * (y1 - y0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]

    # axes and y gridlines
    axis = 'stroke="#222222" stroke-width="1"'
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis}/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis}/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _fmt(y_of(tick))
        out.append(f'<line x1="{x0 - 4}" y1="{y}" x2="{x0}" y2="{y}" {axis}/>')
        out.append(
            f'<text x="{x0 - 8}" y="{y}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" dominant-baseline="middle">'
            f'{tick:g}</text>'
        )
    out.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">epoch</text>'
    )
    out.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">accuracy</text>'
    )

    # round boundaries: a vertical marker between consecutive rounds
    for r in rounds[:-1]:
        x = _fmt(x_of(r, span[r] + 0.5))
        out.append(
            f'<line class="round-boundary" x1="{x}" y1="{y1}" x2="{x}" '
            f'y2="{y0}" stroke="#999999" stroke-width="1" '
            f'stroke-dasharray="2,3"/>'
        )

    # one polyline per (round, split)
    for r in rounds:
        color = _PALETTE[(r - 1) % len(_PALETTE)]
        for split in ("train", "val"):
            rows = log.rows(round=r, split=split)
            if not rows:
                continue
            points = " ".join(
                f"{_fmt(x_of(r, rec.epoch))},{_fmt(y_of(rec.accuracy))}"
                for rec in rows
            )
            dash = '' if split == "train" else ' stroke-dasharray="5,3"'
            out.append(
                f'<polyline class="{split} round-{r}" points="{points}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
            )

    # legend: (stroke attributes, label) per round, labeled by labeling
    # provenance, then the val key
    legend = []
    for r in rounds:
        label = log.round_labelings.get(r, f"round {r}")
        if len(rounds) > 1 and not label.startswith("round"):
            label = f"round {r}: {label}"
        color = _PALETTE[(r - 1) % len(_PALETTE)]
        legend.append((f'stroke="{color}" stroke-width="2"', label))
    if any(rec.split == "val" for rec in log.records):
        legend.append(('stroke="#222222" stroke-width="2" stroke-dasharray="5,3"',
                       "val (dashed)"))
    lx = x1 + 12
    for i, (stroke, label) in enumerate(legend):
        y = _MT + 10 + i * 18
        out.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 18}" y2="{y}" {stroke}/>')
        out.append(
            f'<text x="{lx + 24}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def emit_svg(log: MetricsLog, path) -> None:
    payload = render_svg(log)
    with open(path, "wb") as f:
        f.write(payload)
