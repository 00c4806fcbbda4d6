"""Result serialization: the results CSV, the reproducibility metadata
document, the bound-report CSV, and a dependency-free SVG line chart.

Numeric CSV fields are written with 17 significant digits so reparsing is
lossless; a rerun with the same config and seed therefore produces a
byte-identical file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

if TYPE_CHECKING:
    from .bounds import BoundReport
    from .simulator import RegretTrace

__all__ = [
    "fmt",
    "write_results_csv",
    "write_bounds_csv",
    "write_metadata",
    "write_regret_svg",
    "read_results_csv",
    "read_bounds_csv",
    "sha256_file",
]


def fmt(x) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_results_csv(path, results: dict[str, RegretTrace], n_arms: int) -> None:
    """One row per (policy, checkpoint): mean/std regret and mean pulls."""
    header = ["policy", "t", "mean_regret", "std_regret"]
    header += [f"mean_pulls_arm_{k + 1}" for k in range(n_arms)]
    lines = [",".join(header)]
    for label, trace in results.items():
        mean_r = trace.mean_regret
        std_r = trace.std_regret
        mean_p = trace.mean_pulls
        for i, t in enumerate(trace.checkpoints):
            row = [label, str(int(t)), fmt(mean_r[i]), fmt(std_r[i])]
            row += [fmt(mean_p[i, k]) for k in range(n_arms)]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_results_csv(path) -> dict[str, dict[str, np.ndarray]]:
    """Inverse of :func:`write_results_csv`, keyed by policy label."""
    header, rows = _read_table(path, "results", label="policy")
    out: dict[str, dict[str, list]] = {}
    for policy, *values in rows:
        rec = out.setdefault(policy, {c: [] for c in header[1:]})
        for c, v in zip(header[1:], values):
            rec[c].append(v)
    return {
        policy: {c: np.asarray(v) for c, v in rec.items()} for policy, rec in out.items()
    }


def write_bounds_csv(path, report: BoundReport) -> None:
    cols = sorted(report.columns)
    lines = [",".join(["t"] + cols)]
    for i, t in enumerate(report.checkpoints):
        row = [str(int(t))] + [fmt(report.columns[c][i]) for c in cols]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_bounds_csv(path) -> dict[str, np.ndarray]:
    header, rows = _read_table(path, "bounds")
    return {c: np.asarray([row[j] for row in rows]) for j, c in enumerate(header)}


def _read_table(path, what: str, label: str | None = None) -> tuple[list[str], list[list]]:
    """Header and rows of a CSV written here: float cells, but for the first
    column when ``label`` names it (kept as text)."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if len(text) < 2:  # not even a row under the header
        raise ValueError(f"{path}: empty {what} file")
    header = text[0].split(",")
    if label is not None and header[0] != label:
        raise ValueError(f"{path}: no {label} column (the first column is {header[0]!r})")
    skip = int(label is not None)
    rows = []
    for line in text[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(cells[:skip] + [_number(path, c, v) for c, v in zip(header[skip:], cells[skip:])])
    return header, rows


def _number(path, column: str, cell: str) -> float:
    """``float(cell)``; a cell that is no number is an error that names the
    file and the column."""
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path}: {column} cell {cell!r} is not a number") from None


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_metadata(path, config_dict: dict, resolved: dict, extras: dict | None = None) -> None:
    """Everything needed to reproduce the results file bit-for-bit."""
    import scipy

    doc = {
        "tool": {"name": "opbandit", "version": __version__},
        "environment": {"numpy": np.__version__, "scipy": scipy.__version__},
        "rng": "Philox4x64-10 keyed by (base_seed, blake2b(policy/replication/role))",
        "config": config_dict,
        "resolved": resolved,
    }
    if extras:
        doc.update(extras)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")


def load_metadata(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# SVG line chart (no plotting dependency)
# ---------------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = np.ceil(lo / step) * step
    return [float(v) for v in np.arange(start, hi + step / 2, step)]


def write_regret_svg(path, results: dict[str, RegretTrace], title: str = "") -> None:
    """Mean regret vs log t, one polyline per policy, as a standalone SVG."""
    from html import escape  # here: html.entities adds 0.4 MiB to every run's RSS

    width, height = 720, 460
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = [trace.checkpoints.astype(float) for trace in results.values()]
    ys_all = [trace.mean_regret for trace in results.values()]
    x_min = min(x.min() for x in xs_all)
    x_max = max(x.max() for x in xs_all)
    y_min = 0.0
    y_max = max(1e-9, max(y.max() for y in ys_all) * 1.05)

    def x_pos(x):
        lo, hi = np.log10(max(x_min, 1.0)), np.log10(max(x_max, 2.0))
        if hi <= lo:
            hi = lo + 1.0
        return ml + (np.log10(np.maximum(x, 1.0)) - lo) / (hi - lo) * pw

    def y_pos(y):
        return mt + ph - (y - y_min) / (y_max - y_min) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="22" font-size="14">{escape(title)}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]

    d_lo = int(np.floor(np.log10(max(x_min, 1.0))))
    d_hi = int(np.ceil(np.log10(max(x_max, 2.0))))
    x_ticks = [10.0**d for d in range(d_lo, d_hi + 1) if x_min <= 10.0**d <= x_max]
    for xv in x_ticks or [x_min, x_max]:
        px = x_pos(np.asarray(xv))
        label = f"1e{int(np.log10(xv))}" if xv >= 10 else f"{xv:g}"
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle">{label}</text>')
    for yv in _ticks(y_min, y_max):
        py = y_pos(yv)
        parts.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end">{yv:g}</text>')
    parts.append(
        f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2})">mean regret</text>'
    )

    for i, (label, trace) in enumerate(results.items()):
        color = _PALETTE[i % len(_PALETTE)]
        px = x_pos(trace.checkpoints.astype(float))
        py = y_pos(trace.mean_regret)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 12}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}">{escape(label)}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
