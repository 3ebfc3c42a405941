"""Fixed-width table/series rendering for the experiment harness."""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    col_width: int = 12,
    first_width: int = 14,
) -> str:
    """Render a simple fixed-width table as a string.

    ``col_width`` and ``first_width`` are minimum widths: a column whose
    widest cell would touch its neighbour grows to keep one space of
    separation, so long design names never run together.
    """
    texts = [[str(c) for c in columns]] + [
        [str(row[0])] + [
            f"{c:.2f}" if isinstance(c, float) else str(c) for c in row[1:]
        ]
        for row in rows
    ]
    widths = [first_width] + [col_width] * (max(map(len, texts)) - 1)
    for r in texts:
        for i, text in enumerate(r):
            widths[i] = max(widths[i], len(text) + 1)
    out = [title, "=" * len(title)]
    lines = [
        f"{r[0]:<{widths[0]}}" + "".join(
            f"{c:>{w}}" for c, w in zip(r[1:], widths[1:])
        )
        for r in texts
    ]
    out.append(lines[0])
    out.append("-" * len(lines[0]))
    out.extend(lines[1:])
    return "\n".join(out)


def render_series(title: str, series: Dict[str, List[float]], x_labels: Sequence[str]) -> str:
    """Render one line per series over labelled x points (figure data)."""
    rows = [[name] + values for name, values in series.items()]
    return render_table(title, ["series"] + list(x_labels), rows)
