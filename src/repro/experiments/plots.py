"""Plain-text charts for experiment output.

The examples run in terminals; :func:`line_chart` renders a series such
as the candidate-set trace of Figure 14 as an ASCII chart.  No plotting
dependency required.
"""

from __future__ import annotations

from typing import Sequence


def line_chart(
    values: Sequence[float],
    width: int = 72,
    height: int = 12,
    label: str = "",
) -> str:
    """Render a numeric series as an ASCII line chart.

    The series is down-sampled to ``width`` columns (taking the maximum per
    bucket, so spikes stay visible) and scaled to ``height`` rows.
    """
    if width < 2 or height < 2:
        raise ValueError("chart needs width and height of at least 2")
    if not values:
        return "(no data)"
    step = max(1, (len(values) + width - 1) // width)
    sampled = [
        max(values[i : i + step]) for i in range(0, len(values), step)
    ][:width]
    top = max(sampled)
    bottom = min(sampled)
    span = (top - bottom) or 1.0
    rows = []
    for row in range(height, 0, -1):
        threshold = bottom + span * (row - 0.5) / height
        # The bottom row always shows the line, so a constant series still
        # renders something.
        line = "".join(
            "#" if value >= threshold or row == 1 else " " for value in sampled
        )
        axis_value = bottom + span * row / height
        rows.append(f"{axis_value:8.1f} |{line}")
    rows.append(" " * 9 + "+" + "-" * len(sampled))
    if label:
        rows.append(" " * 10 + label)
    return "\n".join(rows)

