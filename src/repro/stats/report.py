"""Reporting helpers: geometric means, speedups, ASCII tables.

The paper reports geometric-mean IPC speedups over the baseline, per
workload category and overall; :func:`repro.sim.experiments.suite_speedup`
folds results with these helpers, which also render the rows the
benchmark harness prints.
"""

import math


def geomean(values):
    """Geometric mean of positive values; returns 0.0 for empty input."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup(new_ipc, base_ipc):
    """Relative speedup of ``new_ipc`` over ``base_ipc`` (1.0 = parity)."""
    if base_ipc <= 0:
        raise ValueError("baseline IPC must be positive")
    return new_ipc / base_ipc


def format_ipc_ci(data, digits=3):
    """Render a result's IPC, with its confidence interval when sampled.

    ``data`` is a result dict; sampled runs carry an ``ipc_ci`` block and
    print as ``1.234 ± 0.012 (95% CI, n=8)``, full-detail runs (and
    single-interval samples, which have no variance estimate) print the
    bare IPC.
    """
    ipc = data["ipc"]
    ci = data.get("ipc_ci")
    if not ci or ci.get("half_width") is None:
        return "%.*f" % (digits, ipc)
    return "%.*f ± %.*f (%g%% CI, n=%d)" % (
        digits, ci["mean"], digits, ci["half_width"],
        100 * ci["confidence"], ci["intervals_used"],
    )


def format_table(headers, rows, title=None):
    """Render an ASCII table; every benchmark prints through this."""
    columns = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells):
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(columns))
    lines.append("-+-".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(render_row(row))
    return "\n".join(lines)
