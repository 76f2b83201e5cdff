"""Measurement harness: budgets, delay recording, table formatting.

The paper's evaluation semantics that this module reproduces:

* INF — a run is censored at a wall-clock budget (paper: 24 h; here a
  per-cell budget in seconds). One clock rule decides it: a run is INF
  when it ends after the ``time.monotonic()`` deadline its caller set.
  The deadline is cooperative: `consume` hands it to the generator
  factory, whose enumerator checks it in its own loops and stops. No
  signal interrupts a run, so this works on any thread and beside
  py4j. `consume` itself stops once the clock passes the deadline, so
  a factory that ignores it gets the same label as soon as it yields
  again or ends.
* OUT — a run exceeds the memory budget (paper: 32 GB); reproduced by
  `InflationBudgetExceeded` guards inside the algorithms.
* delay — the maximum of (start → first output), (gaps between
  consecutive outputs), (last output → termination), per §3.5.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from ..baselines.inflation import InflationBudgetExceeded

INF = "INF"
OUT = "OUT"

# A generator factory: called with the run's deadline, a
# ``time.monotonic()`` timestamp, and returns the enumeration to consume.
Factory = Callable[[float], Iterator]


@dataclass
class Run:
    """One budgeted consumption of a generator."""

    status: str             # "ok" | INF | OUT
    count: int              # outputs consumed before the deadline
    seconds: float | None   # start → end of the run; None unless "ok"
    max_gap: float          # longest of start → first output, between
                            # outputs, last output → end


def consume(make_gen: Factory, budget_s: float, n: int | None = None) -> Run:
    """Consume up to ``n`` outputs (all when None) of
    ``make_gen(deadline)`` with ``deadline = start + budget_s``.

    Outputs that arrive after the deadline are not counted; the run ends
    at the first of them, and is INF if it ends after the deadline.
    """
    t0 = last = time.monotonic()
    deadline = t0 + budget_s
    count, max_gap, status = 0, 0.0, "ok"
    try:
        for _ in islice(make_gen(deadline), n):
            now = time.monotonic()
            if now > deadline:
                break
            count, max_gap, last = count + 1, max(max_gap, now - last), now
    except InflationBudgetExceeded:
        status = OUT
    t_end = time.monotonic()
    if status == "ok" and t_end > deadline:
        status = INF
    seconds = t_end - t0 if status == "ok" else None
    return Run(status, count, seconds, max(max_gap, t_end - last))


def fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 1e5:
            return f"{value:.2e}"
        return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def format_table(rows: Iterable[dict], title: str = "") -> str:
    """Render rows as an aligned text table (same rows go in
    EXPERIMENTS.md)."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0].keys())
    cells = [[fmt_cell(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out)
