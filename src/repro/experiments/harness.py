"""Measurement harness: budgets, delay recording, table formatting.

The paper's evaluation semantics that this module reproduces:

* INF — a run is censored at a wall-clock budget (paper: 24 h; here a
  per-cell budget in seconds). `run_with_timeout` enforces it with
  SIGALRM so even an enumerator stuck *between* outputs is interrupted.
* OUT — a run exceeds the memory budget (paper: 32 GB); reproduced by
  `InflationBudgetExceeded` guards inside the algorithms.
* delay — the maximum of (start → first output), (gaps between
  consecutive outputs), (last output → termination), per §3.5.
"""
from __future__ import annotations

import signal
import time
from itertools import islice
from typing import Callable, Iterable, Iterator

INF = "INF"
OUT = "OUT"


class Timeout(Exception):
    pass


def run_with_timeout(fn: Callable[[], object], seconds: float):
    """Run ``fn`` under a SIGALRM deadline; (result, elapsed) or raises
    Timeout. Main-thread only (fine: jobs, tests and benches are)."""

    def _handler(signum, frame):
        raise Timeout()

    old = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    t0 = time.monotonic()
    try:
        result = fn()
        return result, time.monotonic() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def time_first_n(
    make_gen: Callable[[], Iterator], n: int, budget_s: float
) -> dict:
    """Time producing the first ``n`` solutions (the paper's standard
    runtime measurement, after [4]).

    Returns {'status': 'ok'|'INF'|'OUT', 'seconds': float|None, 'count'}.
    """
    count = 0

    def consume():
        nonlocal count
        for _ in islice(make_gen(), n):
            count += 1

    from ..baselines.inflation import InflationBudgetExceeded

    try:
        _, elapsed = run_with_timeout(consume, budget_s)
        return {"status": "ok", "seconds": elapsed, "count": count}
    except Timeout:
        return {"status": INF, "seconds": None, "count": count}
    except InflationBudgetExceeded:
        return {"status": OUT, "seconds": None, "count": count}


def measure_delay(make_gen: Callable[[], Iterator], budget_s: float) -> dict:
    """Max delay over a full enumeration (§3.5 definition).

    Returns {'status', 'max_delay', 'mean_delay', 'count'}; INF when the
    enumeration does not finish within the budget.
    """
    stamps: list[float] = []
    t0 = time.monotonic()

    def consume():
        for _ in make_gen():
            stamps.append(time.monotonic())

    from ..baselines.inflation import InflationBudgetExceeded

    try:
        run_with_timeout(consume, budget_s)
    except Timeout:
        # Censored — but the max gap observed *so far* is still a valid
        # lower bound on the delay (including the unfinished stall from
        # the last output to the budget cutoff), and the count gives the
        # rate.
        bounds = [t0, *stamps, time.monotonic()]
        observed = max(b - a for a, b in zip(bounds, bounds[1:]))
        return {"status": INF, "max_delay": None, "mean_delay": None,
                "observed_max_gap": observed, "count": len(stamps)}
    except InflationBudgetExceeded:
        return {"status": OUT, "max_delay": None, "mean_delay": None,
                "observed_max_gap": None, "count": len(stamps)}
    t_end = time.monotonic()
    if not stamps:
        return {"status": "ok", "max_delay": t_end - t0, "mean_delay": t_end - t0,
                "observed_max_gap": t_end - t0, "count": 0}
    bounds = [t0, *stamps, t_end]
    gaps = [b - a for a, b in zip(bounds, bounds[1:])]
    return {
        "status": "ok",
        "max_delay": max(gaps),
        "mean_delay": sum(gaps) / len(gaps),
        "observed_max_gap": max(gaps),
        "count": len(stamps),
    }


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
