"""One budget mechanism: the cooperative ``time.monotonic()`` deadline.

Every enumerator takes the deadline and checks it in its own loops; the
harness labels a run INF when it ends after the deadline, also for a
factory that ignores it. No module may bring back a signal-based timer.
"""
import ast
import pathlib
import time

import pytest

from repro.baselines.biclique import maximal_bicliques
from repro.baselines.imb import imb
from repro.baselines.inflation import faplexen
from repro.bipartite.generators import random_bipartite_gnp
from repro.core.itraversal import btraversal, itraversal
from repro.experiments import datasets, tables
from repro.experiments.harness import INF, OUT, consume

BUDGET_S = 2.0
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize(
    "name,algo",
    [("Writer", a) for a in ("iTraversal", "bTraversal", "iMB", "FaPlexen")]
    + [("Google", "bTraversal")],
)
def test_cell_ends_within_budget(name, algo):
    factory = tables.algorithms(datasets.load(name), 1)[algo]
    t0 = time.monotonic()
    run = consume(factory, BUDGET_S)
    wall = time.monotonic() - t0
    assert run.status in (INF, OUT)
    assert run.seconds is None
    assert wall <= BUDGET_S + 1.0


ENUMERATORS = {
    "itraversal": lambda g, d: itraversal(g, 1, deadline=d),
    "btraversal": lambda g, d: btraversal(g, 1, deadline=d),
    "imb": lambda g, d: imb(g, 1, deadline=d),
    "faplexen": lambda g, d: faplexen(g, 1, deadline=d),
    "maximal_bicliques": lambda g, d: maximal_bicliques(g, deadline=d),
}


@pytest.mark.parametrize("name", list(ENUMERATORS))
def test_expired_deadline_stops_enumerator(name):
    g = random_bipartite_gnp(n_left=8, n_right=8, p=0.5, seed=4)
    enum = ENUMERATORS[name]
    assert sum(1 for _ in enum(g, None)) > 1
    assert sum(1 for _ in enum(g, time.monotonic() - 1)) <= 1


def test_partitioned_expired_deadline_stops(spark):
    from repro.distributed.partition import enumerate_large_mbps_partitioned

    # Dense enough that the (2, 2)-core is one component.
    g = random_bipartite_gnp(n_left=8, n_right=8, p=0.7, seed=1)
    full = enumerate_large_mbps_partitioned(spark, g, 1, 3).count()
    cut = enumerate_large_mbps_partitioned(
        spark, g, 1, 3, deadline=time.monotonic() - 1
    ).count()
    assert full > 1
    assert cut <= 1


def test_spark_style_factory_ignoring_deadline_is_inf(monkeypatch):
    """A factory that ignores its deadline, such as a distributed run
    that does not stop, is INF by the harness's clock rule alone."""
    import repro.distributed.partition as partition

    budget_s = 1.0

    class SlowFrame:
        def collect(self):
            time.sleep(budget_s + 0.5)
            return [object()] * 3

    monkeypatch.setattr(
        partition, "enumerate_large_mbps_partitioned", lambda *a, **kw: SlowFrame()
    )
    rows = tables.table5_large_mbps(
        ("Divorce",), thetas=(3,), budget_s=budget_s, spark=object()
    )
    row = next(r for r in rows if r["algorithm"] == "iTraversal-theta-spark")
    assert row["status"] == INF
    assert row["seconds"] is None
    assert row["large_mbps"] == 0


def test_no_signal_based_timer_in_src():
    """The deadline is the only budget mechanism: no module imports
    ``signal`` or calls ``setitimer``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if {"signal", "setitimer"} & set(names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
