"""Smoke tests: every job entrypoint runs end-to-end at miniature scale
and writes its results artifact; run without flags, it passes the table
function that function's own defaults."""
import importlib
import inspect
import os
import sys

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "jobs")
sys.path.insert(0, os.path.abspath(JOBS_DIR))


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # Jobs write results/<table>.txt into the CWD.
    monkeypatch.chdir(tmp_path)


def _artifact(table_id):
    path = os.path.join("results", f"{table_id}.txt")
    assert os.path.exists(path)
    return open(path).read()


def test_job_table1():
    import table1_datasets

    rows = table1_datasets.main([])
    assert len(rows) == 10
    assert "Divorce" in _artifact("table1")


def test_job_table2():
    import table2_runtime_real

    rows = table2_runtime_real.main(
        ["--datasets", "Divorce", "--n", "10", "--budget", "10"]
    )
    assert {r["algorithm"] for r in rows} == {
        "iTraversal", "bTraversal", "iMB", "FaPlexen"
    }
    assert "Fig 7" in _artifact("table2")


def test_job_table3():
    import table3_delay

    rows = table3_delay.main(
        ["--datasets", "Divorce", "--k", "1", "--budget", "30"]
    )
    it = next(r for r in rows if r["algorithm"] == "iTraversal")
    assert it["status"] == "ok"
    _artifact("table3")


def test_job_table4():
    import table4_scalability

    rows = table4_scalability.main(
        ["--n-vertices", "200", "--densities", "2", "--budget", "15"]
    )
    assert any(r["status"] == "ok" for r in rows)
    _artifact("table4")


def test_job_table5_no_spark():
    import table5_large_mbps

    rows = table5_large_mbps.main(
        ["--datasets", "Divorce", "--thetas", "3", "--budget", "20",
         "--no-spark"]
    )
    assert {r["algorithm"] for r in rows} == {"iTraversal-theta", "iMB-theta"}
    _artifact("table5")


def test_job_table6():
    import table6_solution_graph

    rows = table6_solution_graph.main(
        ["--datasets", "Divorce", "--k", "1", "--budget", "45"]
    )
    assert len(rows) == 4
    _artifact("table6")


def test_job_table7():
    import table7_enum_almost_sat

    rows = table7_enum_almost_sat.main(
        ["--dataset", "Crime", "--k", "1", "--instances", "5",
         "--budget", "20"]
    )
    assert len(rows) == 5
    _artifact("table7")


def test_job_table8(monkeypatch):
    import table8_fraud
    from repro.casestudy import attack

    # Shrink the default scenario so the job completes in seconds.
    small = dict(
        n_real_users=200, n_real_products=150, n_real_reviews=300,
        n_fake_users=10, n_fake_products=10, n_fake_comments=50,
        n_camouflage=50, n_heavy_users=10, n_popular_products=15,
        n_heavy_reviews=60,
    )
    orig = attack.camouflage_attack
    monkeypatch.setattr(
        "repro.casestudy.attack.camouflage_attack",
        lambda **kw: orig(**{**small, "seed": kw.get("seed", 0)}),
    )
    rows = table8_fraud.main(["--budget", "5"])
    assert {"1-biplex", "biclique"} <= {r["method"] for r in rows}
    _artifact("table8")

# Each job module imports its table function under the module's own name.
JOBS = [
    "table1_datasets", "table2_runtime_real", "table3_delay",
    "table4_scalability", "table5_large_mbps", "table6_solution_graph",
    "table7_enum_almost_sat", "table8_fraud",
]


def _as_tuple(value):
    return tuple(value) if isinstance(value, list) else value


@pytest.mark.parametrize("job", JOBS)
def test_job_defaults_match_table_function(job, monkeypatch):
    module = importlib.import_module(job)
    sig = inspect.signature(getattr(module, job))
    calls = []
    monkeypatch.setattr(module, job, lambda *a, **kw: calls.append((a, kw)) or [])
    module.main(["--no-spark"] if job == "table5_large_mbps" else [])
    [(args, kwargs)] = calls
    for name, value in sig.bind(*args, **kwargs).arguments.items():
        assert _as_tuple(value) == _as_tuple(sig.parameters[name].default), name
