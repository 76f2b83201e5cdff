"""Tests for the experiment layer: datasets, harness, and each table
function at miniature scale (the jobs run the same code at full scale)."""
import time

from repro.experiments import datasets, tables
from repro.experiments.harness import INF, consume, format_table


# ------------------------------------------------------------- datasets
def test_all_specs_load_small_ones():
    for name in datasets.SMALL_DATASETS:
        g = datasets.load(name)
        spec = datasets.SPECS[name]
        assert g.n_left == spec.n_left
        assert g.n_right == spec.n_right
        assert 0.7 * spec.n_edges <= g.n_edges <= spec.n_edges


def test_scaled_specs_ratios():
    spec = datasets.SPECS["DBLP"]
    assert spec.n_left == spec.paper_n_left // 200
    assert spec.n_right == spec.paper_n_right // 200


def test_load_is_cached():
    a = datasets.load("Divorce")
    b = datasets.load("Divorce")
    assert a is b


def test_specs_cover_paper_table1():
    assert len(datasets.SPECS) == 10
    assert datasets.SPECS["Google"].paper_n_edges == 14693125


# -------------------------------------------------------------- harness
def test_consume_first_n_ok():
    run = consume(lambda d: iter(range(100)), 5, 10)
    assert run.status == "ok"
    assert run.count == 10


def test_consume_first_n_inf():
    def gen():
        yield 1
        time.sleep(5)
        yield 2

    run = consume(lambda d: gen(), 0.3, 2)
    assert run.status == INF
    assert run.count == 1


def test_consume_max_gap():
    def gen():
        yield 1
        time.sleep(0.2)
        yield 2

    run = consume(lambda d: gen(), 5)
    assert run.status == "ok"
    assert run.count == 2
    assert run.max_gap >= 0.15


def test_consume_empty_enumeration():
    run = consume(lambda d: iter(()), 5)
    assert run.status == "ok"
    assert run.count == 0


def test_format_table_alignment():
    s = format_table([{"a": 1, "bb": None}, {"a": 22.5, "bb": "x"}], "T")
    lines = s.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "-" in lines[3]  # None rendered as '-'


# ------------------------------------------------------ table functions
def test_table1_rows():
    rows = tables.table1_datasets()
    assert len(rows) == 10
    assert {r["name"] for r in rows} == set(datasets.SPECS)


def test_table2_miniature():
    rows = tables.table2_runtime_real(
        ("Divorce",), ks=(1,), n_solutions=20, budget_s=10,
        algos=("iTraversal", "iMB"),
    )
    assert len(rows) == 2
    it = next(r for r in rows if r["algorithm"] == "iTraversal")
    assert it["status"] == "ok"
    assert it["mbps_returned"] == 20


def test_table3_miniature():
    rows = tables.table3_delay(("Divorce",), ks=(1,), budget_s=20,
                               algos=("iTraversal",))
    assert rows[0]["status"] == "ok"
    assert rows[0]["max_delay_s"] is not None
    assert rows[0]["mbps"] > 0


def test_table4_miniature():
    rows = tables.table4_scalability(
        n_vertices=(200,), densities=(2,), default_n=200, default_density=2,
        n_solutions=30, budget_s=15,
    )
    assert {r["sweep"] for r in rows} == {"vary_n", "vary_density"}
    it = [r for r in rows if r["algorithm"] == "iTraversal"]
    assert all(r["status"] == "ok" for r in it)


def test_table5_miniature():
    rows = tables.table5_large_mbps(("Divorce",), thetas=(3,), budget_s=20)
    by_algo = {r["algorithm"]: r for r in rows}
    assert by_algo["iTraversal-theta"]["status"] == "ok"
    # Both enumerate exactly the same large MBPs when both finish.
    if by_algo["iMB-theta"]["status"] == "ok":
        assert (
            by_algo["iMB-theta"]["large_mbps"]
            == by_algo["iTraversal-theta"]["large_mbps"]
        )


def test_table6_miniature():
    rows = tables.table6_solution_graph(("Divorce",), ks=(1,), budget_s=30)
    by = {r["variant"]: r for r in rows}
    assert set(by) == {"bTraversal", "iTraversal-ES-RS", "iTraversal-ES", "iTraversal"}
    if all(r["status"] == "ok" for r in rows):
        assert (
            by["bTraversal"]["links"]
            >= by["iTraversal-ES-RS"]["links"]
            >= by["iTraversal-ES"]["links"]
            >= by["iTraversal"]["links"]
        )
        assert len({r["solutions"] for r in rows}) == 1  # same MBP count


def test_table7_miniature():
    rows = tables.table7_enum_almost_sat(
        "Crime", ks=(1,), n_instances=8, n_seed_mbps=8, budget_s=15
    )
    variants = {r["variant"] for r in rows}
    assert variants == {"L1.0+R1.0", "L1.0+R2.0", "L2.0+R1.0", "L2.0+R2.0",
                        "Inflation"}
    # All variants that finished enumerate the same local solutions.
    done = {r["local_solutions"] for r in rows if r["status"] == "ok"}
    assert len(done) == 1


def test_table8_miniature():
    from repro.casestudy.attack import camouflage_attack

    sc = camouflage_attack(
        n_real_users=200, n_real_products=150, n_real_reviews=300,
        n_fake_users=10, n_fake_products=10, n_fake_comments=50,
        n_camouflage=50, n_heavy_users=10, n_popular_products=15,
        n_heavy_reviews=60, seed=2,
    )
    rows = tables.table8_fraud(
        scenario=sc, theta_r_values=(3,), ks=(1,), deltas=(0.2,), budget_s=10
    )
    assert {r["method"] for r in rows} == {"biclique", "1-biplex",
                                           "(a,b)-core", "0.2-QB"}
    core = next(r for r in rows if r["method"] == "(a,b)-core")
    # nearly the whole block survives coring (a thin fake product can peel)
    assert core["recall"] >= 0.9
