"""perfbench's tracer wraps module globals of `repro.core.itraversal` by
name, so renaming one in the engine breaks only traced benchmark runs.
These tests load `perfbench/tracing.py` as it is and check that every
global it wraps exists and that a traced iTraversal, with and without θ,
still emits the untraced sequence, with each engine layer called; and
that its Spark wrappers still read the two Spark enumerators."""
import importlib.util
import pathlib

import pytest

import repro.core.itraversal as itr
from repro.bipartite.core_decomp import theta_k_core
from repro.bipartite.generators import random_bipartite_gnp
from repro.bipartite.graph import solution_key
from repro.experiments import datasets

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_globals_exist():
    tracing = load_tracing()
    for name in [*tracing.ITRAVERSAL_LAYERS.values(), "enum_almost_sat"]:
        assert callable(vars(itr).get(name)), name


def traced_matches_untraced(run, layers):
    """A traced ``run()`` emits the untraced sequence, calls each engine
    layer of ``layers`` and leaves every wrapped global restored."""
    tracing = load_tracing()
    want = [solution_key(s) for s in run()]
    originals = {name: vars(itr)[name] for name in
                 [*tracing.ITRAVERSAL_LAYERS.values(), "enum_almost_sat"]}
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        got = [solution_key(s) for s in run()]
    assert got == want
    for layer in layers:
        assert tracer.calls[layer] > 0, layer
    assert all(vars(itr)[name] is fn for name, fn in originals.items())


def test_traced_run_emits_untraced_sequence():
    g = random_bipartite_gnp(n_left=8, n_right=8, p=0.5, seed=3)
    traced_matches_untraced(lambda: itr.itraversal(g, 1),
                            ("almost_sat", "rs_check", "extend"))


def test_traced_theta_run_emits_untraced_sequence():
    """θ mode adds the θ-potential layer: Cfat, θ = 4, on its (θ−k)-core,
    as perfbench's ``cfat-theta`` workload runs it."""
    theta, k = 4, 1
    g = datasets.load("Cfat")
    sub, _, _ = g.induced(*theta_k_core(g, theta, k))
    traced_matches_untraced(lambda: itr.itraversal(sub, k, theta=theta),
                            ("almost_sat", "theta_potential", "rs_check", "extend"))


def test_spark_tracer_reads_both_enumerators(spark):
    """perfbench's Spark layers rest on how the two Spark enumerators run:
    the frontier BFS checkpoints its seed once and then twice per round,
    and the partition enumerator calls the `partition` module globals the
    tracer wraps. A traced θ = 3 run must read the BFS's own round count,
    no failed task and at least one core component, and leave every
    wrapped global restored."""
    import repro.distributed.partition as part
    from pyspark.sql.classic.dataframe import DataFrame
    from repro.distributed.frontier import collect_solutions, frontier_enumerate

    tracing = load_tracing()
    g = random_bipartite_gnp(n_left=10, n_right=10, p=0.7, seed=0)
    k, theta = 1, 3
    want = {solution_key(s) for s in itr.itraversal(g, k, theta=theta)}
    originals = [DataFrame.localCheckpoint, part.alpha_beta_core_edges,
                 part.connected_components_edges]
    tracer = tracing.Tracer()
    with tracing.patched_spark(tracer, spark):
        tracer.record_checkpoints = True
        frontier = collect_solutions(frontier_enumerate(spark, g, k, theta=theta))
        tracer.record_checkpoints = False
        partition = collect_solutions(
            part.enumerate_large_mbps_partitioned(spark, g, k, theta))
    assert [DataFrame.localCheckpoint, part.alpha_beta_core_edges,
            part.connected_components_edges] == originals
    assert frontier == partition == want

    layers = tracing.frontier_layers(tracer, 1.0)
    rounds = layers["frontier.rounds"]
    assert len(tracer.checkpoints) == 1 + 2 * rounds
    assert layers["frontier.failed_tasks"] == 0
    assert collect_solutions(
        frontier_enumerate(spark, g, k, theta=theta, max_rounds=rounds)) == want
    with pytest.raises(RuntimeError, match="did not drain"):
        frontier_enumerate(spark, g, k, theta=theta, max_rounds=rounds - 1)
    assert tracing.partition_layers(tracer, 1.0)["partition.components"] >= 1
