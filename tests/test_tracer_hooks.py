"""perfbench's tracer wraps module globals of `repro.core.itraversal` by
name, so renaming one in the engine breaks only traced benchmark runs.
These tests load `perfbench/tracing.py` as it is and check that every
global it wraps exists and that a traced iTraversal, with and without θ,
still emits the untraced sequence, with each engine layer called."""
import importlib.util
import pathlib

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
