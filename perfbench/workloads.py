"""The benchmark's workloads: inputs drawn from a seed, timed passes, checks.

A run is a sequence of *passes*. Pass i enumerates input i of the
workload, drawn from the run's seed; for the default seed 42, input 0 is
exactly ``datasets.load(name)``. Passes go on until their timed
enumerations add up to the run's seconds, and the metrics average over
passes, so neither one input nor one stall of the machine sets a
figure. Every time is scaled by the host's speed, measured next to it
with a fixed reference task (see `reference_s`). All checks run outside
the timed regions; a failed check or a run cut short by the deadline
counts in ``failed``.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import random
import resource
import statistics
import subprocess
import time
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import repro.bipartite.core_decomp as core_decomp
from repro.bipartite.graph import BipartiteGraph, Solution, solution_key
from repro.bipartite.predicates import is_maximal_kbiplex
from repro.core.itraversal import VARIANTS, TraversalStats, itraversal
from repro.experiments import datasets

from tracing import Tracer, frontier_layers, partition_layers, patched, patched_spark

K = 1
THETA = 4
SPARK_WORKLOAD = "cfat-theta"  # its traced run also runs the Spark enumerators
SHUFFLE_PARTITIONS = 4
# The engine's cooperative deadline, from the start of a run. It keeps a
# run inside the 180 s one run may take; a run it cuts counts as failed.
RUN_BUDGET_S = 140.0


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
# On a shared host the speed of pure-Python work drifts by ±25% within a
# run and by up to 50% between runs minutes apart, and longer runs do not
# average it away. So the benchmark times a fixed reference task before
# its first pass and after every REFERENCE_EVERY_S of enumeration, and
# scales each pass's times by the references around it: times are
# reported as on a host where the reference task takes REFERENCE_S
# seconds (README.md, "Host speed"). The task does the same kind of work
# as the enumeration (frozenset intersections, set lookups and inserts)
# and uses no repro code, so no change to the program moves it.
REFERENCE_S = 0.2
REFERENCE_EVERY_S = 1.0
_REFERENCE_REPS = 8
_rng = random.Random(0)
_REFERENCE_SETS = [frozenset(_rng.sample(range(96), 30)) for _ in range(96)]


def reference_s() -> float:
    """Seconds the reference task takes now (≈0.19 s on a calm 2.1 GHz
    host)."""
    t0 = time.perf_counter()
    found = 0
    for _ in range(_REFERENCE_REPS):
        seen = set()
        for a in _REFERENCE_SETS:
            for b in _REFERENCE_SETS:
                x = a & b
                if len(x) > 9 and x not in seen:
                    seen.add(x)
                    found += 1
                elif not a - b:
                    found -= 1
    assert found, "the reference task must do its work"
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def stand_in(name: str) -> BipartiteGraph:
    """`datasets.load(name)` built afresh, not from its cache, so that
    setup_s times the generation."""
    return datasets.load.__wrapped__(name)


def relabel(g: BipartiteGraph, rng: random.Random):
    """An isomorphic copy of ``g`` with both sides shuffled by ``rng``.

    Returns ``(copy, back_l, back_r)``: copy vertex i is vertex
    ``back_l[i]`` of ``g``. The copy has the same MBPs up to labels, so
    its result set maps back to the stand-in's, whatever the seed.
    """
    back_l, back_r = list(range(g.n_left)), list(range(g.n_right))
    rng.shuffle(back_l)
    rng.shuffle(back_r)
    pos_l = {v: i for i, v in enumerate(back_l)}
    pos_r = {u: j for j, u in enumerate(back_r)}
    copy = BipartiteGraph.from_edges(
        ((pos_l[v], pos_r[u]) for v, u in g.edges()), g.n_left, g.n_right
    )
    return copy, back_l, back_r


@dataclass
class Input:
    """One graph and how the workload enumerates it, completely."""

    graph: BipartiteGraph
    theta: int | None
    back: tuple[list[int], list[int]] | None = None  # labels of the stand-in

    def enumerate(self, stats: TraversalStats, deadline: float) -> Iterator[Solution]:
        if self.theta is None:
            return itraversal(self.graph, K, stats=stats, deadline=deadline)
        return theta_on_core(self.graph, self.theta, stats, deadline)

    def reference(self) -> set:
        """Complete result set through the path without exclusion."""
        es = VARIANTS["iTraversal-ES"]
        if self.theta is None:
            return {solution_key(s) for s in es(self.graph, K)}
        sub, lids, rids = core_input(self.graph, self.theta)
        return {
            solution_key(lift(s, lids, rids)) for s in es(sub, K, theta=self.theta)
        }

    def canonical(self, key) -> tuple:
        """A solution key in the stand-in's labels (for the digest)."""
        if self.back is None:
            return key
        back_l, back_r = self.back
        return (tuple(sorted(back_l[v] for v in key[0])),
                tuple(sorted(back_r[u] for u in key[1])))


def core_input(g: BipartiteGraph, theta: int):
    """The (θ−k)-core of ``g`` as a re-indexed subgraph."""
    core_l, core_r = core_decomp.theta_k_core(g, theta, K)
    return g.induced(core_l, core_r)


def lift(sol: Solution, lids: list[int], rids: list[int]) -> Solution:
    return (frozenset(lids[i] for i in sol[0]), frozenset(rids[j] for j in sol[1]))


def theta_on_core(g, theta, stats, deadline) -> Iterator[Solution]:
    """θ-mode iTraversal on the (θ−k)-core; the peel is part of the call."""
    sub, lids, rids = core_input(g, theta)
    for sol in itraversal(sub, K, theta=theta, stats=stats, deadline=deadline):
        yield lift(sol, lids, rids)


def pass_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}/{i}")


def relabelled_input(name: str, theta: int | None, seed: int, i: int) -> Input:
    """A fresh labelling of the stand-in per pass: same MBPs, new order."""
    g = stand_in(name)
    if seed == datasets.SPECS[name].seed and i == 0:
        return Input(g, theta)
    copy, back_l, back_r = relabel(g, pass_rng(seed, i))
    return Input(copy, theta, (back_l, back_r))


WORKLOADS = {
    "divorce-full": functools.partial(relabelled_input, "Divorce", None),
    "cfat-theta": functools.partial(relabelled_input, "Cfat", THETA),
}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One timed enumeration of one input, and its traced repeat. Times
    are wall seconds; ``scale`` turns them into reference-host seconds."""

    enum_s: float
    outputs: int
    # Wall seconds between outputs, as doubles: 8 bytes a gap, so the
    # benchmark's own memory grows little with the number of passes.
    gaps: array
    setup_s: float = 0.0
    scale: float = 1.0
    traced_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: str
    seed: int
    trace: bool
    seconds: float
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    results: list[tuple[int, str]] = field(default_factory=list)  # count, digest
    sizes: list[tuple[int, int, int]] = field(default_factory=list)
    complete_digest: str | None = None
    peak_rss_mb: float = 0.0  # read when the last pass ends
    spark_layers: dict[str, float] = field(default_factory=dict)

    @property
    def deadline(self) -> float:
        return self.started + RUN_BUDGET_S

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def measured_s(self) -> float:
        return sum(p.enum_s + p.traced_s for p in self.passes)


def digest(keys) -> str:
    h = hashlib.sha256()
    for key in sorted(keys):
        h.update(repr(key).encode())
    return h.hexdigest()[:16]


def timed_enumeration(inp: Input, stats: TraversalStats, deadline: float):
    """Consume one enumeration: (solutions, seconds, gaps between outputs).

    Gaps follow §3.5: start to first output, between outputs, and last
    output to termination.
    """
    out: list[Solution] = []
    stamps: list[float] = []
    t0 = time.perf_counter()
    for sol in inp.enumerate(stats, deadline):
        stamps.append(time.perf_counter())
        out.append(sol)
    t_end = time.perf_counter()
    bounds = [t0, *stamps, t_end]
    gaps = [b - a for a, b in zip(bounds, bounds[1:])]
    return out, t_end - t0, gaps


def check_output(run: Run, inp: Input, sols: list[Solution]) -> None:
    """No repeats and maximality; the first enumeration of a run equals
    the exclusion-free path, and every later labelling the same set."""
    where = f"pass {len(run.passes)}"
    keys = [solution_key(s) for s in sols]
    if time.monotonic() > run.deadline:
        run.fail(f"{where}: censored by the run deadline")
        return
    if len(set(keys)) != len(keys):
        run.fail(f"{where}: {len(keys) - len(set(keys))} MBPs emitted twice")
        return
    d = digest(inp.canonical(k) for k in keys)
    run.results.append((len(keys), d))
    theta = inp.theta or 0
    bad = sum(
        1 for l, r in sols
        if len(l) < theta or len(r) < theta
        or not is_maximal_kbiplex(inp.graph, l, r, K)
    )
    if bad:
        run.fail(f"{where}: {bad} outputs are not maximal k-biplexes")
    if run.complete_digest is None:
        if set(keys) != inp.reference():
            run.fail(f"{where}: result set differs from iTraversal-ES")
        run.complete_digest = d
    elif d != run.complete_digest:
        run.fail(f"{where}: result set differs from the first labelling's")


def one_pass(run: Run, inp: Input) -> Pass:
    """Enumerate ``inp`` timed; in a traced run again, under the tracer."""
    run.attempted += 1
    sols, secs, gaps = timed_enumeration(inp, TraversalStats(), run.deadline)
    p = Pass(secs, len(sols), array("d", gaps))
    if run.trace:
        tracer, stats = Tracer(), TraversalStats()
        with patched(tracer):
            traced, p.traced_s, _ = timed_enumeration(inp, stats, run.deadline)
        p.layers = tracer.counters(stats, p.traced_s)
        if traced != sols:
            run.fail(f"pass {len(run.passes)}: the traced run emitted another sequence")
    check_output(run, inp, sols)
    return p


def run_workload(run: Run) -> None:
    """Passes until the run's seconds are measured (at least one); no pass
    starts that would end past the deadline. The reference task is timed
    before the first pass and after every block of passes that measured
    REFERENCE_EVERY_S; a block's passes are scaled by the mean of the two
    references around it."""
    make = WORKLOADS[run.workload]
    if run.trace and run.workload == SPARK_WORKLOAD:
        spark_pass(run, make(run.seed, 0))
    run.reference_s.append(reference_s())
    block: list[Pass] = []
    longest = 0.0
    while not run.failed and (not run.passes or run.measured_s() < run.seconds):
        if time.monotonic() + longest > run.deadline:
            break
        t0 = time.perf_counter()
        inp = make(run.seed, len(run.passes))
        setup_s = time.perf_counter() - t0
        run.sizes.append((inp.graph.n_left, inp.graph.n_right, inp.graph.n_edges))
        t0 = time.monotonic()
        p = one_pass(run, inp)
        longest = max(longest, time.monotonic() - t0)
        p.setup_s = setup_s
        run.passes.append(p)
        block.append(p)
        if sum(q.enum_s + q.traced_s for q in block) >= REFERENCE_EVERY_S:
            close_block(run, block)
    close_block(run, block)
    run.peak_rss_mb = peak_rss_mb()


def close_block(run: Run, block: list[Pass]) -> None:
    """Time the reference after ``block`` and scale its passes."""
    if not block:
        return
    run.reference_s.append(reference_s())
    scale = REFERENCE_S / statistics.fmean(run.reference_s[-2:])
    for p in block:
        p.scale = scale
    block.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# the Spark enumerators, in the traced run of SPARK_WORKLOAD
# ----------------------------------------------------------------------
def start_spark():
    """A local SparkSession; master and memory come from the environment
    that run.py sets before pyspark is imported."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def distributed_legs(spark, sub: BipartiteGraph, tracer: Tracer | None):
    """Frontier BFS and partitioned enumeration on ``sub``, each collected."""
    from repro.distributed.frontier import collect_solutions, frontier_enumerate
    from repro.distributed.partition import enumerate_large_mbps_partitioned

    with patched_spark(tracer, spark) if tracer else contextlib.nullcontext():
        if tracer:
            tracer.record_checkpoints = True
        t0 = time.perf_counter()
        frontier = collect_solutions(frontier_enumerate(spark, sub, K, theta=THETA))
        frontier_s = time.perf_counter() - t0
        if tracer:
            tracer.record_checkpoints = False
        t0 = time.perf_counter()
        partition = collect_solutions(
            enumerate_large_mbps_partitioned(spark, sub, K, THETA))
        partition_s = time.perf_counter() - t0
    return frontier, frontier_s, partition, partition_s


def spark_pass(run: Run, inp: Input) -> None:
    """Frontier and partition on the (θ−k)-core of ``inp``, after a
    warm-up on a small graph; both must equal the local result."""
    from repro.bipartite.generators import random_bipartite_gnp

    sub, lids, rids = core_input(inp.graph, THETA)
    local = {solution_key(s) for s in inp.enumerate(TraversalStats(), run.deadline)}
    spark = start_spark()
    try:
        distributed_legs(spark, random_bipartite_gnp(n_left=10, n_right=10, p=0.7,
                                                     seed=0), None)
        tracer = Tracer()
        frontier, frontier_s, partition, partition_s = distributed_legs(spark, sub, tracer)
        run.spark_layers = {**frontier_layers(tracer, frontier_s),
                            **partition_layers(tracer, partition_s)}
    finally:
        stop_spark(spark)
    run.attempted += 2
    for name, got in (("frontier", frontier), ("partition", partition)):
        keys = {solution_key(lift((frozenset(l), frozenset(r)), lids, rids))
                for l, r in got}
        if keys != local:
            run.fail(f"{name}: result set differs from the local enumeration")
