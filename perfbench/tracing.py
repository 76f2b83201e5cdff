"""Per-layer tracing built only from the benchmark's own files.

`traverse` looks its helpers up as module globals at call time, so
replacing those globals with timing wrappers gives a per-layer split of
one run without touching the program. `patched` installs the wrappers
and restores the originals on exit.

Spans are kept as running sums per layer, not as a list: a traversal
makes hundreds of thousands of helper calls, and only the totals are
reported. A generator layer (``enum_almost_sat``) is timed per `next()`,
so the time its consumer spends between items is not charged to it.
The engine's own self time is the time spent inside the top-level
generator minus the time of these child layers (see `Tracer.counters`).
One Tracer serves one traced enumeration.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

import repro.bipartite.core_decomp as core_decomp
import repro.core.itraversal as itr

# Layer name -> the module global of repro.core.itraversal it wraps.
ITRAVERSAL_LAYERS = {
    "rs_check": "_has_right_extension",
    "extend": "extend_to_maximal",
    "theta_potential": "_theta_potential_ok",
    "dedup": "solution_key",
}


class Tracer:
    """Running totals of time, calls and outcomes per layer."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()  # yields of generator layers
        self.true: Counter[str] = Counter()  # True results of predicates
        self.keys: set = set()  # distinct dedup keys
        self.core_kept = [0, 0]  # vertices kept by core peeling, of total
        self.checkpoints: list[tuple[float, list[int]]] = []
        self.components_df = None
        self.record_checkpoints = False
        self.status_tracker = None

    # -- wrappers -------------------------------------------------------
    def wrap(self, name, fn, *, keep_keys=False):
        seconds, calls, true, keys = self.seconds, self.calls, self.true, self.keys

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
            calls[name] += 1
            if keep_keys:
                keys.add(out)
            elif out is True:
                true[name] += 1
            return out

        return traced

    def wrap_gen(self, name, fn):
        seconds, calls, items = self.seconds, self.calls, self.items

        def traced(*args, **kwargs):
            calls[name] += 1
            t0 = time.perf_counter()
            it = iter(fn(*args, **kwargs))
            seconds[name] += time.perf_counter() - t0
            while True:
                t0 = time.perf_counter()
                try:
                    x = next(it)
                except StopIteration:
                    seconds[name] += time.perf_counter() - t0
                    return
                seconds[name] += time.perf_counter() - t0
                items[name] += 1
                yield x

        return traced

    def wrap_checkpoint(self, fn):
        """DataFrame.localCheckpoint, while ``record_checkpoints`` is set:
        its duration and the ids of the Spark jobs it ran."""
        tracer = self

        def traced(df, *args, **kwargs):
            if not tracer.record_checkpoints:
                return fn(df, *args, **kwargs)
            st = tracer.status_tracker
            before = set(st.getJobIdsForGroup())
            t0 = time.perf_counter()
            out = fn(df, *args, **kwargs)
            dt = time.perf_counter() - t0
            jobs = sorted(set(st.getJobIdsForGroup()) - before)
            tracer.checkpoints.append((dt, jobs))
            return out

        return traced

    def wrap_core(self, fn):
        """theta_k_core: time, plus the share of vertices it keeps."""
        timed = self.wrap("core_decomp", fn)

        def traced(g, *args, **kwargs):
            core_l, core_r = timed(g, *args, **kwargs)
            self.core_kept[0] += len(core_l) + len(core_r)
            self.core_kept[1] += g.n_left + g.n_right
            return core_l, core_r

        return traced

    # -- derived ---------------------------------------------------------
    def counters(self, st, enum_s: float) -> dict[str, float]:
        """Raw totals of one traced enumeration; `layer_metrics` turns the
        totals of several into the reported metrics. ``st`` is the
        TraversalStats the caller passed to the traversal."""
        children = ("almost_sat", "core_decomp", *ITRAVERSAL_LAYERS)
        timed = ("almost_sat", *ITRAVERSAL_LAYERS)
        return {
            # The engine's self time: anchor scan, exclusion checks, DFS
            # bookkeeping and emit.
            "itraversal.self_s": enum_s - sum(self.seconds[c] for c in children),
            "itraversal.expansions": st.expansions,
            "itraversal.links": st.links,
            "itraversal.solutions": st.solutions,
            "itraversal.pruned_rs": st.pruned_right_shrinking,
            "itraversal.pruned_exclusion": st.pruned_exclusion,
            "itraversal.pruned_theta": st.pruned_theta_potential,
            **{f"{layer}.calls": self.calls[layer] for layer in timed},
            **{f"{layer}.s": self.seconds[layer] for layer in children},
            "almost_sat.local": self.items["almost_sat"],
            "rs_check.pruned": self.true["rs_check"],
            "theta_potential.pruned": (self.calls["theta_potential"]
                                       - self.true["theta_potential"]),
            "core_decomp.kept": self.core_kept[0],
            "core_decomp.vertices": self.core_kept[1],
            "dedup.dups": self.calls["dedup"] - len(self.keys),
        }


# Reported ratio -> (numerator, denominator), both summed over passes.
RATIOS = {
    "itraversal.links_per_solution": ("itraversal.links", "itraversal.solutions"),
    "almost_sat.local_per_call": ("almost_sat.local", "almost_sat.calls"),
    "rs_check.prune_ratio": ("rs_check.pruned", "rs_check.calls"),
    "theta_potential.prune_ratio": ("theta_potential.pruned", "theta_potential.calls"),
    "core_decomp.kept_frac": ("core_decomp.kept", "core_decomp.vertices"),
    "dedup.dup_ratio": ("dedup.dups", "dedup.calls"),
}
# Reported per-pass means.
MEANS = (
    "itraversal.self_s", "itraversal.expansions", "itraversal.links",
    "itraversal.pruned_rs", "itraversal.pruned_exclusion", "itraversal.pruned_theta",
    "almost_sat.calls", "almost_sat.s", "rs_check.calls", "rs_check.s",
    "extend.calls", "extend.s", "theta_potential.calls", "theta_potential.s",
    "core_decomp.s", "dedup.calls", "dedup.s",
)


def layer_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-pass means of counts and times; ratios of the summed totals."""
    total = {k: sum(p[k] for p in passes) for k in passes[0]}
    out = {k: total[k] / len(passes) for k in MEANS}
    for name, (num, den) in RATIOS.items():
        out[name] = total[num] / total[den] if total[den] else 0.0
    return out


SPARK_LAYERS = (
    "frontier.s", "frontier.rounds", "frontier.expand_s", "frontier.union_s",
    "frontier.max_round_share", "frontier.tasks_per_expand", "frontier.failed_tasks",
    "partition.s", "partition.core_s", "partition.components_s", "partition.apply_s",
    "partition.components", "partition.max_component_share",
)
OTHER_RATIOS = {
    "frontier.max_round_share", "frontier.tasks_per_expand",
    "partition.max_component_share", "trace.overhead_frac",
}


def unit(name: str) -> str:
    if name in RATIOS or name in OTHER_RATIOS:
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer(run) -> dict[str, float]:
    """Every per-layer metric of a traced run. The Spark layers read 0 on
    workloads whose traced run does not start Spark."""
    out = layer_metrics([p.layers for p in run.passes])
    out.update({n: run.spark_layers.get(n, 0) for n in SPARK_LAYERS})
    out["trace.overhead_frac"] = (
        statistics.median(p.traced_s for p in run.passes)
        / statistics.median(p.enum_s for p in run.passes) - 1)
    return out


def _stage_tasks(status_tracker, job_ids):
    """(tasks of the first stage, failed tasks of all stages) of jobs."""
    first, failed = None, 0
    for j in job_ids:
        info = status_tracker.getJobInfo(j)
        if info is None:
            continue
        for s in sorted(info.stageIds):
            stage = status_tracker.getStageInfo(s)
            if stage is None:
                continue
            if first is None:
                first = stage.numTasks
            failed += stage.numFailedTasks
    return first or 0, failed


def frontier_layers(tracer: Tracer, frontier_s: float) -> dict[str, float]:
    """Split the frontier BFS's checkpoints into rounds.

    `frontier_enumerate` checkpoints the seed once, then twice per round:
    first the new solutions (expand: mapInPandas, dedup and anti-join),
    then visited ∪ new (union).
    """
    tasks = [_stage_tasks(tracer.status_tracker, jobs) for _, jobs in tracer.checkpoints]
    expand_s = [dt for dt, _ in tracer.checkpoints[1::2]]
    union_s = [dt for dt, _ in tracer.checkpoints[2::2]]
    expand_tasks = [first for first, _ in tasks[1::2]]
    return {
        "frontier.s": frontier_s,
        "frontier.rounds": len(expand_s),
        "frontier.expand_s": sum(expand_s),
        "frontier.union_s": sum(union_s),
        "frontier.max_round_share": max(map(sum, zip(expand_s, union_s)), default=0.0)
        / frontier_s,
        "frontier.tasks_per_expand": statistics.fmean(expand_tasks) if expand_tasks else 0,
        "frontier.failed_tasks": sum(failed for _, failed in tasks),
    }


def partition_layers(tracer: Tracer, partition_s: float) -> dict[str, float]:
    """Core peel, components, and the rest: per-component applyInPandas
    and the collect. Component sizes are counted after the timed leg."""
    core_s = tracer.seconds["partition.core"]
    components_s = tracer.seconds["partition.components"]
    labeled = tracer.components_df  # None when the core is empty
    sizes = [] if labeled is None else [
        row["count"] for row in labeled.groupBy("component").count().collect()]
    return {
        "partition.s": partition_s,
        "partition.core_s": core_s,
        "partition.components_s": components_s,
        "partition.apply_s": partition_s - core_s - components_s,
        "partition.components": len(sizes),
        "partition.max_component_share": max(sizes, default=0) / max(1, sum(sizes)),
    }


@contextlib.contextmanager
def _swapped(replacements):
    """Set (owner, attr, new) attributes; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def patched(tracer: Tracer):
    """Wrap the layers of a local traversal in the tracer's timers."""
    return _swapped([
        (itr, "enum_almost_sat", tracer.wrap_gen("almost_sat", itr.enum_almost_sat)),
        (core_decomp, "theta_k_core", tracer.wrap_core(core_decomp.theta_k_core)),
        *((itr, attr, tracer.wrap(layer, getattr(itr, attr), keep_keys=layer == "dedup"))
          for layer, attr in ITRAVERSAL_LAYERS.items()),
    ])


def patched_spark(tracer: Tracer, spark):
    """Wrap the driver-side layers of the two Spark enumerators.

    On PySpark 4 the DataFrame that frontier_enumerate checkpoints is the
    classic implementation, so that is the class to patch; patching
    ``pyspark.sql.DataFrame`` would record nothing.
    """
    import repro.distributed.partition as part
    from pyspark.sql.classic.dataframe import DataFrame

    tracer.status_tracker = spark.sparkContext.statusTracker()
    components = part.connected_components_edges

    def capture_components(*args, **kwargs):
        tracer.components_df = components(*args, **kwargs)
        return tracer.components_df

    return _swapped([
        (DataFrame, "localCheckpoint", tracer.wrap_checkpoint(DataFrame.localCheckpoint)),
        (part, "alpha_beta_core_edges",
         tracer.wrap("partition.core", part.alpha_beta_core_edges)),
        (part, "connected_components_edges",
         tracer.wrap("partition.components", capture_components)),
    ])
