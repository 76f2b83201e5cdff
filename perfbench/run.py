"""Benchmark of the maximal k-biplex enumerators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Workloads, metrics and the reasons
for each are in perfbench/README.md. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The line before it is the full record of the run: inputs,
result counts and digests, sample counts, environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SPARK_CORES = 4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_environment() -> int:
    """Pin what Spark and its Python workers see, before pyspark is
    imported. Returns the number of local Spark cores."""
    cores = min(SPARK_CORES, len(os.sched_getaffinity(0)))
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Spark's Python workers import repro from src/; without this,
    # mapInPandas fails with ModuleNotFoundError.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={WORK_DIR / 'warehouse'} "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    sys.path[:0] = [str(SRC), str(HERE)]
    return cores


def code_version() -> dict:
    """The git commit when the checkout is a repository, and a digest of
    src/ either way."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    return {"git_sha": sha, "src_digest": h.hexdigest()[:16]}


def end_to_end(run) -> dict[str, tuple[float, str]]:
    """Times on the reference host (see `workloads.reference_s`): means
    over the run's passes, except setup_s (a median) and the delay (a
    percentile of all passes' gaps)."""
    enum_s = statistics.fmean(p.enum_s * p.scale for p in run.passes)
    outputs = statistics.fmean(p.outputs for p in run.passes)
    return {
        "setup_s": (statistics.median(p.setup_s * p.scale for p in run.passes), "s"),
        "enum_s": (enum_s, "s"),
        "mbps_per_s": (outputs / enum_s, "1/s"),
        "delay_p95_ms": (delay_ms(run, 95), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def delay_ms(run, q: float) -> float:
    """Nearest-rank percentile of the gaps between outputs, pooled over
    the run's passes, on the reference host."""
    gaps = np.concatenate([np.frombuffer(p.gaps) * p.scale for p in run.passes])
    return float(np.percentile(gaps, q, method="inverted_cdf")) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    cores = set_environment()
    import tracing  # both need src/ on the path
    import workloads as w

    if args.workload not in w.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = w.Run(args.workload, args.seed, bool(args.trace), args.seconds)
    w.run_workload(run)
    if not run.passes:
        print("no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {n: (v, tracing.unit(n)) for n, v in tracing.per_layer(run).items()}
    else:
        metrics = end_to_end(run)
    record = {
        "workload": run.workload, "seed": run.seed, "trace": args.trace,
        "passes": len(run.passes), "pass_enum_s": [p.enum_s for p in run.passes],
        "pass_scale": [p.scale for p in run.passes], "reference_s": run.reference_s,
        "input_sizes": run.sizes,
        "results": run.results, "delay_samples": sum(len(p.gaps) for p in run.passes),
        "delay_ms": {"p50": delay_ms(run, 50), "p95": delay_ms(run, 95)},
        "failed_frac": run.failed / run.attempted, "problems": run.problems,
        "env": {**code_version(), "nproc": os.cpu_count(), "spark_cores": cores,
                "shuffle_partitions": w.SHUFFLE_PARTITIONS,
                "python": platform.python_version(), "pyspark": metadata.version("pyspark")},
        "metrics": {n: v for n, (v, _) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
