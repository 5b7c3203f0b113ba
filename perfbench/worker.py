"""One measuring process of the benchmark.

Started fresh by ``run.py`` so that set-up time and the resident
high-water mark belong to this workload alone. It imports the library,
loads every registry and lazy kernel module, reports when that set-up
finished, then repeats passes of its workload until its deadline (or,
with ``--setup-only``, times the reference and exits). A pass
runs each of the workload's campaigns over a fresh ``ExperimentStore`` +
``RunCache`` (cold), then re-runs it from the store several times
(resume). With ``--trace 1`` the passes alternate untraced and traced,
so the traced run also measures the tracer's own overhead.

Times are reported in reference units (see :mod:`perfbench.reference`).

The last line of standard output is one JSON object with the set-up
finish time, the peak RSS and one record per pass.

Usage (from the repository root, normally via ``run.py``)::

    PYTHONPATH=src:. python3 -m perfbench.worker --workload delta-ladder \\
        --seed 1 --until <unix time> --trace 0 --workdir .perfbench_work/x
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import workloads
from perfbench.reference import NOMINAL_S, Reference
from perfbench.tracer import Tracer, cell_id, layer_metrics

#: Resume runs per campaign; resume_s counts the fastest. A traced pass
#: resumes once, so its store metrics cover one cold run and one resume.
RESUME_REPEATS = 9
#: Reference runs that scale the set-up time of a ``--setup-only`` process.
SETUP_REFERENCES = 3


def set_up() -> Dict[str, str]:
    """Import the library and load the algorithm, workload and oracle
    registries and the lazy kernel modules; return library versions."""
    import networkx
    import numpy

    from repro import kernels, registry, shard, verify  # noqa: F401
    from repro import workloads as library_workloads
    from repro.analysis import campaign  # noqa: F401
    from repro.store import ExperimentStore, RunCache  # noqa: F401

    registry.specs()
    library_workloads.names()
    verify.oracles_for("star4")
    kernels.kernel_names()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def run_pass(workload: workloads.Workload, workdir: Path, reference: Reference,
             tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """One pass: each campaign cold over a fresh store, then resumed
    :data:`RESUME_REPEATS` times from it (once when ``tracer`` is given,
    which traces the pass).
    Both phases are timed between two references; expects ``reference``
    to have been timed just before."""
    from repro.analysis.campaign import CampaignRunner
    from repro.store import ExperimentStore, RunCache

    first_span = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
    resumes = RESUME_REPEATS if tracer is None else 1
    wall_s = raw_s = resume_s = 0.0
    resume_misses = 0
    cells: List[Dict[str, Any]] = []
    rows: List[Dict[str, Any]] = []
    try:
        for index, campaign in enumerate(workload.campaigns):
            store_dir = workdir / f"store-{index}"
            shutil.rmtree(store_dir, ignore_errors=True)
            store_dir.mkdir(parents=True)
            with ExperimentStore(store_dir / "runs.db") as store:
                cache = RunCache(store)
                before = reference.last_s
                started = time.perf_counter()
                campaign_rows = CampaignRunner(campaign, engine="vector",
                                               jobs=workload.jobs, cache=cache).run()
                cold_s = time.perf_counter() - started
                after = reference.time()
                scale = NOMINAL_S * 2.0 / (before + after)
                wall_s += cold_s * scale
                raw_s += cold_s
                errored = sum(1 for row in campaign_rows if row.get("error"))
                fastest = float("inf")
                for _ in range(resumes):
                    again = CampaignRunner(campaign, engine="vector",
                                           jobs=workload.jobs, cache=cache)
                    started = time.perf_counter()
                    again.run()
                    fastest = min(fastest, time.perf_counter() - started)
                    # errored cells are retried by design; all others must hit
                    resume_misses += again.last_progress.computed - errored
                resume_s += fastest * NOMINAL_S * 2.0 / (after + reference.time())
            shutil.rmtree(store_dir, ignore_errors=True)
            if tracer is not None:
                tracer.adopt(campaign_rows)
            cells += [_summary(cell, row, scale) for cell, row in zip(campaign, campaign_rows)]
            rows += campaign_rows
    finally:
        if tracer is not None:
            tracer.uninstall()
    record: Dict[str, Any] = {
        "traced": tracer is not None,
        "wall_s": wall_s,
        "raw_wall_s": raw_s,
        "resume_s": resume_s,
        "resume_misses": resume_misses,
        "cells": cells,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans[first_span:], rows,
                                         scale=wall_s / raw_s)
        del tracer.spans[first_span:]
    return record


def _summary(cell: Any, row: Dict[str, Any], scale: float) -> Dict[str, Any]:
    metrics = row.get("metrics") or {}
    return {
        "cell": cell_id(cell),
        "error": row.get("error"),
        "verdict": row.get("verdict"),
        "colors_used": row.get("colors_used"),
        "rounds_actual": row.get("rounds_actual"),
        # submission until the row resolved: runner-side queue wait plus
        # the cell's own time in the worker
        "cell_ms": (float(metrics.get("queue_ms") or 0.0)
                    + float(metrics.get("total_ms") or 0.0)) * scale,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--until", type=float, default=0.0,
                        help="unix time after which no new pass starts")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up only, then exit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-failure", action="store_true")
    args = parser.parse_args(argv)

    versions = set_up()
    ready_at = time.time()
    if args.setup_only:
        reference = Reference()
        for _ in range(SETUP_REFERENCES):
            reference.time()
        print(json.dumps({
            "ready_at": ready_at,
            "setup_scale": NOMINAL_S / statistics.median(reference.times),
            "versions": versions,
        }))
        return 0

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny,
                               plant_failure=args.plant_failure)
    # A workload that keeps both CPUs busy is timed against a reference
    # running on both.
    reference = Reference(copies=workload.jobs)
    tracer = Tracer() if args.trace else None
    # A traced run alternates untraced and traced passes and needs one of each.
    min_passes = 2 if args.trace else 1
    passes: List[Dict[str, Any]] = []
    try:
        reference.time()
        last_s = 0.0
        while len(passes) < min_passes or time.time() + last_s <= args.until:
            traced = tracer is not None and len(passes) % 2 == 1
            started = time.perf_counter()
            passes.append(run_pass(workload, args.workdir, reference,
                                   tracer if traced else None))
            last_s = time.perf_counter() - started
    finally:
        reference.close()
    # Set-up is timed once per process, so it is scaled by the process's
    # typical reference time rather than by one sample.
    setup_scale = NOMINAL_S / statistics.median(reference.times)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "ready_at": ready_at,
        "setup_scale": setup_scale,
        "versions": versions,
        # Linux reports ru_maxrss in KiB. The high-water mark of the
        # hungriest process: this one or its largest child (a pool worker,
        # which shares this process's pre-fork heap, or the reference
        # helper, a fresh interpreter).
        "peak_rss_mb": max(own, pool) / 1024.0,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
