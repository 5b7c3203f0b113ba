"""The repository's benchmark: campaign cells of one workload, timed end
to end or split into layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload delta-ladder --seed 1 --seconds 30 --trace 0

The run starts several fresh processes (``perfbench/worker.py``) one
after another: an untraced run first starts a few that only time their
set-up, then measuring processes, each with an equal share of what is
left of ``--seconds``; every measuring process times its own set-up and
then repeats passes of the workload. Set-up time is the median over all
of them and peak RSS over the measuring processes, ``cell_ms``
percentiles are taken over every cell of every pass, and every other
metric is the median over passes. Times are in reference units, which
read roughly as seconds on an idle 2-CPU host (see ``perfbench/reference.py``);
the seconds as measured are kept in the provenance.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints the per-layer metrics of the traced passes, the cell
time no layer covers (``unattributed_s``) and the tracer's own overhead
against the untraced passes of the same run (``trace_overhead_pct``).

Correctness gate: every cell must compute without error and verify with
verdict ``ok``; every pass must give each cell the same ``colors_used``
and ``rounds_actual`` (traced and untraced alike); every resume must be
served from the store. Failures are counted, not raised: the run still
prints its result, with ``"correct": false``, and exits 1.

The last line of standard output is the JSON result; the lines before it
list every metric by name and unit, ``failed_ratio`` and the provenance,
which is also written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import TIMED_LAYERS  # noqa: E402
from perfbench.workloads import NAMES  # noqa: E402

#: Measuring processes per run: peak RSS is the median over them.
PROCESSES = {0: 3, 1: 2}
#: Processes that only set up, started before the measuring ones in an
#: untraced run; set-up time is the median over them and the measuring
#: processes.
SETUP_PROBES = 4
#: A worker that outlives its share by this much is killed.
WORKER_GRACE_S = 90.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("colors_used", "count"),
    ("rounds_actual", "count"),
    ("cell_ms.p50", "ms"),
    ("cell_ms.p90", "ms"),
    ("resume_s", "s"),
)
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (metric, "s") for _, metric in TIMED_LAYERS
) + (
    ("engine.runs", "count"),
    ("engine.rounds", "count"),
    ("engine.messages", "count"),
    ("kernels.dispatch_ratio", "ratio"),
    ("shard.exchanged_values", "count"),
    ("store.hit_ratio", "ratio"),
    ("campaign.queue_ms.p50", "ms"),
    ("unattributed_s", "s"),
    ("trace_overhead_pct", "%"),
)


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, until: Optional[float], workdir: Path) -> Dict[str, Any]:
    """Start one measuring process (a set-up probe if ``until`` is None),
    wait for it, return its report plus its set-up time as seen from here
    (spawn until set-up finished)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Sharded cells stage their shard files under the temp dir; keep it
    # inside the checkout, and write no library trace files.
    env["TMPDIR"] = str(workdir / "tmp")
    env.pop("REPRO_TRACE", None)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    command += ["--setup-only"] if until is None else ["--until", repr(until)]
    command += ["--tiny"] if args.tiny else []
    command += ["--plant-failure"] if args.plant_failure else []
    spawned = time.time()
    # Own session, so a timeout can kill the pool workers too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max((until or 0.0) - time.time(), 0) + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("measuring process timed out")
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"measuring process exited {proc.returncode}:\n{err[-4000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned
    return report


def check(reports: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """The correctness gate: (attempted, failed, problems)."""
    attempted = failed = 0
    problems: List[str] = []
    outcome: Dict[str, Tuple[Any, Any]] = {}
    for report in reports:
        for record in report["passes"]:
            if record["resume_misses"]:
                problems.append(f"{record['resume_misses']} resumed cells missed the store")
            for cell in record["cells"]:
                attempted += 1
                if cell["error"] or cell["verdict"] != "ok":
                    failed += 1
                    problems.append(f"{cell['cell']}: {cell['error'] or cell['verdict']}")
                    continue
                seen = (cell["colors_used"], cell["rounds_actual"])
                if outcome.setdefault(cell["cell"], seen) != seen:
                    problems.append(
                        f"{cell['cell']}: colors/rounds {seen} differ from "
                        f"{outcome[cell['cell']]} in another pass"
                    )
    return attempted, failed, sorted(set(problems))


def _stats(values: List[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def end_to_end(reports: List[Dict[str, Any]],
               probes: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    passes = [record for report in reports for record in report["passes"]]
    cell_ms = [c["cell_ms"] for p in passes for c in p["cells"]]
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [r["setup_s"] * r["setup_scale"] for r in probes + reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "colors_used": [float(sum(c["colors_used"] or 0 for c in p["cells"])) for p in passes],
        "rounds_actual": [float(sum(c["rounds_actual"] or 0 for c in p["cells"]))
                          for p in passes],
        # percentiles over every cell of every pass: a workload of a few
        # unlike cells has no steady per-pass median
        "cell_ms.p50": [statistics.median(cell_ms)],
        "cell_ms.p90": [statistics.quantiles(cell_ms, n=10, method="inclusive")[8]],
        "resume_s": [p["resume_s"] for p in passes],
    }


def per_layer(reports: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    passes = [record for report in reports for record in report["passes"]]
    traced = [p for p in passes if p["traced"]]
    samples = {metric: [p["layers"][metric] for p in traced] for metric in traced[0]["layers"]}
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    with_trace = statistics.median(p["wall_s"] for p in traced)
    samples["trace_overhead_pct"] = [(with_trace / plain - 1.0) * 100.0]
    return samples


def provenance(args: argparse.Namespace, reports: List[Dict[str, Any]],
               probes: List[Dict[str, Any]], stats: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        **reports[0]["versions"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": len(reports),
        "setup_probes": len(probes),
        # seconds as measured, before conversion to reference units
        "raw_wall_s": _stats([p["raw_wall_s"] for r in reports for p in r["passes"]], "s"),
        "passes": sum(len(r["passes"]) for r in reports),
        "metrics": stats,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every graph (the benchmark's own tests)")
    parser.add_argument("--plant-failure", action="store_true",
                        help="add one cell that errors (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.time() + args.seconds
    count = PROCESSES[args.trace]
    probes: List[Dict[str, Any]] = []
    reports: List[Dict[str, Any]] = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            probes.append(run_worker(args, None, workdir))
        # the measuring processes share what is left of --seconds
        started = time.time()
        for index in range(count):
            until = started + (deadline - started) * (index + 1) / count
            reports.append(run_worker(args, until, workdir))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = check(reports)
    samples = per_layer(reports) if args.trace else end_to_end(reports, probes)
    units = PER_LAYER if args.trace else END_TO_END
    stats = {name: _stats(samples[name], unit) for name, unit in units}
    record = provenance(args, reports, probes, stats)

    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, stat in stats.items():
        spread = (stat["q3"] - stat["q1"]) / stat["value"] * 100 if stat["value"] else 0.0
        print(f"{name:28s} {stat['value']:14.6f} {stat['unit']:6s} "
              f"(n={stat['n']}, IQR {spread:.1f}%)")
    print(f"{'failed_ratio':28s} {failed / max(attempted, 1):14.6f} ratio")
    print("provenance " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stat["value"], "unit": stat["unit"]}
                    for name, stat in stats.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
