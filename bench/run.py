"""Run the boundedgen benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process, one at a time, so that its peak
RSS is its own; numpy's thread pools are pinned to one thread.  The package
is imported from ``src/`` of the checkout this file sits in.  ``--seconds``
is the timed window of each workload; it defaults to ``run_seconds`` of
``BENCHMARK.json``, and the figures there are taken with that default.

Every metric is printed by name and unit, and the full record (machine,
versions, commit, seed, output digest) is written to ``bench/results/``.
Each workload's block ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or its per-layer metrics with ``--trace 1``, keyed by metric name).  With
one workload that line is the last line of standard output.  The exit code
is non-zero when any output is wrong or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"
WORKLOADS = ("json_decode", "adversarial_state", "precompute_vocab")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- child: one workload in this process -------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import numpy
    import boundedgen

    if Path(boundedgen.__file__).resolve().parent != SRC / "boundedgen":
        raise RuntimeError(f"imported boundedgen from {boundedgen.__file__}, not from {SRC}")
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    work_dir = WORK / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.WORKLOADS[workload](seed, seconds, workloads.FULL, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = dict(result.metrics)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(ROOT),
            "seed": seed,
        },
        "correct": result.outcomes.failed == 0,
        "attempted": result.outcomes.attempted,
        "failed": result.outcomes.failed,
        "failures": result.outcomes.failures,
        "digest": result.outcomes.digest,
        "end_to_end": metrics,
        "extra": result.extra,
    }
    if tracer is not None:
        overhead = result.extra["trace_overhead_pct"][0]
        record["per_layer"] = tracing.layer_metrics(tracer, result.builds, overhead)
        record["spans_by_phase"] = tracer.spans_by_phase()
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.dump(RESULTS / f"spans-{workload}-seed{seed}.npz")
    return record


# --- parent: spawn, check, report -----------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # No bytecode files: the run writes nothing outside bench/.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREAD)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        print(proc.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_record(rec: dict, wanted: list[str]) -> None:
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}")
    section = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
    for name in wanted:
        value, unit = section[name]
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print("  -- workload-specific --")
    for name, (value, unit) in rec["extra"].items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    failed_pct = 100.0 * rec["failed"] / rec["attempted"]
    print(f"  {'failed_pct':<36} {failed_pct:>14.6g} %  ({rec['failed']} of {rec['attempted']})")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    print(f"  digest {rec['digest']}")
    if rec.get("spans_by_phase"):
        print(f"  spans by phase {json.dumps(rec['spans_by_phase'], sort_keys=True)}")
    env = rec["env"]
    print(f"  on {env['platform']} ({env['cpu_count']} cpus), Python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['commit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "boundedgen" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args.child, args.seed, args.seconds, bool(args.trace))))
        return 0

    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name in names:
        rec = spawn(name, args.seed, seconds, args.trace)
        if rec is None:
            return 1
        section = rec["per_layer"] if args.trace else rec["end_to_end"]
        missing = [m for m in wanted if m not in section]
        if missing:
            print(f"{name}: metrics missing from the run: {missing}", file=sys.stderr)
            return 1
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
        print_record(rec, wanted)
        print(json.dumps({
            "correct": rec["correct"],
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {m: {"value": section[m][0], "unit": section[m][1]} for m in wanted},
        }))
        all_correct = all_correct and rec["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
