#!/usr/bin/env python3
"""The benchmark: one command, five workloads, clock-based.

    python3 bench/run.py --workload hairpin3d --seed 0 --seconds 15 --trace 0

runs one workload in a fresh, hermetic worker process, prints every
metric by name with its unit, checks the program's outputs, writes one
JSON result file under ``--out`` and ends with one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``repro.obs`` off, no
wrappers); ``--trace 1`` reports the per-layer metrics from spans the
benchmark records around calls into each layer, and writes the spans to
``<out>/trace_<workload>.json``.  Without ``--workload`` all five run in
turn.  The metric names, units and bounds live in ``BENCHMARK.json``;
``bench/README.md`` says what each one measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCHEMA = "repro-bench-result/1"

#: seconds one measuring worker takes on the 2-core reference machine at
#: the nominal run length; the parent kills it at three times that.
EXPECTED_SECONDS = {
    "hairpin3d": 30, "shear2d": 20, "elliptic_tiers": 20, "sweep64": 30, "spmd_cg": 20,
}
#: the driver's cap on one whole invocation, less a margin for reporting
INVOCATION_SECONDS = 170
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(EXPECTED_SECONDS),
                    help="default: all five, one after another")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives the generated inputs only; 0 = the paper configurations")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length the fixed windows are scaled to (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                    help="directory for result and trace files")
    ap.add_argument("--write-reference", action="store_true",
                    help="pin this seed-0 untraced run's counts in bench/reference.json")
    ap.add_argument("--phase", choices=("measure", "setup"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# Worker: runs inside the fresh process.
# --------------------------------------------------------------------------
def worker(args) -> int:
    t0 = time.perf_counter()  # set-up starts here, before `import repro`
    import workloads

    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh).get(args.workload)
    ctx = workloads.Ctx(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.phase == "setup", t0, reference)
    try:
        workloads.WORKLOADS[args.workload](ctx)
    except workloads.SetupDone:
        print(json.dumps({"setup_s": ctx.setup_s}))
        return 0
    import numpy
    import scipy

    doc = {
        "end_to_end": ctx.end_to_end(),
        "per_layer": ctx.layer,
        "attempted": ctx.attempted,
        "operations": len(ctx.ops),
        "tail_percentile": workloads.tail_percentile(len(ctx.ops)),
        "failures": ctx.failures,
        "detail": ctx.detail,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "pid": os.getpid(),
    }
    if args.trace:
        os.makedirs(args.out, exist_ok=True)
        ctx.tracer.dump(os.path.join(args.out, f"trace_{args.workload}.json"),
                        {"seed": args.seed, "obs_regions": ctx.detail.pop("obs_regions", None)})
    print(json.dumps(doc))
    return 0


# --------------------------------------------------------------------------
# Parent: hermetic runner, deadlines, leak checks, reporting.
# --------------------------------------------------------------------------
#: One BLAS thread per process: the operators are too small for a second
#: thread to help (it spin-waits), and sweep64's two worker threads and
#: spmd_cg's two rank processes would otherwise keep four threads busy on
#: two cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def hermetic_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["REPRO_TUNING_CACHE"] = "off"
    env["PYTHONPATH"] = SRC
    env.update(BLAS_THREADS)
    return env


def group_members(pgid: int) -> list:
    """Live processes in process group ``pgid`` (the worker's session)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            found.append(int(entry))
    return found


def spawn(args, workload: str, phase: str, deadline: float):
    """Run one worker; returns (its JSON document or None, failure messages)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", phase,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    failures = []
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        failures.append(f"{phase} worker exceeded its {deadline:.0f} s deadline; killed")
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    # Nothing the worker started may outlive it: no process in its group,
    # no shared-memory segment under its run prefix.
    orphans = group_members(proc.pid)
    if orphans:
        if proc.poll() is not None:
            failures.append(f"orphan processes left behind: {orphans}")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    prefix = f"repro-mp-{proc.pid}-"
    if os.path.isdir("/dev/shm"):
        leaked = [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
        for name in leaked:
            os.unlink(os.path.join("/dev/shm", name))
        if leaked:
            failures.append(f"/dev/shm segments left behind: {leaked}")
    if proc.returncode != 0 and not failures:
        failures.append(f"{phase} worker exited with code {proc.returncode}")
    doc = None
    if not failures:
        try:
            doc = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failures.append(f"{phase} worker printed no result")
    return doc, failures


def environment(versions: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        **versions,
        "git_sha": sha,
    }


def run_workload(args, spec: dict, workload: str) -> dict:
    started = time.monotonic()
    scale = max(1.0, args.seconds / spec["run_seconds"])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    doc, failures = spawn(args, workload, "measure",
                          min(3 * EXPECTED_SECONDS[workload] * scale, INVOCATION_SECONDS))
    values = dict(doc[kind]) if doc else {}
    attempted = doc["attempted"] if doc else 1
    if doc:
        failures += doc["failures"]
    if doc and not args.trace:
        # Set-up is paid once per process: repeat it in fresh processes and
        # report the median, so one slow import does not decide the number.
        setups = [values["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            left = INVOCATION_SECONDS - (time.monotonic() - started)
            rep, rep_failures = spawn(args, workload, "setup", min(60.0, left))
            failures += rep_failures
            if rep:
                setups.append(rep["setup_s"])
        values["setup_s"] = statistics.median(setups)
    if doc:
        unknown = sorted(set(values) - set(units))
        if unknown:
            failures.append(f"metrics not named in BENCHMARK.json: {unknown}")
        # A layer the workload never enters has done no work: 0.
        values = {name: float(values.get(name, 0.0)) for name in units}

    result = {
        "schema": SCHEMA,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        "other": doc and doc["end_to_end" if args.trace else "per_layer"],
        "operations": doc and doc["operations"],
        "tail_percentile": doc and doc["tail_percentile"],
        "detail": doc and doc["detail"],
        "environment": environment(doc["versions"] if doc else {}),
    }
    os.makedirs(args.out, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(args.out, name), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.write_reference and result["correct"]:
        path = os.path.join(BENCH_DIR, "reference.json")
        with open(path) as fh:
            reference = json.load(fh)
        reference[workload] = doc["detail"]["reference"]
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return result


def report(result: dict) -> None:
    print(f"# {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    for message in result["failures"]:
        print("FAILED: " + message, file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase:
        return worker(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench/run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.write_reference and (args.seed or args.trace or args.seconds != spec["run_seconds"]):
        print("--write-reference needs --seed 0 --trace 0 and the nominal --seconds",
              file=sys.stderr)
        return 2
    args.out = os.path.abspath(args.out)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        result = run_workload(args, spec, workload)
        report(result)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
