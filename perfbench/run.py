"""Benchmark of scatter1d: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload (``sweep``, ``oracle``, ``lasing``, or ``all`` for the
three in turn) in this process on one thread, for whole rounds of the same
operations until the next round would overrun ``--seconds`` (at least one
round).  Outputs are checked against independent computations after the
timed rounds.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Operations and set-up are timed by CPU time, not wall time: the program
runs on one thread and waits on nothing, so on an idle machine the two are
equal, and CPU time leaves out the time the hypervisor gives this virtual
CPU to other guests (steal), which comes and goes from minute to minute.
The program is imported from ``src/`` of the checkout this file sits in.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

# One process, one thread: the package's serial default, single-threaded BLAS.
os.environ.pop("SCATTER1D_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_OUT = WORK / "setup_table1.json"

#: Set-up is timed this many times before the rounds and again after them,
#: so that its median does not hang on one stretch of a noisy machine.
SETUP_REPEATS = 3
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import scatter1d, scatter1d.cli
sys.exit(scatter1d.cli.main(["singularity", "--table1", "--out", {out!r}]))
"""

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "work_per_s": "1/s", "cli_s": "s"}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(repeats: int, warm_up: bool) -> list[float]:
    """CPU times of fresh interpreters that import scatter1d and
    scatter1d.cli and write a first result (the Table-1 artifact).

    A warm-up spawn is not timed: it writes the bytecode cache, which a
    fresh checkout lacks and an installed package has.
    """
    code = SETUP_CODE.format(src=str(SRC), out=str(SETUP_OUT))
    times = []
    for i in range(repeats + warm_up):
        SETUP_OUT.unlink(missing_ok=True)
        t0 = _children_cpu()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=150)
        dt = _children_cpu() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr}")
        if i or not warm_up:
            times.append(dt)
    return times


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ``ops`` until the next round would end after ``seconds``
    of wall time; each operation is timed by the CPU time it takes."""
    from workloads import Record
    rounds = []
    begin = perf_counter()
    while True:
        records = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = i
            t0 = process_time()
            try:
                value, error = op.run(), None
            except Exception as exc:   # counted as a failed operation; the round goes on
                value, error = None, exc
            rec = Record(op, process_time() - t0, value, error)
            if error is None and op.collect is not None:
                rec.value, rec.bytes_out = op.collect(value)
            records.append(rec)
        rounds.append(records)
        elapsed = perf_counter() - begin
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "scatter1d_threads": os.environ.get("SCATTER1D_THREADS"),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, VALIDATE_SEED, round_seconds
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    ops = workload.operations()
    result = {"workload": name, "env": environment(seed)}
    if name == "oracle":
        result["env"]["validate_seed"] = VALIDATE_SEED

    if not trace:
        rounds = run_rounds(ops, seconds)
        traced = []
    else:
        from tracing import Tracer
        rounds = run_rounds(ops, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(ops, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.save(str(WORK / f"trace-{name}.npz"))

    every = rounds + traced
    errors = workload.check(every)
    failures = [f"{r.op.name}: {type(r.error).__name__}: {r.error}"
                for rnd in every for r in rnd if r.error is not None]
    result.update(
        rounds=len(rounds), traced_rounds=len(traced),
        attempted=sum(len(rnd) for rnd in every), failed=len(failures),
        failures=sorted(set(failures)), check_errors=errors,
        named={k: {"value": v, "unit": u} for k, (v, u) in workload.named_metrics(rounds).items()},
    )
    if trace:
        layer = tracer.layer_metrics(len(traced), sum(r.bytes_out for rnd in traced for r in rnd))
        layer["trace.overhead_pct"] = 100.0 * (round_seconds(traced) / round_seconds(rounds) - 1.0)
        result["metrics"] = layer
    else:
        result["metrics"] = {
            "round_s": round_seconds(rounds),
            "work_per_s": workload.work_per_s(rounds),
            "cli_s": workload.cli_s(rounds),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "oracle", "lasing", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scatter1d" / "__init__.py").is_file():
        print(f"scatter1d sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    import checks
    from tracing import UNITS

    names = ["sweep", "oracle", "lasing"] if args.workload == "all" else [args.workload]
    setup_errors = []
    if not args.trace:
        spawns = setup_times(SETUP_REPEATS, warm_up=True)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if not args.trace:
        spawns += setup_times(SETUP_REPEATS, warm_up=False)
        setup_s = statistics.median(spawns)
        setup_errors = checks.check_table1(json.loads(SETUP_OUT.read_text())["solutions"],
                                           "set-up artifact")

    for res in results:
        print(f"workload {res['workload']} seed {args.seed}: {res['rounds']} rounds"
              f" (+{res['traced_rounds']} traced), {res['attempted']} operations attempted,"
              f" {res['failed']} failed")
        for line in res["failures"]:
            print(f"  FAILED {line}")
        for line in res["check_errors"]:
            print(f"  CHECK FAILED {line}")
        for key, metric in res["named"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(res, sort_keys=True, default=str))
    for line in setup_errors:
        print(f"  CHECK FAILED {line}")

    if len(results) == 1 and args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in results[0]["metrics"].items()}
    elif len(results) == 1:
        raw = dict(results[0]["metrics"], setup_s=setup_s)
        metrics = {k: {"value": raw[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    elif args.trace:
        metrics = {f"{res['workload']}:{k}": {"value": v, "unit": UNITS[k]}
                   for res in results for k, v in res["metrics"].items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for res in results:
            metrics.update(res["named"])
    print(json.dumps({
        "correct": not setup_errors and all(not r["check_errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
