"""Benchmark of the fusionkit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload su2_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One job is one in-process ``fusionkit.cli.main(argv)`` call with stdout and
stderr captured.  Jobs run back to back in a closed loop with one client; a
pass runs every job of the workload once, in an order drawn from ``--seed``
(which also draws the ``decompose --seed`` values; no result may depend on
it).  Passes repeat until the next one would end after ``--seconds``; there
is always at least one.  A job fails when it raises, exits non-zero, or its
output disagrees with the oracle in ``oracles.py``; only the last case makes
the run incorrect.

Set-up is the import of fusionkit, writing every input file into a temporary
directory under ``.perfbench_out/`` and one warm-up job.  It runs once in
this process and twice more in fresh child processes, and ``setup_s`` is
the median.  OpenBLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes, then one more pass with every public fusionkit function wrapped
(``tracing.py``), and prints the per-layer metrics of that pass with the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  ``--workload all`` runs every workload, untraced
and traced, each in a fresh process, and prints every metric by name.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
END_TO_END = {"wall_s": "s", "job_max_s": "s", "ok_frac": "1",
              "peak_rss_mb": "MiB", "setup_s": "s"}


def prepare_imports() -> None:
    """Pin BLAS threads and import fusionkit from this checkout's ``src``."""
    for path in (ROOT / "src" / "fusionkit" / "__init__.py", ROOT / "tests" / "helpers.py"):
        if not path.is_file():
            raise SystemExit(f"perfbench: {path.relative_to(ROOT)} is missing; "
                             "run from the root of a fusionkit checkout")
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    for path in (HERE, ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


@dataclass
class Outcome:
    job: str
    seconds: float
    status: str  # ok | raised | exit | wrong
    detail: str = ""


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome]


def run_job(job):
    """Run one CLI call; returns (seconds, exit code or None, stdout, stderr, exception)."""
    import fusionkit.cli
    out, err = io.StringIO(), io.StringIO()
    exc = rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fusionkit.cli.main(list(job.argv))
    except Exception as e:  # a crash fails this job; the pass goes on
        exc = e
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), exc


def judge(job, raw) -> Outcome:
    seconds, rc, stdout, stderr, exc = raw
    if exc is not None:
        return Outcome(job.name, seconds, "raised", f"{type(exc).__name__}: {str(exc)[:120]}")
    if rc != 0:
        first = stderr.strip().splitlines()[:1]
        return Outcome(job.name, seconds, "exit", f"exit {rc}: {first[0] if first else ''}")
    try:
        reason = job.check(stdout)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        reason = f"unreadable output ({e!r})"
    return Outcome(job.name, seconds, "wrong" if reason else "ok", reason or "")


def run_pass(jobs, rng: random.Random, tracer=None) -> Pass:
    """One closed-loop pass; outputs are judged after the clock stops."""
    order = list(jobs)
    rng.shuffle(order)
    raws = []
    t0 = time.perf_counter()
    for job in order:
        if tracer is not None:
            tracer.job = job.name
        raws.append(run_job(job))
    wall = time.perf_counter() - t0
    return Pass(wall, [judge(job, raw) for job, raw in zip(order, raws)])


def setup(name: str, seed: int, inputs: Path, workload=None):
    """Import, write inputs, warm up; returns (seconds, jobs, rng).

    ``workload`` defaults to ``workloads.WORKLOADS[name]``, looked up after
    the clock starts so that importing fusionkit counts as set-up.
    """
    t0 = time.perf_counter()
    import fusionkit.cli  # noqa: F401
    if workload is None:
        import workloads
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {name!r}; "
                             f"one of {', '.join(workloads.WORKLOADS)} or all")
        workload = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    jobs, warmup = workload.make(inputs, rng)
    outcome = judge(warmup, run_job(warmup))
    if outcome.status != "ok":
        raise RuntimeError(f"warm-up job {warmup.name} failed: {outcome.detail}")
    return time.perf_counter() - t0, jobs, rng


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (``--setup-probe``)."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            setup_probes: int = 0, workload=None):
    """Set up, run timed passes (and one traced pass); returns the result dict."""
    from tracing import Tracer, layer_metrics
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup_s, jobs, rng = setup(name, seed, Path(tmp), workload)
        setups = [setup_s] + [probe_setup(name, seed) for _ in range(setup_probes)]
        passes: list[Pass] = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(jobs, rng))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > seconds:
                break
        traced = tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(jobs, rng, tracer)
            finally:
                tracer.uninstall()

    untraced = [o for p in passes for o in p.outcomes]
    outcomes = untraced + (traced.outcomes if traced else [])
    failed = sum(o.status != "ok" for o in outcomes)
    wall = statistics.median(p.wall for p in passes)
    if trace:
        metrics = {metric: {"value": v, "unit": u}
                   for metric, (v, u) in layer_metrics(tracer.spans, tracer.counts).items()}
        metrics["trace.overhead_s"] = {"value": traced.wall - wall, "unit": "s"}
    else:
        values = {
            "wall_s": wall,
            "job_max_s": statistics.median(max(o.seconds for o in p.outcomes) for p in passes),
            "ok_frac": sum(o.status == "ok" for o in untraced) / len(untraced),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setups),
        }
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in END_TO_END.items()}
    return {
        "result": {"correct": not any(o.status == "wrong" for o in outcomes),
                   "attempted": len(outcomes), "failed": failed, "metrics": metrics},
        "passes": [{"wall_s": p.wall, "traced": p is traced,
                    "jobs": [vars(o) for o in p.outcomes]}
                   for p in passes + ([traced] if traced else [])],
        "setup_samples_s": setups,
        "spans": [s.as_dict() for s in tracer.spans] if tracer else None,
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": _blas_threads(),
            "blas_threads_requested": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "commit": _commit()}


def run_one(args) -> int:
    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, Path(tmp))[0]}))
        return 0
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     setup_probes=SETUP_SAMPLES - 1)
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"environment": env, **report}, indent=1),
                                      encoding="utf-8")
    for job in report["passes"][0]["jobs"]:
        print(f"# {job['job']:<40} {job['seconds']:9.4f} s  {job['status']} {job['detail']}")
    print(f"# details: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    print("# env " + json.dumps(env))
    print(json.dumps(report["result"]))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    import workloads
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in workloads.WORKLOADS:
        plain, traced = summary[f"{name}/trace0"], summary[f"{name}/trace1"]
        m = plain["metrics"]
        print(f"== {name}: correct={plain['correct']} attempted={plain['attempted']} "
              f"failed={plain['failed']} fail_frac={plain['failed'] / plain['attempted']:.3f}")
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        for metric, entry in m.items():
            beside = f"   (tracing overhead {overhead:+.3f} s)" if metric == "wall_s" else ""
            print(f"   {metric:<32} {entry['value']:>14.6g} {entry['unit']}{beside}")
        for metric, entry in traced["metrics"].items():
            print(f"   {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    prepare_imports()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
