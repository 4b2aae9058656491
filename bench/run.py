"""hgl benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload coeff-route --seed 1 --seconds 24 --trace 0

The client calls ``hgl.cli.main(argv)`` in this process, one job at a time,
with argv lists drawn from ``--seed`` (see workloads.py), and checks every
job's output against an independent reference (checks.py).  Passes run
until the jobs have used ``--seconds`` of wall time at nominal host speed
(see host_probe); the loop's times are reported at that speed too.
``setup_s`` is measured apart from the loop's job times: fresh
interpreters, started between passes, that import ``hgl.cli`` and run the
workload's first job, drawn from a fixed seed so that it does not change
with ``--seed``, as a one-command CLI user would.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run that alternates untraced and traced passes (tracer.py).  The lines
above it repeat the figures for a reader, with the output-check result,
every failure with its reproducer, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
COLD_STARTS = 5
SETUP_SEED = 0           # the set-up job is the same for every --seed
MIN_PASSES = 12          # pass_s_tail needs at least 11 timed passes
MIB = 1 << 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_REF_S = 0.0100     # host_probe() time at nominal host speed (see README)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coeff-route", "grid-route", "bulk-io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# running one job
# ----------------------------------------------------------------------

class Result:
    """One job's outcome.  It keeps the argv, not the job, so the check's
    reference data is freed once the check has run."""

    def __init__(self, job, job_id, wall, cpu, reason, report_bytes):
        self.kind, self.argv, self.job_id = job.kind, job.argv, job_id
        self.wall, self.cpu = wall, cpu
        self.ok, self.reason, self.report_bytes = reason is None, reason, report_bytes


def run_job(cli, job, tracer=None, job_id=0) -> Result:
    """Call cli.main(argv) in process, then check its report (untimed)."""
    import checks
    out, err = io.StringIO(), io.StringIO()
    reason = None
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_job(job_id)
            try:
                rc = cli.main(job.argv)
            finally:
                if tracer is not None:
                    tracer.end_job()
    except SystemExit as exc:            # argparse rejects the argv
        rc = exc.code
    except Exception:                    # a traceback is a failed job, not a crash
        rc = None
        reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    text = out.getvalue()
    if job.out_path and os.path.exists(job.out_path):
        text = Path(job.out_path).read_text()
    if reason is None and rc != 0:
        reason = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if reason is None:
        reason = checks.run_check(job.check, text)
    for path in job.remove_after:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    return Result(job, job_id, wall, cpu, reason, len(text.encode()))


def cold_start(job, env) -> tuple:
    """Wall time of a fresh interpreter running the job through the CLI entry
    point, and the failure reason or None."""
    import checks
    code = "import sys; from hgl.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *job.argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    text = Path(job.out_path).read_text() if job.out_path else proc.stdout
    reason = (f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
              if proc.returncode != 0 else checks.run_check(job.check, text))
    return wall, reason


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

def host_probe() -> float:
    """Wall time of a fixed mix of interpreter, numpy and allocation work
    that touches no hgl code: the host's speed at this moment.  The shared
    host runs every kind of work faster or slower together, by 10-40% over
    seconds to minutes, and the probe moves with it."""
    import numpy as np
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += (i * 0.5) ** 0.5
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
        acc += float(a.sum())
    table = {}
    for i in range(5000):
        table[i, i % 7] = [i, str(i)]
    elapsed = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return elapsed


def host_speed(probe_before: float, probe_after: float) -> float:
    """Host speed over the work between two probes, as a share of nominal:
    a wall time times this is the time at nominal host speed."""
    return PROBE_REF_S / (0.5 * (probe_before + probe_after))


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def working_set_bytes(job) -> int:
    """Largest array the job's input implies: the input file, or the tensor
    quadrature grid (order^d complex samples)."""
    argv = job.argv
    size = 0
    if "--input" in argv:
        path = argv[argv.index("--input") + 1]
        if os.path.exists(path):
            size = os.path.getsize(path)
    if "--quad-order" in argv:
        q = int(argv[argv.index("--quad-order") + 1])
        d = int(argv[argv.index("--dim") + 1]) if "--dim" in argv else 1
        size = max(size, 16 * q ** d)
    return size


def environment(largest_ws: int) -> dict:
    import numpy
    import scipy
    l3 = l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "HGL_THREADS": os.environ.get("HGL_THREADS", "unset"),
        "largest_working_set_mb": round(largest_ws / MIB, 2),
        "l3_mb": round(l3 / MIB, 1) if l3 else None,
        "note": "every working set is cache-resident, so bandwidth and roofline "
                "metrics are out of scope",
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def tail(values: list):
    """Highest nearest-rank percentile with at least 10 values above it:
    (value, percentile, count)."""
    vals = sorted(values)
    k = len(vals) - 11
    return vals[k], 100.0 * (k + 1) / len(vals), len(vals)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hgl" / "cli.py").is_file():
        print(f"error: no hgl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HGL_THREADS", None)
    # one BLAS thread, set before numpy loads: on 2 CPUs a second one only
    # spins beside the first and slowed grid-route passes
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    env = {k: v for k, v in os.environ.items() if k != "HGL_THREADS"}
    env["PYTHONPATH"] = str(SRC)

    import workloads
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        gen = workloads.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        setup_dir = os.path.join(workdir, "setup")
        os.mkdir(setup_dir)
        setup_gen = workloads.WORKLOADS[args.workload](random.Random(SETUP_SEED), setup_dir)
        return measure(args, gen, setup_gen.make_pass()[0], env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, gen, setup_job, env) -> int:
    warm = gen.make_pass()
    failures = []
    attempted = 0
    # cold starts are spread over the run at even steps of job time, so their
    # median spans the host's speed over the whole run, not its first seconds
    cold_due = [] if args.trace else [i * args.seconds / COLD_STARTS
                                      for i in range(COLD_STARTS)]
    cold_times = []

    def cold_starts_due(job_time):
        nonlocal attempted
        while cold_due and job_time >= cold_due[0]:
            cold_due.pop(0)
            wall, reason = cold_start(setup_job, env)
            cold_times.append(wall)
            attempted += 1
            if reason:
                failures.append((setup_job.argv, reason))

    cold_starts_due(0.0)

    import hgl
    import hgl.cli as cli
    if not Path(hgl.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported hgl from {hgl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    tracer = Tracer() if args.trace else None

    largest_ws = 0
    for job in warm:                      # lazy imports and first-call set-up
        largest_ws = max(largest_ws, working_set_bytes(job))
        res = run_job(cli, job)
        attempted += 1
        if not res.ok:
            failures.append((res.argv, res.reason))

    plain, traced = [], []                # per pass: list of Results
    speed = []                            # per untraced pass: host_speed() over it
    job_time = 0.0
    job_id = 0
    while job_time < args.seconds or len(plain) < MIN_PASSES:
        use_tracer = tracer is not None and len(plain) > len(traced)
        jobs = gen.make_pass()
        before = host_probe()
        results = []
        for job in jobs:
            largest_ws = max(largest_ws, working_set_bytes(job))
            job_id += 1
            res = run_job(cli, job, tracer if use_tracer else None, job_id)
            results.append(res)
            attempted += 1
            if not res.ok:
                failures.append((res.argv, res.reason))
        (traced if use_tracer else plain).append(results)
        factor = host_speed(before, host_probe())
        if not use_tracer:
            speed.append(factor)
        # job time at nominal host speed, so that a run holds about as many
        # passes whatever the host's speed (pass_s_tail's rank depends on it)
        job_time += factor * sum(r.wall for r in results)
        cold_starts_due(job_time)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_walls = [sum(r.wall for r in p) for p in plain]
    pass_times = [w * f for w, f in zip(pass_walls, speed)]
    timed_jobs = [r for p in plain for r in p]
    job_time_scaled = sum(pass_times)
    print(f"hgl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'} run")
    if args.trace:
        import layers
        metrics, table, trace_failures = layers.per_layer_metrics(tracer, traced, plain)
        failures += trace_failures
        print(table)
        write_spans(tracer, args)
    else:
        value, pct, n = tail(pass_times)
        # setup_s stays as measured: a cold start runs in a child process, and
        # neither the probes beside it nor the run's median host speed fit it
        metrics = {
            "setup_s": (statistics.median(cold_times), "s"),
            "jobs_per_s": (sum(r.ok for r in timed_jobs) / job_time_scaled, "1/s"),
            "pass_s_p50": (statistics.median(pass_times), "s"),
            "pass_s_tail": (value, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_rate": ((attempted - len(failures)) / attempted, "ratio"),
        }
        notes = {
            "setup_s": f"{setup_job.kind}, median of {COLD_STARTS} fresh interpreters, "
                       "as measured: " + ", ".join(f"{t:.3f}" for t in cold_times),
            "jobs_per_s": f"{len(timed_jobs)} jobs in {len(plain)} passes, "
                          f"{sum(r.wall for r in timed_jobs):.2f} s of job time as measured",
            "pass_s_p50": f"{len(plain)} passes of {len(plain[0])} jobs; "
                          f"{statistics.median(pass_walls):.4f} s as measured",
            "pass_s_tail": f"p{pct:.0f} of {n} passes, 10 beyond it",
            "peak_rss_mb": "ru_maxrss of this process",
            "pass_rate": f"error_rate {len(failures) / attempted:.4f}: "
                         f"{len(failures)} of {attempted} jobs failed",
        }
        print(f"loop times at nominal host speed (host_probe() taking {PROBE_REF_S * 1000:.1f} ms); "
              f"host speed over the passes {min(speed):.2f}..{max(speed):.2f} of nominal, "
              f"median {statistics.median(speed):.3f}:")
        for name, (val, unit) in metrics.items():
            print(f"  {name:12s} {val:12.6g} {unit:6s} {notes[name]}")
        print("median job wall time by kind, as measured:")
        for kind, (n, med) in kind_table(timed_jobs).items():
            print(f"  {kind:22s} {n:4d} jobs {med * 1000.0:10.2f} ms")
    print("output checks: " + ("all passed" if not failures else f"{len(failures)} FAILED"))
    for argv, reason in failures:
        print(f"  FAIL {reason}\n       reproduce: hgl {' '.join(argv)}")
    print("environment: " + json.dumps(environment(largest_ws)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_spans(tracer, args) -> None:
    """All spans of the traced passes, one JSON list per line:
    [id, name, start, end, parent, job, count]."""
    out = BENCH_DIR / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def kind_table(results) -> dict:
    kinds: dict = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r.wall)
    return {k: (len(v), statistics.median(v)) for k, v in kinds.items()}


if __name__ == "__main__":
    sys.exit(main())
