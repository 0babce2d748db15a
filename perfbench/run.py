"""twcalc benchmark: closed-loop CLI and grid-oracle workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload coeff-d1 --seed 1 --seconds 20 --trace 0

One client in one process runs jobs back to back for ``--seconds`` of job
time, checks every output outside the timed region, and prints each
end-to-end metric with its unit.  ``--trace 1`` runs the loop once
untraced and once with every public twcalc function wrapped in a span, and
prints per-layer metrics and the tracing overhead instead.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Inputs come from ``--seed`` alone.  BLAS runs at its default thread count;
nothing here sets thread variables.  Scratch files go under ``.perfbench/``
in the checkout and the span dump of a traced run stays there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coeff-d1", "coeff-d2", "grid-d1", "grid-d2")
SETUP_PROBES = 3
P90_MIN_JOBS = 100
OUT_DIR = ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_info() -> dict:
    import scipy

    info = {"cores": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "TWC_THREADS": os.environ.get("TWC_THREADS", "unset")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    info[f"blas_threads[{pkg.__name__}]"] = fn()
                    break
    return info


def measure_setup(workload: str, workdir: str) -> list[float]:
    """Seconds from spawning a fresh process to its ready line, per probe."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        os.makedirs(probe_dir, exist_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload, probe_dir],
                                stdout=subprocess.PIPE, env=src_env(), text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return times


class Checker:
    """The check.py process, fed one request per line."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "check.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, **req) -> list[str]:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("checker process exited")
        return json.loads(line)["errors"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def job_digest(job) -> str:
    h = hashlib.sha256()
    for step, code in job.codes.items():
        h.update(f"{step}={code};".encode())
    for path in job.files:
        h.update(os.path.basename(path).encode() + b"\0")
        if not os.path.exists(path):
            h.update(b"<missing>")
            continue
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    for key, arr in job.arrays.items():
        h.update(f"{key}{arr.dtype.str}{arr.shape};".encode())
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


class Run:
    """One closed-loop client: state shared by the timed and traced loops."""

    def __init__(self, workload: str, seed: int, workdir: str, checker: Checker):
        import workloads

        self.w = workloads
        self.workload, self.workdir, self.checker = workload, workdir, checker
        self.cases = workloads.cases(workload, seed)
        self.next = 0
        self.times: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.verify_calls = self.recovered = 0
        self.tracer = None

    def warm_up(self):
        self.w.run_job(self.workload, self.w.warmup_case(self.workload), self.workdir, warmup=True)

    def loop(self, seconds: float) -> tuple[int, float]:
        """Jobs back to back for about ``seconds`` of summed job wall time.

        Another job starts only if, at this loop's median job time, it
        would end less than half a job past the deadline.
        """
        start = len(self.times)
        busy = self.one_job()
        while busy + 0.5 * statistics.median(self.times[start:]) < seconds:
            busy += self.one_job()
        return len(self.times) - start, busy

    def one_job(self) -> float:
        idx = self.next
        self.next += 1
        case_id = idx % len(self.cases)
        case = self.cases[case_id]
        for name in os.listdir(self.workdir):
            path = os.path.join(self.workdir, name)
            if os.path.isfile(path):
                os.remove(path)
        if self.tracer:
            self.tracer.job = idx
        start = time.perf_counter()
        try:
            job = self.w.run_job(self.workload, case, self.workdir)
            errors = []
        except Exception as exc:                   # a job that raises is a failed job
            job, errors = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.job = None
        self.times.append(elapsed)
        if job is not None:
            errors += self.w.check(self.workload, case, job, self.checker.ask)
            passed = self.w.verdicts(job)
            self.verify_calls += len(passed)
            self.recovered += sum(passed)
            digest = job_digest(job)
            first = self.digests.setdefault(case_id, digest)
            if first != digest:
                errors.append(f"case {case_id} digest {digest[:12]} differs from its first run {first[:12]}")
        if errors:
            self.failures.append(f"job {idx} (case {case_id}): " + "; ".join(errors))
        return elapsed


def percentile_90(times):
    return statistics.quantiles(times, n=10)[8] if len(times) >= P90_MIN_JOBS else None


def run_workload(args, bench: dict) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    # a fixed path: compose embeds its input paths, and digests must repeat
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    checker = None
    try:
        setup = [] if args.trace else measure_setup(args.workload, workdir)
        sys.path.insert(0, os.path.abspath("src"))
        sys.path.insert(0, HERE)
        checker = Checker()
        run = Run(args.workload, args.seed, workdir, checker)
        info = machine_info()
        run.warm_up()
        jobs, busy = run.loop(args.seconds)
        layer = {}
        if args.trace:
            from spans import Tracer

            run.tracer = Tracer()
            run.tracer.install()
            try:
                traced_jobs, traced_busy = run.loop(args.seconds)
            finally:
                run.tracer.uninstall()
            layer = run.tracer.layer_metrics()
            layer["trace.untraced_jobs_per_s"] = jobs / busy
            layer["trace.jobs_per_s"] = traced_jobs / traced_busy
            layer["trace.overhead_jobs_per_s"] = jobs / busy - traced_jobs / traced_busy
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            run.tracer.write(spans_path)
    finally:
        if checker:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    timed = run.times[:jobs]
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "jobs_per_s": jobs / busy,
        "job_s_p50": statistics.median(timed),
        "job_s_p90": percentile_90(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(run.failures) / len(run.times),
    }
    if run.verify_calls:
        e2e["recovered_frac"] = run.recovered / run.verify_calls

    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed={args.seed}: closed loop, 1 client, {jobs} jobs in "
          f"{busy:.3f} s of job time" + (f", then {traced_jobs} traced jobs" if args.trace else ""))
    if setup:
        print("setup probes s: " + " ".join(f"{t:.4f}" for t in setup))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(job_s_p90="s", fail_frac="1", recovered_frac="1")
    for name, value in e2e.items():
        if value is None:
            why = "traced run" if name == "setup_s" else f"fewer than {P90_MIN_JOBS} jobs"
            print(f"metric {name} n/a ({why})")
        else:
            print(f"metric {name} {value!r} {units[name]}")
    if run.verify_calls:
        print(f"recovered {run.recovered}/{run.verify_calls} verify calls report PASS")
    for case_id, digest in sorted(run.digests.items()):
        print(f"digest {args.workload} seed={args.seed} case={case_id} sha256={digest}")
    combined = hashlib.sha256("".join(d for _, d in sorted(run.digests.items())).encode()).hexdigest()
    print(f"digest {args.workload} seed={args.seed} cases={len(run.digests)} sha256={combined}")
    for failure in run.failures[:10]:
        print("FAILED " + failure, file=sys.stderr)
    if args.trace:
        print(f"spans written to {spans_path}")
        print(f"tracing overhead: {layer['trace.overhead_jobs_per_s']!r} jobs/s "
              f"({layer['trace.untraced_jobs_per_s']!r} untraced, {layer['trace.jobs_per_s']!r} traced)")

    section = "per_layer" if args.trace else "end_to_end"
    values = {**e2e, **layer}
    metrics = {}
    for m in bench[section]:
        if values.get(m["name"]) is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": not run.failures, "attempted": len(run.times),
            "failed": len(run.failures), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, so each peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "twcalc", "cli.py")):
        print(f"no twcalc sources under {os.path.abspath('src')}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    result = run_all(args) if args.workload == "all" else run_workload(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
